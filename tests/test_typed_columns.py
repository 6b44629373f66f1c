"""Typed payload columns: declared dtypes end-to-end.

Primitives may declare a payload dtype at submission time (int64 scalars or
fixed-width structs); the builder, engine, and routers then keep payloads
in numpy columns from ``add_array`` through delivery, and a clean typed
round constructs zero ``Message`` objects *and* zero Python payload boxes.
Object payloads remain the fallback everywhere — these tests pin that the
two representations are observably indistinguishable (values, rounds,
messages, bits) and that the zero-object gates hold.
"""

from __future__ import annotations

import gc
import random

import numpy as np
import pytest

from repro.config import Enforcement, NCCConfig
from repro.errors import ProtocolError
from repro.ncc.message import (
    BatchBuilder,
    InboxBatch,
    RoundInbox,
    gather_typed_spans,
    message_construction_count,
    payload_bits,
    payload_box_count,
    set_typed_payloads,
    typed_payload_bits,
    typed_payloads_enabled,
)
from repro.ncc.network import NCCNetwork
from repro.primitives.aggregation import (
    INJECT_DTYPE,
    AggregationProblem,
    run_aggregation,
)
from repro.primitives.direct import send_chunked, send_direct
from repro.primitives.functions import MAX, MIN, SUM, XOR, xor_count
from repro.runtime import NCCRuntime
from repro.telemetry import METRICS, tracing

ENGINES = ("reference", "batched")

PAIR_DTYPE = np.dtype([("a", "i8"), ("b", "i8")])
TAGGED_DTYPE = np.dtype([("tag", "U12"), ("x", "i8"), ("ok", "?"), ("w", "f8")])


@pytest.fixture
def typed_on():
    prev = set_typed_payloads(True)
    yield
    set_typed_payloads(prev)


def _config(engine, mode=Enforcement.COUNT, *, lightweight=True, seed=7):
    extras = {"lightweight_sync": True} if lightweight else {}
    return NCCConfig(seed=seed, enforcement=mode, engine=engine, extras=extras)


# ----------------------------------------------------------------------
# Vectorized sizing
# ----------------------------------------------------------------------
class TestVectorizedSizing:
    def test_int64_column_matches_scalar_rule(self):
        rng = random.Random(0)
        values = [0, 1, -1, 255, -256, 2**62, -(2**62), -(2**63), 2**63 - 1]
        values += [rng.randrange(-(2**63), 2**63) for _ in range(200)]
        # Every bit-length boundary, both signs: a float comparison anywhere
        # in the sizing would misplace the ones past 2**53.
        for k in range(64):
            for v in (2**k - 1, 2**k, -(2**k - 1), -(2**k)):
                if -(2**63) <= v < 2**63:
                    values.append(v)
        arr = np.asarray(values, dtype=np.int64)
        got = typed_payload_bits(arr)
        want = [payload_bits(v) for v in values]
        assert got.tolist() == want

    def test_struct_column_matches_tuple_rule(self):
        rows = [
            ("x", 5, True, 1.5),
            ("longer-tag!!", -77, False, 0.0),
            ("", 0, True, -3.25),
            ("eightchr", 2**40, False, 9.0),
        ]
        arr = np.array(rows, dtype=TAGGED_DTYPE)
        got = typed_payload_bits(arr)
        want = [payload_bits(r) for r in rows]
        assert got.tolist() == want

    def test_inject_dtype_sizes_like_tuples(self):
        rows = [("I", 3, 17, -40), ("I", 0, 2**30, 1)]
        arr = np.array(rows, dtype=INJECT_DTYPE)
        assert typed_payload_bits(arr).tolist() == [
            payload_bits(r) for r in rows
        ]


# ----------------------------------------------------------------------
# Builder-level behavior
# ----------------------------------------------------------------------
class TestTypedBuilder:
    def test_add_array_accounts_like_object_adds(self, typed_on):
        typed = BatchBuilder(kind="t", dtype=np.int64)
        typed.add_array(3, [1, 2, 5], [10, -200, 0])
        obj = BatchBuilder(kind="t")
        for dst, v in zip([1, 2, 5], [10, -200, 0]):
            obj.add(3, dst, v)
        assert len(typed) == len(obj) == 3
        assert typed._bits_sum == obj._bits_sum
        assert typed._bits_max == obj._bits_max

    def test_add_arrays_groups_by_sender(self, typed_on):
        b = BatchBuilder(kind="t", dtype=np.int64)
        b.add_arrays([4, 1, 4, 1], [7, 8, 9, 10], [1, 2, 3, 4])
        assert len(b) == 4
        batches = b.batches()
        assert sorted(batches) == [1, 4]

    @pytest.mark.parametrize("layout", ["no-dtype", "typed-off"])
    def test_add_arrays_groups_ascending_on_every_layout(self, layout):
        """Without an active dtype, add_arrays still groups senders in
        stable ascending order, as the typed layout does: equal senders()
        and equal per-sender boxed payloads, with a duplicate sender in one
        call and a sender (3) split across two calls."""
        calls = [
            ([3, 1, 3, 0], [0, 0, 1, 1], [5, 6, 7, 8]),
            ([2, 3, 2], [4, 5, 6], [9, 10, 11]),
        ]

        def build(dtype):
            b = BatchBuilder(kind="t", dtype=dtype)
            for srcs, dsts, vals in calls:
                b.add_arrays(srcs, dsts, np.asarray(vals, dtype=np.int64))
            return b

        prev = set_typed_payloads(True)
        try:
            typed = build(np.int64)
        finally:
            set_typed_payloads(prev)
        prev = set_typed_payloads(layout == "no-dtype")
        try:
            other = build(None if layout == "no-dtype" else np.int64)
        finally:
            set_typed_payloads(prev)
        assert typed._dtype is not None and other._dtype is None
        assert typed.senders() == other.senders() == [0, 1, 3, 2]
        view = lambda b: [(s, g.dsts(), g.payloads()) for s, g in b.batches().items()]
        assert view(typed) == view(other)
        assert view(other)[2] == (3, [0, 1, 5], [5, 7, 10])

    def test_mixing_object_adds_degrades_all_groups(self, typed_on):
        fallbacks = METRICS.counter("ncc.typed_fallbacks")
        b = BatchBuilder(kind="t", dtype=np.int64)
        b.add_array(0, [1, 2], [5, 6])
        boxes, before = payload_box_count(), fallbacks.value
        with tracing() as tr:
            b.add(3, 4, ("obj", 1))  # degrades the typed groups
        assert payload_box_count() - boxes == 2
        assert fallbacks.value - before == 1
        events = [(name, fields) for _, name, _, _, fields in tr.records]
        assert events == [("typed-fallback", {"boxed": 2, "kind": "t"})]
        assert b._dtype is None
        assert len(b) == 3
        # A clean typed round boxes nothing back: no event, no count.
        for engine in ENGINES:
            clean = BatchBuilder(kind="t", dtype=np.int64)
            with tracing() as tr:
                clean.add_arrays([4, 1], [7, 8], [1, 2])
                NCCNetwork(16, _config(engine)).exchange(clean)
            assert [r for r in tr.records if r[1] == "typed-fallback"] == []
        assert fallbacks.value - before == 1

    def test_unsupported_dtype_rejected(self, typed_on):
        for bad in (np.float64, np.uint32, np.dtype("O"),
                    np.dtype([("n", "i8", (2,))])):
            with pytest.raises(TypeError, match="unsupported payload dtype"):
                BatchBuilder(dtype=bad)

    def test_prebuilt_value_array_dtype_must_match(self, typed_on):
        b = BatchBuilder(dtype=np.int64)
        with pytest.raises(TypeError):
            b.add_array(0, [1], np.asarray([1.5]))  # silent truncation guard

    def test_float_destinations_rejected(self, typed_on):
        b = BatchBuilder(dtype=np.int64)
        with pytest.raises(TypeError):
            b.add_array(0, np.asarray([1.5]), [3])

    def test_global_toggle_disables_declarations(self):
        prev = set_typed_payloads(False)
        try:
            assert not typed_payloads_enabled()
            b = BatchBuilder(dtype=np.int64)
            assert b._dtype is None  # declaration degraded; object layout
            b.add_array(0, [1, 2], np.asarray([5, 6], dtype=np.int64))
            assert len(b) == 2
        finally:
            set_typed_payloads(prev)

    @pytest.mark.parametrize(
        "columns",
        [
            (np.asarray([0.5]), [2], [7]),
            ([0], np.asarray([2.5]), [7]),
            ([0], [2.5], [7]),
        ],
        ids=["float-src-array", "float-dst-array", "float-dst-list"],
    )
    @pytest.mark.parametrize("builder", ["typed", "typed-off", "no-dtype"])
    def test_add_arrays_rejects_float_ids(self, builder, columns):
        """A float node id raises on the typed and the object path alike;
        neither truncates it to a neighbouring node."""
        prev = set_typed_payloads(builder != "typed-off")
        try:
            b = BatchBuilder(dtype=None if builder == "no-dtype" else np.int64)
            assert (b._dtype is not None) == (builder == "typed")
            with pytest.raises(TypeError, match="node ids must be ints"):
                b.add_arrays(*columns)
        finally:
            set_typed_payloads(prev)
        assert len(b) == 0

    @pytest.mark.parametrize("builder", ["typed", "typed-off", "no-dtype"])
    def test_add_arrays_accepts_int_like_ids(self, builder):
        prev = set_typed_payloads(builder != "typed-off")
        try:
            b = BatchBuilder(dtype=None if builder == "no-dtype" else np.int64)
            b.add_arrays([True, np.int64(2)], np.asarray([3, 0]), [7, 8])
        finally:
            set_typed_payloads(prev)
        batches = b.batches()
        assert list(batches) == [1, 2]
        assert [(s, g.dsts(), g.payloads()) for s, g in batches.items()] == [
            (1, [3], [7]),
            (2, [0], [8]),
        ]


# ----------------------------------------------------------------------
# Engine-level typed delivery
# ----------------------------------------------------------------------
class TestTypedDelivery:
    def _sends(self, n):
        return [
            (u, (u * 5 + i) % n, (u, i * 3)) for u in range(n) for i in range(3)
        ]

    def test_typed_round_is_object_round(self, typed_on):
        """Same traffic through a declared dtype and through object tuples:
        identical inbox contents, stats, and rounds under both engines."""
        n = 32
        captured = {}
        for engine in ENGINES:
            for dtype in (PAIR_DTYPE, None):
                net = NCCNetwork(n, _config(engine))
                inbox = send_direct(net, self._sends(n), dtype=dtype)
                captured[(engine, dtype is None)] = (
                    [
                        (d, [(m.src, tuple(m.payload)) for m in msgs])
                        for d, msgs in inbox.items()
                    ],
                    net.stats.comparable(),
                    net.round_index,
                )
        assert len(set(map(repr, captured.values()))) == 1

    def test_typed_batched_round_zero_objects(self, typed_on):
        n = 32
        net = NCCNetwork(n, _config("batched"))
        m0, b0 = message_construction_count(), payload_box_count()
        inbox = send_direct(net, self._sends(n), dtype=PAIR_DTYPE)
        assert message_construction_count() == m0
        assert payload_box_count() == b0
        box = next(iter(inbox.values()))
        assert type(box) is InboxBatch
        arr = box.payload_array()
        assert arr is not None and arr.dtype == PAIR_DTYPE
        # Reading the array is free; element access boxes lazily.
        assert payload_box_count() == b0
        p = box.payloads()
        assert payload_box_count() == b0 + len(p)
        assert all(type(x) is tuple for x in p)

    def test_unconvertible_payloads_fall_back(self, typed_on):
        n = 16
        sends = [(0, 1, (1, 2)), (0, 2, ("not", "ints"))]
        for engine in ENGINES:
            net = NCCNetwork(n, _config(engine))
            inbox = send_direct(net, sends, dtype=PAIR_DTYPE)
            assert inbox[1][0].payload == (1, 2)
            assert inbox[2][0].payload == ("not", "ints")

    def test_send_chunked_typed_matches_object(self, typed_on):
        n = 16
        per_source = {
            u: ([(u + i + 1) % n for i in range(5)], [(u, i) for i in range(5)])
            for u in range(0, n, 2)
        }
        results = {}
        for dtype in (PAIR_DTYPE, None):
            net = NCCNetwork(n, _config("batched"))
            rounds = []
            for inbox in send_chunked(net, per_source, 2, dtype=dtype):
                rounds.append(
                    sorted(
                        (d, m.src, tuple(m.payload))
                        for d, msgs in inbox.items()
                        for m in msgs
                    )
                )
            results[dtype is None] = (rounds, net.stats.comparable())
        assert results[True] == results[False]

    def test_typed_round_accounts_bits_like_object(self, typed_on):
        """A typed round charges the same bits as the same payloads boxed,
        under STRICT enforcement of the message-size budget."""
        n = 16
        stats = {}
        for dtype in (PAIR_DTYPE, None):
            net = NCCNetwork(n, _config("batched", Enforcement.STRICT))
            send_direct(net, self._sends(n), dtype=dtype)
            stats[dtype is None] = net.stats.comparable()
        assert stats[True] == stats[False]


# ----------------------------------------------------------------------
# Mixed typed submissions and the whole-round column store
# ----------------------------------------------------------------------
def _engine_config(engine):
    # shard_cutoff=1 sends even these tiny rounds through the block shuffle.
    extras = {"shard_cutoff": 1} if engine == "sharded" else {}
    return NCCConfig(
        seed=3, enforcement=Enforcement.COUNT, engine=engine, shards=2,
        extras=extras,
    )


def _mixed_typed():
    """Senders repeat across calls: 5, then 3/5/1 (grouped ascending within
    the call), then 3 again."""
    b = BatchBuilder(kind="t", dtype=np.int64)
    b.add_array(5, [1, 2], [10, -7])
    b.add_arrays([3, 5, 1, 3], [4, 6, 0, 2], [2**38, 3, -1, -(2**38)])
    b.add_array(3, [9, 4, 8], [0, 255, -256])
    return b


def _mixed_object():
    """The same traffic as ``_mixed_typed``, one object message at a time in
    the order the typed builder documents."""
    b = BatchBuilder(kind="t")
    b.add_many(5, [1, 2], [10, -7])
    for src, dst, v in ((1, 0, -1), (3, 4, 2**38), (3, 2, -(2**38)), (5, 6, 3)):
        b.add(src, dst, v)
    b.add_many(3, [9, 4, 8], [0, 255, -256])
    return b


def _bulk_builder(senders):
    """One clean add_arrays round: every sender sends two int64 messages."""
    src = np.repeat(np.arange(senders, dtype=np.int64), 2)
    b = BatchBuilder(kind="t", dtype=np.int64)
    b.add_arrays(src, (src + np.tile([1, 2], senders)) % senders, src * 3)
    return b


class TestMixedTypedSubmissions:
    def test_builder_view_matches_object_builder(self, typed_on):
        typed, obj = _mixed_typed(), _mixed_object()
        assert typed.senders() == obj.senders() == [5, 1, 3]
        assert len(typed) == len(obj) == 9
        assert (typed._bits_sum, typed._bits_max) == (obj._bits_sum, obj._bits_max)
        # Finalizing twice (senders() above, batches() here) changes nothing.
        assert typed.batches() == obj.batches()

    @pytest.mark.parametrize("engine", ("reference", "batched", "sharded"))
    def test_delivery_matches_object_builder(self, engine, typed_on):
        outcomes = []
        for make in (_mixed_typed, _mixed_object):
            net = NCCNetwork(32, _engine_config(engine))
            inbox = net.exchange(make())
            outcomes.append((
                [
                    (d, [(m.src, m.dst, m.payload, m.kind) for m in msgs])
                    for d, msgs in inbox.items()
                ],
                net.stats.comparable(),
            ))
            assert net.stats.violation_count == 0  # the clean path
        assert outcomes[0] == outcomes[1]
        inboxes = outcomes[0][0]
        # First-arrival receiver order over senders 5, 1, 3; receiver 4
        # hears sender 3's add_arrays message before its add_array one.
        assert [d for d, _ in inboxes] == [1, 2, 6, 0, 4, 9, 8]
        assert dict(inboxes)[4] == [(3, 4, 2**38, "t"), (3, 4, 255, "t")]

    @pytest.mark.parametrize("bad", (40, 2**70))
    @pytest.mark.parametrize("engine", ("reference", "batched", "sharded"))
    def test_out_of_range_middle_sender_raises_reference_error(
        self, engine, bad, typed_on
    ):
        """Senders in first-occurrence order [5, bad, 3]: the first and last
        are in range, so only a true min/max finds the bad one (and a
        sender too wide for int64 still reaches the engines' range check)."""
        b = BatchBuilder(kind="t", dtype=np.int64)
        for src in (5, bad, 3):
            b.add_array(src, [1], [7])
        net = NCCNetwork(32, _engine_config(engine))
        with pytest.raises(ValueError, match=rf"node id {bad} outside \[0, 32\)"):
            net.exchange(b)

    def test_add_arrays_allocates_constant_objects(self, typed_on):
        """The typed store keeps whole-round columns: an add_arrays of 20 000
        senders creates no more Python objects than one of 2 000."""

        def growth(senders):
            src = np.repeat(np.arange(senders, dtype=np.int64), 2)
            dst = (src + 1) % senders
            b = BatchBuilder(kind="t", dtype=np.int64)
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                b.add_arrays(src, dst, src * 3)
                return len(gc.get_objects()) - before
            finally:
                gc.enable()

        small, large = growth(2_000), growth(20_000)
        assert abs(large - small) <= 8, (small, large)

    def test_clean_batched_exchange_never_splits_per_sender(
        self, monkeypatch, typed_on
    ):
        calls = []
        real = BatchBuilder.batches

        def spy(self):
            calls.append(len(self))
            return real(self)

        monkeypatch.setattr(BatchBuilder, "batches", spy)
        net = NCCNetwork(2_000, _config("batched"))
        inbox = net.exchange(_bulk_builder(2_000))
        assert calls == [] and len(inbox) == 2_000
        observed = []
        net.round_observer = lambda r, per_sender: observed.append(len(per_sender))
        net.exchange(_bulk_builder(2_000))
        assert calls == [4_000] and observed == [2_000]


# ----------------------------------------------------------------------
# gather_typed_spans: one round's typed inboxes as whole columns
# ----------------------------------------------------------------------
def _typed_inboxes(engine, n=64):
    """One clean typed round: every sender sends two messages (receivers
    in first-arrival order differ from ascending order)."""
    senders = np.arange(n, dtype=np.int64)
    src = np.repeat(senders, 2)
    dst = np.stack([(senders + 1) % n, (senders * 7 + 3) % n], axis=1).ravel()
    values = src * 10 + 1
    b = BatchBuilder(kind="t", dtype=np.int64)
    b.add_arrays(src, dst, values)
    net = NCCNetwork(n, _engine_config(engine))
    inbox = net.exchange(b)
    assert net.stats.violation_count == 0
    return inbox


class TestGatherTypedSpans:
    def test_batched_round_returns_its_delivered_column(self, typed_on):
        inbox = _typed_inboxes("batched")
        dsts, base = gather_typed_spans(inbox)
        assert {id(rec._payloads) for rec in inbox.values()} == {id(base)}
        assert list(inbox) != sorted(inbox)  # dict order is not span order
        assert dsts.dtype == np.int64 and len(dsts) == len(base) == 128
        seen = 0
        for host, rec in inbox.items():
            span = slice(rec._start, rec._end)
            assert dsts[span].tolist() == [m.dst for m in rec] == [host] * len(rec)
            assert base[span].tolist() == rec.payloads()
            seen += len(rec)
        assert seen == len(base)

    def test_sharded_round_gathers_like_batched(self, typed_on):
        batched = gather_typed_spans(_typed_inboxes("batched"))
        sharded = gather_typed_spans(_typed_inboxes("sharded"))
        assert sharded is not None
        for got, want in zip(sharded, batched, strict=True):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()

    def test_empty_and_untyped_layouts_decline(self, typed_on):
        assert gather_typed_spans({}) is None
        assert gather_typed_spans(_typed_inboxes("reference")) is None
        net = NCCNetwork(16, _engine_config("batched"))
        b = BatchBuilder(kind="t")
        for s in range(16):
            b.add(s, (s + 1) % 16, s)
        assert gather_typed_spans(net.exchange(b)) is None
        # A bulk object round is a RoundInbox, but its payloads are objects.
        b = BatchBuilder(kind="t")
        for s in range(16):
            b.add_many(s, [(s + i) % 16 for i in range(1, 9)], list(range(8)))
        inbox = net.exchange(b)
        assert type(inbox) is RoundInbox and gather_typed_spans(inbox) is None

    @pytest.mark.parametrize("engine", ("batched", "sharded"))
    def test_round_inbox_is_read_only(self, engine, typed_on):
        inbox = _typed_inboxes(engine)
        assert type(inbox) is RoundInbox
        before = [(host, rec.payload_array().tolist()) for host, rec in inbox.items()]
        host = next(iter(inbox))
        with pytest.raises(TypeError):
            del inbox[host]
        with pytest.raises(TypeError):
            inbox[host] = []
        for attempt in (
            lambda: inbox.pop(host),
            lambda: inbox.popitem(),
            lambda: inbox.setdefault(host, []),
            lambda: inbox.update({host: []}),
            lambda: inbox.clear(),
        ):
            with pytest.raises((TypeError, AttributeError)):
                attempt()
        after = [(host, rec.payload_array().tolist()) for host, rec in inbox.items()]
        assert after == before and len(inbox) == 64
        # A copy is an ordinary dict: no longer the round's columns.
        assert gather_typed_spans(dict(inbox)) is None

    def test_merged_rounds_decline(self, typed_on):
        from repro.ncc.message import merge_round_inboxes

        net = NCCNetwork(32, _engine_config("batched"))
        merged = {}
        for receivers in (range(32), range(0, 32, 2)):
            b = BatchBuilder(kind="t", dtype=np.int64)
            b.add_arrays(list(receivers), list(receivers), list(receivers))
            merge_round_inboxes(merged, net.exchange(b))
        assert gather_typed_spans(merged) is None


# ----------------------------------------------------------------------
# Combining router typed kernel
# ----------------------------------------------------------------------
class TestTypedCombiningRouter:
    def _router(self, net, bf, fn, **kw):
        from repro.butterfly.routing import CombiningRouter

        return CombiningRouter(
            net,
            bf,
            rank_of=lambda g: (g * 2654435761) % 1009,
            target_col_of=lambda g: (g * 40503) % bf.columns,
            combine=fn.combine,
            ufunc=fn.ufunc,
            **kw,
        )

    @pytest.mark.parametrize("fn", [SUM, MIN, MAX, XOR], ids=lambda f: f.name)
    def test_typed_kernel_matches_object_route(self, fn, typed_on):
        n = 32
        rng = random.Random(13)
        packets = [
            (rng.randrange(n), rng.randrange(10), rng.randrange(1, 500))
            for _ in range(150)
        ]
        results = {}
        for typed in (True, False):
            rt = NCCRuntime(n, _config("batched"))
            router = self._router(rt.net, rt.bf, fn)
            if typed:
                router.inject_array(
                    [p[0] for p in packets],
                    [p[1] for p in packets],
                    [p[2] for p in packets],
                )
            else:
                for col, g, v in packets:
                    router.inject(col, g, v)
            res = router.run()
            results[typed] = (res.results, res.rounds, rt.net.stats.comparable())
        assert results[True] == results[False]

    @pytest.mark.engine("reference")  # drives all three engines itself
    @pytest.mark.parametrize("mode", tuple(Enforcement), ids=lambda m: m.value)
    @pytest.mark.parametrize("engine", ("reference", "batched", "sharded"))
    def test_typed_kernel_matches_object_loop_round_by_round(
        self, engine, mode, monkeypatch, typed_on
    ):
        """A seeded grid over size, rank ties, target spread, group-id
        range and ufunc: typed and object injection give the same results,
        rounds, stats (violation ledger order included), the same traffic
        round by round and, under STRICT, the same error."""
        from repro.butterfly.routing import CombiningRouter

        typed_runs = []
        real = CombiningRouter._run_typed

        def spy(router):
            typed_runs.append(router)
            return real(router)

        monkeypatch.setattr(CombiningRouter, "_run_typed", spy)
        rng = random.Random(f"router-{engine}-{mode.value}")
        axes = []
        for values in (
            (16, 64, 256),
            (1, 3, 1009),  # distinct ranks: 1 ties everything to the group id
            (False, True),  # target columns spread, or one shared column
            (0, -(2**30), 2**62, -(2**62)),  # group-id base
            (SUM, MIN, MAX, XOR),
        ):
            values = list(values)
            rng.shuffle(values)
            axes.append(values)
        for i in range(4):
            n, ranks, spread, gbase, fn = (a[i % len(a)] for a in axes)
            # Few groups, many packets each: same-group packets meet and
            # collapse mid-route; group ids fan out on both sides of gbase.
            groups = [gbase + rng.randrange(-40, 40) for _ in range(max(2, n // 16))]
            packets = [
                (rng.randrange(n), rng.choice(groups), rng.randrange(-1000, 1000))
                for _ in range(2 * n)
            ]
            outcomes = {}
            for typed in (True, False):
                for observe in (False, True):
                    extras = {"lightweight_sync": True}
                    if engine == "sharded":
                        extras["shard_cutoff"] = 1
                    rt = NCCRuntime(n, NCCConfig(
                        seed=i, enforcement=mode, engine=engine, shards=2,
                        extras=extras,
                    ))
                    columns = rt.bf.columns
                    traffic = []
                    if observe:
                        rt.net.round_observer = lambda r, per_sender: traffic.append([
                            (src, m.dst, tuple(m.payload))
                            for src, msgs in per_sender.items()
                            for m in msgs
                        ])
                    router = CombiningRouter(
                        rt.net,
                        rt.bf,
                        rank_of=lambda g: (g * 2654435761) % ranks,
                        target_col_of=(
                            (lambda g: (g * 40503) % columns)
                            if spread
                            else (lambda g: columns // 3)
                        ),
                        combine=fn.combine,
                        ufunc=fn.ufunc,
                    )
                    if typed:
                        router.inject_array(*zip(*packets))
                    else:
                        for col, g, v in packets:
                            router.inject(col, g, v)
                    try:
                        res = router.run()
                        out = (res.results, res.rounds, None)
                    except Exception as e:  # STRICT: the first violation
                        out = (None, None, (type(e).__name__, str(e)))
                    outcomes[typed, observe] = (
                        out, rt.net.stats.comparable(), traffic
                    )
            case = (n, ranks, spread, gbase, fn.name)
            for observe in (False, True):
                typed_out, obj_out = outcomes[True, observe], outcomes[False, observe]
                assert typed_out[0] == obj_out[0], case
                assert typed_out[1] == obj_out[1], case
                assert typed_out[2] == obj_out[2], case
        assert len(typed_runs) == 8

    def test_inject_array_validation(self, typed_on):
        rt = NCCRuntime(16, _config("batched"))
        router = self._router(rt.net, rt.bf, SUM)
        with pytest.raises(ValueError, match="column"):
            router.inject_array([999], [1], [2])
        with pytest.raises(ValueError, match="parallel"):
            router.inject_array([1, 2], [1], [2])
        router.inject_array([], [], [])  # empty is a no-op
        router.inject_array([0], [1], [2])
        router.run()
        with pytest.raises(ProtocolError):
            router.inject_array([0], [1], [2])

    def test_tree_recording_falls_back_to_object_path(self, typed_on):
        """record_trees is object-path-only; typed injections are boxed and
        the trees recorded match object injections exactly."""
        n = 16
        trees = {}
        for typed in (True, False):
            rt = NCCRuntime(n, _config("batched"))
            router = self._router(rt.net, rt.bf, SUM, record_trees=True)
            if typed:
                router.inject_array([0, 3, 9], [1, 1, 2], [5, 6, 7])
            else:
                for col, g, v in [(0, 1, 5), (3, 1, 6), (9, 2, 7)]:
                    router.inject(col, g, v)
            res = router.run()
            assert res.trees is not None
            trees[typed] = (
                sorted(res.trees.root.items()),
                sorted(
                    (g, sorted((p, tuple(c)) for p, c in kids.items()))
                    for g, kids in res.trees.children.items()
                ),
                res.results,
            )
        assert trees[True] == trees[False]


# ----------------------------------------------------------------------
# Whole-primitive equivalence + the zero-object acceptance gates
# ----------------------------------------------------------------------
def _aggregation_problem(n, rng):
    memberships = {
        u: {g: rng.randrange(-50, 500) for g in rng.sample(range(12), 3)}
        for u in range(n)
    }
    targets = {g: rng.randrange(n) for g in range(12)}
    return AggregationProblem(memberships, targets, SUM)


def _run_agg(n, problem, engine, typed, mode=Enforcement.COUNT):
    prev = set_typed_payloads(typed)
    try:
        rt = NCCRuntime(n, _config(engine, mode))
        m0, b0 = message_construction_count(), payload_box_count()
        out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
        return {
            "values": out.values,
            "by_target": out.by_target,
            "rounds": rt.net.round_index,
            "stats": rt.net.stats.comparable(),
            "constructed": message_construction_count() - m0,
            "boxed": payload_box_count() - b0,
        }
    finally:
        set_typed_payloads(prev)


class TestTypedAggregation:
    def test_typed_object_engines_all_agree(self):
        n = 32
        problem = _aggregation_problem(n, random.Random(4))
        runs = {
            (e, t): _run_agg(n, problem, e, t)
            for e in ENGINES
            for t in (True, False)
        }
        base = runs[("reference", False)]
        oracle = {}
        for u, gs in problem.memberships.items():
            for g, v in gs.items():
                oracle[g] = oracle.get(g, 0) + v
        assert base["values"] == oracle
        for key, run in runs.items():
            assert run["values"] == base["values"], key
            assert run["by_target"] == base["by_target"], key
            assert run["rounds"] == base["rounds"], key
            assert run["stats"] == base["stats"], key

    def test_typed_batched_run_constructs_nothing(self):
        """The acceptance gate: a whole typed aggregation under the batched
        engine constructs zero Message objects and zero payload boxes."""
        n = 64
        problem = _aggregation_problem(n, random.Random(9))
        run = _run_agg(n, problem, "batched", True)
        assert run["constructed"] == 0
        assert run["boxed"] == 0

    @pytest.mark.parametrize(
        "mode", tuple(Enforcement), ids=[m.value for m in Enforcement]
    )
    def test_typed_object_parity_all_modes(self, mode):
        n = 24
        problem = _aggregation_problem(n, random.Random(2))
        runs = {
            (e, t): _run_agg(n, problem, e, t, mode)
            for e in ENGINES
            for t in (True, False)
        }
        base = runs[("reference", False)]
        for key, run in runs.items():
            for fld in ("values", "by_target", "rounds", "stats"):
                assert run[fld] == base[fld], (key, fld)

    @pytest.mark.parametrize("fn", [MIN, MAX, XOR], ids=lambda f: f.name)
    def test_other_ufunc_aggregates(self, fn):
        n = 24
        rng = random.Random(8)
        memberships = {
            u: {g: rng.randrange(1, 1000) for g in rng.sample(range(6), 2)}
            for u in range(n)
        }
        problem = AggregationProblem(
            memberships, {g: g for g in range(6)}, fn
        )
        typed = _run_agg(n, problem, "batched", True)
        obj = _run_agg(n, problem, "batched", False)
        assert typed["values"] == obj["values"]
        assert typed["stats"] == obj["stats"]
        oracle = {}
        for u, gs in memberships.items():
            for g, v in gs.items():
                oracle[g] = fn.combine(oracle[g], v) if g in oracle else v
        assert typed["values"] == oracle

    def test_non_int_instances_keep_object_path(self):
        """String groups / tuple values can't ride int64 columns; the run
        falls back and still matches the oracle."""
        n = 16
        memberships = {
            u: {("g", u % 3): (u % 3, 1)} for u in range(n)
        }
        problem = AggregationProblem(
            memberships, {("g", i): i for i in range(3)}, xor_count
        )
        run = _run_agg(n, problem, "batched", True)
        oracle = {}
        for u, gs in memberships.items():
            for g, v in gs.items():
                oracle[g] = xor_count.combine(oracle[g], v) if g in oracle else v
        assert run["values"] == oracle

    def test_overflow_risk_keeps_object_path(self):
        """A SUM whose total absolute mass could exceed int64 must not use
        the typed kernel (reduceat would wrap); results stay exact."""
        n = 16
        big = 2**61
        memberships = {u: {0: big} for u in range(n)}
        problem = AggregationProblem(memberships, {0: 3}, SUM)
        run = _run_agg(n, problem, "batched", True)
        assert run["values"] == {0: n * big}  # exact, no int64 wrap

    def test_token_mode_keeps_object_path(self):
        """Without lightweight_sync the token wave shares rounds with data;
        typed flow must decline and results stay correct."""
        n = 16
        problem = _aggregation_problem(n, random.Random(5))
        outs = {}
        for typed in (True, False):
            prev = set_typed_payloads(typed)
            try:
                rt = NCCRuntime(n, _config("batched", lightweight=False))
                out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
                outs[typed] = (out.values, rt.net.round_index,
                               rt.net.stats.comparable())
            finally:
                set_typed_payloads(prev)
        assert outs[True] == outs[False]


class TestTypedMulticast:
    #: A bulk instance: n = 256 nodes in 128 groups of about four members.
    #: Its handoff, its larger spreading rounds and its leaf round carry at
    #: least SMALL_ROUND_CUTOFF messages, so they take the typed wire (a
    #: small instance's rounds all ship as objects).
    BULK_N = 256
    BULK_GROUPS = 128

    def _setup(self, rt, groups=5):
        memberships = {u: [u % groups, (u * 7) % groups] for u in range(rt.n)}
        return rt.multicast_setup(memberships), memberships

    def _bulk_packets(self, trees):
        live = [g for g in range(self.BULK_GROUPS) if g in trees.root]
        return {g: 1000 * g + 7 for g in live}, {g: (g + 3) % self.BULK_N for g in live}

    def test_int_packets_typed_object_agree(self):
        n = self.BULK_N
        runs = {}
        for engine in ENGINES:
            for typed in (True, False):
                prev = set_typed_payloads(typed)
                try:
                    rt = NCCRuntime(n, _config(engine))
                    trees, memberships = self._setup(rt, self.BULK_GROUPS)
                    packets, sources = self._bulk_packets(trees)
                    out = rt.multicast(trees, packets, sources)
                    runs[(engine, typed)] = (
                        list(out.received.items()),
                        rt.net.round_index,
                        rt.net.stats.comparable(),
                    )
                finally:
                    set_typed_payloads(prev)
        base = runs[("reference", False)]
        for key, run in runs.items():
            assert run == base, key
        received = dict(base[0])
        for u, gs in memberships.items():
            for g in gs:
                if g in packets:
                    assert received[u][g] == packets[g]

    def test_typed_batched_multicast_constructs_nothing(self):
        n = self.BULK_N
        prev = set_typed_payloads(True)
        try:
            rt = NCCRuntime(n, _config("batched"))
            trees, _ = self._setup(rt, self.BULK_GROUPS)
            packets, sources = self._bulk_packets(trees)
            typed_spans = []
            rt.net.round_observer = lambda _r, sub: typed_spans.extend(
                b.payload_array() is not None for b in sub.values()
            )
            m0, b0 = message_construction_count(), payload_box_count()
            rt.multicast(trees, packets, sources)
            assert message_construction_count() == m0
            assert payload_box_count() == b0
            assert any(typed_spans)  # the bulk rounds took the typed wire
        finally:
            set_typed_payloads(prev)

    def test_object_packets_still_work(self):
        n = 20
        prev = set_typed_payloads(True)
        try:
            rt = NCCRuntime(n, _config("batched"))
            trees, _ = self._setup(rt)
            out = rt.multicast(
                trees,
                {g: ("packet", g) for g in range(5)},
                {g: g for g in range(5)},
            )
            assert out.at(7)[7 % 5] == ("packet", 7 % 5)
        finally:
            set_typed_payloads(prev)
