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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.butterfly.routing import DATA_DTYPE
from repro.config import Enforcement, NCCConfig
from repro.errors import ProtocolError
from repro.ncc.message import (
    RADIX_SORT_CUTOFF,
    SMALL_ROUND_CUTOFF,
    BatchBuilder,
    InboxBatch,
    RoundInbox,
    gather_typed_spans,
    message_construction_count,
    payload_bits,
    payload_box_count,
    set_typed_payloads,
    stable_id_order,
    typed_payload_bits,
    typed_payloads_enabled,
    typed_round_pays,
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

    def test_float_rounding_band_matches_scalar_rule(self):
        """From 2**53 up a magnitude can round to the next power of two as
        a float64.  ``2**k + d`` for k = 53..63 and |d| <= 1,024, both
        signs, and -2**63 size like the scalar rule: in a contiguous int64
        column, and in the strided int fields of the router's and the
        aggregation's wire structs."""
        values = [-(2**63)]
        for k in range(53, 64):
            for d in range(-1024, 1025):
                for v in (2**k + d, -(2**k + d)):
                    if -(2**63) <= v < 2**63:
                        values.append(v)
        col = np.asarray(values, dtype=np.int64)
        assert typed_payload_bits(col).tolist() == [payload_bits(v) for v in values]
        for dtype in (DATA_DTYPE, INJECT_DTYPE):
            rows = np.zeros(len(values), dtype=dtype)
            rows["tag"] = "X"
            fields = [name for name in dtype.names if dtype[name].kind == "i"]
            for shift, name in enumerate(fields):
                rows[name] = np.roll(col, shift)
                field = rows[name]
                assert not field.flags.c_contiguous
                assert typed_payload_bits(field).tolist() == [
                    payload_bits(v) for v in field.tolist()
                ]
            assert typed_payload_bits(rows).tolist() == [
                payload_bits(r) for r in rows.tolist()
            ]


# ----------------------------------------------------------------------
# Ordering node-id columns
# ----------------------------------------------------------------------
#: Spans (max - min) around the ordering paths: the uint16 radix sort
#: below 2**16, numpy's stable sort of the int64 column from 2**16 up (spans
#: below 2**32 and of 2**32 or more both take it).
_SPANS = (0, 1, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1)
_LENGTHS = (0, 1, 2, RADIX_SORT_CUTOFF - 1, RADIX_SORT_CUTOFF, 65_536)
_SHAPES = ("random", "ascending", "descending", "equal", "duplicates")


def _id_column(length, span, lo, shape, seed):
    """An int64 column of ``length`` ids in ``[lo, lo + span]``; with two
    or more ids (and unless all are equal) both ends of the span occur."""
    rng = np.random.default_rng(seed)
    off = rng.integers(0, span, size=length, dtype=np.uint64, endpoint=True)
    if shape == "equal":
        off[:] = off[:1]
    else:
        if shape == "duplicates" and length:
            off = rng.choice(off[:3], size=length)
        if length >= 2:
            off[rng.choice(length, 2, replace=False)] = (0, span)
    # uint64 arithmetic wraps, so this is lo + off in two's complement.
    ids = (off + np.uint64(lo % 2**64)).view(np.int64)
    if shape == "ascending":
        ids.sort()
    elif shape == "descending":
        ids = np.sort(ids)[::-1]
    return ids


@st.composite
def _id_columns(draw):
    span = draw(st.one_of(st.sampled_from(_SPANS), st.integers(0, 2**64 - 1)))
    top = 2**63 - 1 - span  # the highest lo that keeps every id in int64
    corners = [c for c in (-(2**63), -span - 1, 0, top) if -(2**63) <= c <= top]
    lo = draw(st.one_of(st.sampled_from(corners), st.integers(-(2**63), top)))
    return _id_column(
        draw(st.sampled_from(_LENGTHS)),
        span,
        lo,
        draw(st.sampled_from(_SHAPES)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestStableIdOrder:
    @settings(max_examples=150, deadline=None)
    @given(_id_columns())
    @example(_id_column(65_536, 8191, 0, "ascending", 0))
    @example(_id_column(65_536, 8191, 0, "random", 0))
    @example(_id_column(RADIX_SORT_CUTOFF, 2**16, -(2**40), "random", 1))
    @example(_id_column(RADIX_SORT_CUTOFF, 2**32 - 1, -(2**31), "duplicates", 2))
    @example(_id_column(RADIX_SORT_CUTOFF, 2**64 - 1, -(2**63), "descending", 3))
    @example(_id_column(RADIX_SORT_CUTOFF - 1, 2**64 - 1, -(2**63), "random", 4))
    def test_equals_numpy_stable_argsort(self, ids):
        """The permutation is numpy's stable argsort element for element,
        and ``None`` (the identity) exactly when the column ascends."""
        want = np.argsort(ids, kind="stable")
        got = stable_id_order(ids)
        ascending = np.array_equal(want, np.arange(len(ids)))
        assert (got is None) == ascending
        if got is not None:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


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


class TestColumnOwnership:
    @pytest.mark.parametrize("layout", ("ascending", "shuffled"))
    def test_delivered_round_never_aliases_submitted_columns(self, layout, typed_on):
        """A typed builder keeps ascending submitted columns as given, yet
        no engine's delivered round aliases them: overwriting the caller's
        arrays after the exchange changes neither the inbox nor its
        gathered columns.  2,048 messages take the radix ordering when
        shuffled; every engine delivers the same round."""
        n = 1024
        src = np.repeat(np.arange(n // 2, dtype=np.int64), 4)
        dst = src + n // 2
        values = src * 1000 + np.tile(np.arange(4), n // 2)
        if layout == "shuffled":
            perm = np.random.default_rng(0).permutation(len(src))
            src, dst, values = src[perm], dst[perm], values[perm]
        assert len(src) >= RADIX_SORT_CUTOFF
        assert (stable_id_order(src) is None) == (layout == "ascending")
        assert (stable_id_order(dst) is None) == (layout == "ascending")

        def read(inbox):
            """Every delivered message, read off the columns (a column read
            caches nothing that could hide a later change)."""
            gathered = gather_typed_spans(inbox)
            if gathered is not None:
                gathered = [col.tolist() for col in gathered]
            return [
                (host, rec.srcs(), rec.payloads())
                if type(rec) is InboxBatch
                else (host, [m.src for m in rec], [m.payload for m in rec])
                for host, rec in inbox.items()
            ], gathered

        delivered = {}
        for engine in ("reference", "batched", "sharded"):
            mine = [col.copy() for col in (src, dst, values)]
            b = BatchBuilder(kind="t", dtype=np.int64)
            b.add_arrays(*mine)
            if layout == "ascending":
                _, _, kept_dst, kept_values, _ = b._typed_round()
                assert kept_dst is mine[1] and kept_values is mine[2]
            net = NCCNetwork(n, _engine_config(engine))
            inbox = net.exchange(b)
            assert net.stats.violation_count == 0
            before = read(inbox)
            for col in mine:
                col[:] = -1
            assert read(inbox) == before
            if engine != "reference":
                assert type(inbox) is RoundInbox and before[1] is not None
            delivered[engine] = before[0]
        assert delivered["batched"] == delivered["sharded"] == delivered["reference"]


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
        range, group-id density and ufunc: typed and object injection give
        the same results, rounds, stats (violation ledger order included),
        the same traffic round by round and, under STRICT, the same error.
        Dense ids map arrivals through the kernel's id table, ids spread
        past the packet count through its binary search; both run."""
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
            (1, 2**20),  # group-id stride: dense ids, or spread far apart
        ):
            values = list(values)
            rng.shuffle(values)
            axes.append(values)
        densities = set()
        for i in range(4):
            n, ranks, spread, gbase, fn, stride = (a[i % len(a)] for a in axes)
            # Few groups, many packets each: same-group packets meet and
            # collapse mid-route; group ids fan out on both sides of gbase.
            groups = [
                gbase + stride * rng.randrange(-40, 40) for _ in range(max(2, n // 16))
            ]
            packets = [
                (rng.randrange(n), rng.choice(groups), rng.randrange(-1000, 1000))
                for _ in range(2 * n)
            ]
            ids = [g for _, g, _ in packets]
            densities.add(max(ids) - min(ids) < len(packets))
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
            case = (n, ranks, spread, gbase, fn.name, stride)
            for observe in (False, True):
                typed_out, obj_out = outcomes[True, observe], outcomes[False, observe]
                assert typed_out[0] == obj_out[0], case
                assert typed_out[1] == obj_out[1], case
                assert typed_out[2] == obj_out[2], case
        assert len(typed_runs) == 8
        assert densities == {True, False}

    @pytest.mark.engine("reference")  # drives all three engines itself
    @pytest.mark.parametrize("stride", (1, 2**20), ids=("dense", "sparse"))
    @pytest.mark.parametrize("engine", ("reference", "batched", "sharded"))
    def test_typed_kernel_matches_object_loop_under_starved_drop(
        self, engine, stride, monkeypatch, typed_on
    ):
        """DROP at an eighth of the default capacity: cross packets over a
        node's capacity are dropped, and a group whose every packet was
        dropped has no result.  Typed and object injection drop the
        same packets and give the same results, rounds and stats."""
        from repro.butterfly.routing import CombiningRouter

        typed_runs = []
        real = CombiningRouter._run_typed

        def spy(router):
            typed_runs.append(router)
            return real(router)

        monkeypatch.setattr(CombiningRouter, "_run_typed", spy)
        n = 64
        rng = random.Random(f"starved-{engine}-{stride}")
        groups = [stride * g for g in range(3 * n)]  # one packet each
        packets = [(rng.randrange(n), g, rng.randrange(-1000, 1000)) for g in groups]
        outcomes = {}
        for typed in (True, False):
            extras = {"lightweight_sync": True}
            if engine == "sharded":
                extras["shard_cutoff"] = 1
            rt = NCCRuntime(n, NCCConfig(
                seed=5, enforcement=Enforcement.DROP, engine=engine, shards=2,
                capacity_multiplier=0.5, extras=extras,
            ))
            router = self._router(rt.net, rt.bf, SUM)
            if typed:
                router.inject_array(*zip(*packets))
            else:
                for col, g, v in packets:
                    router.inject(col, g, v)
            res = router.run()
            outcomes[typed] = (res.results, res.rounds, rt.net.stats.comparable())
            assert rt.net.stats.dropped > 0
        assert len(typed_runs) == 1
        assert outcomes[True] == outcomes[False]
        assert len(outcomes[True][0]) < len(groups)  # some groups were lost whole

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
    def test_typed_object_engines_all_agree(self, kernel_runs):
        n = 48
        problem = _aggregation_problem(n, random.Random(4))
        assert problem.global_load() >= SMALL_ROUND_CUTOFF
        runs = {
            (e, t): _run_agg(n, problem, e, t)
            for e in ENGINES
            for t in (True, False)
        }
        # The kernel routed every typed-on run, and only those.
        assert len(kernel_runs) == len(ENGINES)
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
    def test_typed_object_parity_all_modes(self, mode, kernel_runs):
        n = 48
        problem = _aggregation_problem(n, random.Random(2))
        assert problem.global_load() >= SMALL_ROUND_CUTOFF
        runs = {
            (e, t): _run_agg(n, problem, e, t, mode)
            for e in ENGINES
            for t in (True, False)
        }
        assert len(kernel_runs) == len(ENGINES)
        base = runs[("reference", False)]
        for key, run in runs.items():
            for fld in ("values", "by_target", "rounds", "stats"):
                assert run[fld] == base[fld], (key, fld)

    @pytest.mark.engine("reference")  # drives both engines itself
    @pytest.mark.parametrize("ell2_bound", (120, 1), ids=("window20", "window1"))
    def test_typed_object_parity_under_starved_drop(self, ell2_bound, monkeypatch):
        """DROP at half the default capacity drops injection and combining
        packets; the typed flow (kernel included) and the object flow lose
        the same ones on both engines.  A 20-round delivery window keeps
        the delivery under capacity; a one-round window overloads some
        senders, and as both flows list a sender's results in group order,
        they keep the same results there too (before the flows kept one
        result order, 8 of the 87 delivered groups differed).  Every run
        records the same outcome, order included, with the same rounds and
        stats."""
        from repro.butterfly.routing import CombiningRouter

        lost_in_kernel, routed = [], []
        real_run, real_typed = CombiningRouter.run, CombiningRouter._run_typed

        def run(router):
            res = real_run(router)
            routed.append(len(res.results))
            return res

        def run_typed(router):
            injected = len(np.unique(np.concatenate(router._typed_cols[1])))
            res = real_typed(router)
            lost_in_kernel.append(injected - len(res.columns[0]))
            return res

        monkeypatch.setattr(CombiningRouter, "run", run)
        monkeypatch.setattr(CombiningRouter, "_run_typed", run_typed)
        n = 64
        rng = random.Random(0)
        memberships = {
            u: {g: rng.randrange(-50, 500) for g in rng.sample(range(3 * n), 3)}
            for u in range(n)
        }
        targets = {g: rng.randrange(n) for g in range(3 * n)}
        problem = AggregationProblem(memberships, targets, SUM, ell2_bound=ell2_bound)
        runs = {}
        for engine in ENGINES:
            for typed in (True, False):
                prev = set_typed_payloads(typed)
                try:
                    rt = NCCRuntime(n, NCCConfig(
                        seed=3, enforcement=Enforcement.DROP, engine=engine,
                        capacity_multiplier=0.5,
                        extras={"lightweight_sync": True},
                    ))
                    out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
                finally:
                    set_typed_payloads(prev)
                assert rt.net.stats.dropped > 0
                # Only the one-round window drops routed results in delivery.
                assert (len(out.values) < routed[-1]) is (ell2_bound == 1)
                runs[engine, typed] = (
                    list(out.values.items()),
                    [(t, list(vals.items())) for t, vals in out.by_target.items()],
                    out.rounds,
                    rt.net.stats.comparable(),
                )
        base = runs["reference", False]
        for key, run_ in runs.items():
            assert run_ == base, key
        # On each engine the kernel ran and lost some group's every packet.
        assert len(lost_in_kernel) == len(ENGINES) and min(lost_in_kernel) > 0

    @pytest.mark.parametrize("fn", [MIN, MAX, XOR], ids=lambda f: f.name)
    def test_other_ufunc_aggregates(self, fn, kernel_runs):
        n = 64  # 128 packets
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
        assert len(kernel_runs) == 1
        assert typed["values"] == obj["values"]
        assert typed["stats"] == obj["stats"]
        oracle = {}
        for u, gs in memberships.items():
            for g, v in gs.items():
                oracle[g] = fn.combine(oracle[g], v) if g in oracle else v
        assert typed["values"] == oracle

    def test_non_int_instances_keep_object_path(self, kernel_runs):
        """String groups / tuple values can't ride int64 columns; the run
        falls back, though it is large enough for the typed flow, and
        still matches the oracle."""
        n = 16
        memberships = {
            u: {("g", (u + k) % 12): (k % 3, 1) for k in range(8)} for u in range(n)
        }
        problem = AggregationProblem(
            memberships, {("g", i): i for i in range(12)}, xor_count
        )
        assert typed_round_pays(problem.global_load())
        run = _run_agg(n, problem, "batched", True)
        assert not kernel_runs
        oracle = {}
        for u, gs in memberships.items():
            for g, v in gs.items():
                oracle[g] = xor_count.combine(oracle[g], v) if g in oracle else v
        assert run["values"] == oracle

    def test_overflow_risk_keeps_object_path(self, kernel_runs):
        """A SUM whose total absolute mass could exceed int64 must not use
        the typed kernel (reduceat would wrap), however large the
        instance; results stay exact."""
        n = 16
        big = 2**61
        memberships = {u: {g: big for g in range(8)} for u in range(n)}
        problem = AggregationProblem(memberships, {g: g + 3 for g in range(8)}, SUM)
        assert typed_round_pays(problem.global_load())
        run = _run_agg(n, problem, "batched", True)
        assert not kernel_runs
        assert run["values"] == {g: n * big for g in range(8)}  # exact, no int64 wrap

    @staticmethod
    def _flows(problem, kernel_runs, n=16):
        """One run per flow setting: typed payloads on (the flow the run
        admits) and off (the object flow).  Returns both outcomes and
        whether the typed kernel ran with typed payloads on."""
        outs = {}
        for typed in (True, False):
            prev = set_typed_payloads(typed)
            try:
                rt = NCCRuntime(n, _config("batched"))
                out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
            finally:
                set_typed_payloads(prev)
            outs[typed] = (
                list(out.values.items()),
                [(t, list(vals.items())) for t, vals in out.by_target.items()],
                out.rounds,
                rt.net.stats.comparable(),
            )
        return outs[True], outs[False], bool(kernel_runs)

    @pytest.mark.parametrize("mass, typed", [(2**62 - 1, True), (2**62, False)])
    def test_sum_mass_boundary(self, mass, typed, kernel_runs):
        """A SUM is typed only while its total absolute mass (negative
        values counted by size) stays below 2^62."""
        n = 16
        # 128 packets: group 0 carries the mass, groups 1..7 the 0..15.
        memberships = {u: {0: 2**57, **{g: u for g in range(1, 8)}} for u in range(n)}
        memberships[3][0] = -(2**57)
        # 15·2^57 + seven times the 0..15 + the rest: `mass` in all.
        memberships[n - 1][0] = mass - 15 * 2**57 - 7 * sum(range(n))
        problem = AggregationProblem(memberships, {g: g + 2 for g in range(8)}, SUM)
        on, off, kernel_ran = self._flows(problem, kernel_runs, n)
        assert kernel_ran is typed
        assert on == off
        assert dict(on[0]) == {
            0: sum(m[0] for m in memberships.values()),
            **{g: sum(range(n)) for g in range(1, 8)},
        }

    @pytest.mark.parametrize(
        "last", [7, True, 1.5, 2**62, -(2**62), "group"],
        ids=["int", "bool", "float", "2^62", "-2^62", "group-2^62"],
    )
    def test_one_untyped_packet_in_the_last_node(self, last, kernel_runs):
        """A bool, float or out-of-range value (or group id) in one packet
        of the last node alone keeps the whole 128-packet run on the object
        flow, with the outcome of the object flow; a plain int there keeps
        it typed."""
        n = 16
        memberships = {u: {(u + k) % 32: u + k for k in range(8)} for u in range(n)}
        targets = {g: g % n for g in range(32)}
        if last == "group":
            del memberships[n - 1][(n - 1) % 32]
            memberships[n - 1][2**62] = 3
            targets[2**62] = 1
        else:
            memberships[n - 1][(n - 1) % 32] = last
        problem = AggregationProblem(memberships, targets, SUM)
        on, off, kernel_ran = self._flows(problem, kernel_runs, n)
        assert kernel_ran is (last == 7)
        assert on == off

    def test_missing_target_raises_before_any_round(self):
        n = 16
        memberships = {u: {u % 4: 1} for u in range(n)}
        memberships[n - 1] = {3: 1, 99: 1}
        problem = AggregationProblem(memberships, {g: g for g in range(4)}, SUM)
        rt = NCCRuntime(n, _config("batched"))
        with pytest.raises(ValueError, match=r"group 99 \(member 15\) has no target"):
            run_aggregation(rt.net, rt.bf, rt.shared, problem)
        assert rt.net.round_index == 0
        assert rt.net.stats.phases == {}
        assert rt.shared.agreement_bits == 0

    def test_token_mode_keeps_object_path(self, kernel_runs):
        """Without lightweight_sync the token wave shares rounds with data;
        typed flow must decline, however large the instance, and results
        stay correct."""
        n = 48
        problem = _aggregation_problem(n, random.Random(5))
        assert typed_round_pays(problem.global_load())
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
        assert not kernel_runs
        assert outs[True] == outs[False]

    @pytest.mark.parametrize("packets", (SMALL_ROUND_CUTOFF - 1, SMALL_ROUND_CUTOFF))
    def test_small_instance_takes_the_object_flow(self, packets, kernel_runs):
        """Size picks the flow: below SMALL_ROUND_CUTOFF packets a typed-on
        run takes the object flow, and from it up the typed flow; the
        outcome is the object flow's either way."""
        n = 16
        memberships = {u: {(u + k) % 32: u - k for k in range(8)} for u in range(n)}
        if packets < SMALL_ROUND_CUTOFF:
            del memberships[0][0]
        problem = AggregationProblem(memberships, {g: g % n for g in range(32)}, SUM)
        assert problem.global_load() == packets
        on, off, kernel_ran = self._flows(problem, kernel_runs, n)
        assert kernel_ran is (packets >= SMALL_ROUND_CUTOFF)
        assert on == off

    @pytest.mark.engine("reference")  # drives both engines itself
    @pytest.mark.parametrize("kernel", (True, False), ids=("kernel", "declined"))
    def test_bulk_run_matches_reference_round_by_round(
        self, kernel, monkeypatch, typed_on
    ):
        """n = 1024: the batched engine reads each injection round whole
        (one ``inject_array`` per round, receivers by ascending host), the
        reference engine receiver by receiver.  Both submit the same rounds
        and give the same stats, ``values`` and ``by_target``, insertion
        order included, whether the typed kernel routes or declines."""
        from repro.butterfly.routing import CombiningRouter

        n = 1024
        rng = random.Random(1024)
        # Up to 13 memberships (two injection rounds at batch 10) and 16
        # targets for 512 groups (a four-round delivery window).
        memberships = {
            u: {
                g: rng.randrange(-500, 500)
                for g in rng.sample(range(512), rng.randrange(1, 14))
            }
            for u in range(n)
        }
        problem = AggregationProblem(memberships, {g: g % 16 for g in range(512)}, SUM)
        real_run, real_typed = CombiningRouter.run, CombiningRouter._run_typed
        real_inject = CombiningRouter.inject_array
        kernel_runs, injections = [], []

        def run(router):
            if not kernel:
                router.ufunc = None  # the kernel declines; the object loop routes
            return real_run(router)

        def run_typed(router):
            kernel_runs.append(router)
            return real_typed(router)

        def inject_array(router, *cols):
            injections.append(len(cols[0]))
            return real_inject(router, *cols)

        monkeypatch.setattr(CombiningRouter, "run", run)
        monkeypatch.setattr(CombiningRouter, "_run_typed", run_typed)
        monkeypatch.setattr(CombiningRouter, "inject_array", inject_array)
        runs = {}
        for engine in ENGINES:
            rt = NCCRuntime(n, _config(engine))
            traffic = []
            rt.net.round_observer = lambda r, per_sender: traffic.append([
                (src, m.dst, m.payload.tolist() if hasattr(m.payload, "tolist") else m.payload)
                for src, msgs in per_sender.items()
                for m in msgs
            ])
            del injections[:]
            out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
            rt.net.round_observer = None
            runs[engine] = (
                traffic,
                rt.net.stats.comparable(),
                list(out.values.items()),
                [(t, list(vals.items())) for t, vals in out.by_target.items()],
                list(injections),
            )
        ref, bat = runs["reference"], runs["batched"]
        assert len(kernel_runs) == (2 if kernel else 0)
        assert bat[0] == ref[0]
        assert bat[1] == ref[1]
        assert bat[2] == ref[2]
        assert bat[3] == ref[3]
        expected: dict[int, int] = {}
        for groups in memberships.values():
            for g, v in groups.items():
                expected[g] = expected.get(g, 0) + v
        assert dict(bat[2]) == expected
        # One call per injection round on batched, one per receiver on
        # the reference engine; the same packets either way.
        assert len(bat[4]) == 2 and sum(bat[4]) == sum(ref[4])
        assert len(ref[4]) > 2

    @pytest.mark.engine("reference")  # drives both engines itself
    @pytest.mark.parametrize("ell2_bound", (None, 40), ids=("window1", "window5"))
    @pytest.mark.parametrize("typed", (True, False), ids=("typed", "object"))
    def test_delivery_order_matches_reference(self, typed, ell2_bound):
        """Result delivery: the batched engine's rounds read as whole
        columns, the reference engine's receiver by receiver.  Both give
        the same ``values`` and ``by_target``, insertion order included,
        and the same rounds, messages and bits, in a one-round window and
        in a five-round one.  coloring and matching iterate
        ``outcome.values``, so this order reaches canonical output."""
        n = 512  # log2 n = 9: six groups per target fit a one-round window
        rng = random.Random(512)
        hosts = [t for t in rng.sample(range(n), 64) for _ in range(6)]
        rng.shuffle(hosts)
        memberships = {
            u: {g: rng.randrange(-500, 500) for g in rng.sample(range(384), 3)}
            for u in range(n)
        }
        problem = AggregationProblem(
            memberships, dict(enumerate(hosts)), SUM, ell2_bound=ell2_bound
        )
        runs = {}
        for engine in ENGINES:
            prev = set_typed_payloads(typed)
            try:
                rt = NCCRuntime(n, _config(engine))
                out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
            finally:
                set_typed_payloads(prev)
            runs[engine] = (
                list(out.values.items()),
                [(t, list(vals.items())) for t, vals in out.by_target.items()],
                out.rounds,
                rt.net.stats.messages,
                rt.net.stats.bits,
            )
        assert runs["batched"] == runs["reference"]
        expected: dict[int, int] = {}
        for groups in memberships.values():
            for g, v in groups.items():
                expected[g] = expected.get(g, 0) + v
        values = runs["batched"][0]
        assert dict(values) == expected
        # Neither order is the trivial one.
        assert [g for g, _ in values] != sorted(expected)
        assert [t for t, _ in runs["batched"][1]] != sorted(set(hosts))


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
