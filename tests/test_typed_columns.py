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

import repro.ncc.message as message_mod
from repro.config import Enforcement, NCCConfig
from repro.errors import ProtocolError
from repro.ncc.message import (
    BatchBuilder,
    InboxBatch,
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

    def test_mixing_object_adds_degrades_all_groups(self, typed_on):
        b = BatchBuilder(kind="t", dtype=np.int64)
        b.add_array(0, [1, 2], [5, 6])
        boxes = payload_box_count()
        b.add(3, 4, ("obj", 1))  # degrades the typed groups
        assert payload_box_count() - boxes == 2
        assert b._dtype is None
        assert len(b) == 3

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

    def test_numpy_free_declaration_degrades(self, monkeypatch, typed_on):
        monkeypatch.setattr(message_mod, "_np", None)
        b = BatchBuilder(dtype="i8")
        assert b._dtype is None
        b.add(0, 1, 42)
        assert len(b) == 1


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

    def test_typed_bits_agg_matches_object(self, typed_on):
        """Delivered typed spans aggregate receive-side bits identically to
        boxed payloads (the enforcement paths consume bits_agg)."""
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
    def _setup(self, rt):
        memberships = {u: [u % 5, (u * 7) % 5] for u in range(rt.n)}
        return rt.multicast_setup(memberships), memberships

    def test_int_packets_typed_object_agree(self):
        n = 32
        runs = {}
        for engine in ENGINES:
            for typed in (True, False):
                prev = set_typed_payloads(typed)
                try:
                    rt = NCCRuntime(n, _config(engine))
                    trees, memberships = self._setup(rt)
                    out = rt.multicast(
                        trees,
                        {g: 1 << g for g in range(5)},
                        {g: g + 3 for g in range(5)},
                    )
                    runs[(engine, typed)] = (
                        out.received,
                        rt.net.round_index,
                        rt.net.stats.comparable(),
                    )
                finally:
                    set_typed_payloads(prev)
        base = runs[("reference", False)]
        for key, run in runs.items():
            assert run == base, key
        received, _, _ = base
        for u, gs in (
            (u, set(ms)) for u, ms in
            ((u, [u % 5, (u * 7) % 5]) for u in range(n))
        ):
            for g in gs:
                assert received[u][g] == 1 << g

    def test_typed_batched_multicast_constructs_nothing(self):
        n = 32
        prev = set_typed_payloads(True)
        try:
            rt = NCCRuntime(n, _config("batched"))
            trees, _ = self._setup(rt)
            m0 = message_construction_count()
            rt.multicast(
                trees, {g: g + 10 for g in range(5)}, {g: g for g in range(5)}
            )
            assert message_construction_count() == m0
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
