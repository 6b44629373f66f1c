"""Differential parity harness: reference vs batched vs sharded engine.

The round engines must be *observably indistinguishable* — same algorithm
outputs, same round counts, same statistics (including the exact violation
ledger order), same delivered inboxes (content, list order, and dict
insertion order), same exceptions, and same DROP-rng draws.  This module
enforces that two ways:

* every algorithm in :mod:`repro.algorithms` runs on seeded random graphs
  under both engines in all three :class:`~repro.config.Enforcement` modes;
* a seeded fuzzer replays raw (including deliberately violating and
  malformed) exchange rounds under both engines.

Any future engine must be added to ``ENGINES`` here; any change that makes
the engines distinguishable is a bug, regardless of which engine is
"right" (see ROADMAP.md, "Engine selection").
"""

from __future__ import annotations

import random
from collections.abc import Mapping

import numpy as np
import pytest

from repro import Enforcement, NCCConfig, NCCRuntime, ReproError
from repro.errors import SimulationLimitError
from repro.graphs import generators
from repro.registry import iter_algorithms
from repro.ncc.batched import SMALL_ROUND_CUTOFF
from repro.ncc.message import (
    BatchBuilder,
    InboxBatch,
    Message,
    RoundInbox,
    message_construction_count,
    payload_box_count,
    set_typed_payloads,
)
from repro.ncc.network import NCCNetwork
from repro.telemetry.tracer import tracing

ENGINES = ("reference", "batched", "sharded")
MODES = tuple(Enforcement)
N = 20
SEED = 7


def _engine_cfg(engine: str, **kw) -> NCCConfig:
    """Config for one engine under differential replay.  The sharded
    engine gets a worker count and a round cutoff of 1 so even these tiny
    rounds take the real distributed block shuffle instead of inheriting
    the batched delivery wholesale."""
    if engine == "sharded":
        extras = dict(kw.pop("extras", None) or {})
        extras.setdefault("shard_cutoff", 1)
        return NCCConfig(engine=engine, shards=3, extras=extras, **kw)
    return NCCConfig(engine=engine, **kw)


def _assert_parity(outcomes):
    """Every engine's captured observables must equal the reference's."""
    base = outcomes["reference"]
    for engine, got in outcomes.items():
        assert got == base, f"engine {engine!r} diverged from reference"


def _graph():
    return generators.forest_union(N, 2, seed=3)


# Algorithm discovery goes through the registry: every spec that supports
# the differential harness replays on its canonical workload at
# (n, a, seed) = (N, 2, 3) — exactly the instances the hand-maintained dict
# used to build (``parity=`` overrides on a spec reproduce the composite
# observables, e.g. identification's sorted red-edge tuples).  A new
# algorithm module only has to register itself to be covered here.
ALGORITHMS = {
    spec.name: (lambda s: (lambda rt: s.parity_run(rt, n=N, a=2, seed=3)))(spec)
    for spec in iter_algorithms()
    if spec.supports_parity
}

#: the registry must keep covering at least the historical harness set.
_EXPECTED = {
    "mst",
    "components",
    "orientation",
    "identification",
    "broadcast_trees",
    "bfs",
    "mis",
    "matching",
    "coloring",
}
assert _EXPECTED <= set(ALGORITHMS), sorted(_EXPECTED - set(ALGORITHMS))


def _execute(engine: str, mode: Enforcement, run):
    """Run one algorithm under one engine; capture every observable."""
    cfg = _engine_cfg(
        engine,
        seed=SEED,
        enforcement=mode,
        extras={"lightweight_sync": True},
    )
    rt = NCCRuntime(N, cfg)
    result = error = None
    try:
        result = run(rt)
    except ReproError as e:  # STRICT may legitimately raise; must match too
        error = (type(e).__name__, str(e))
    return {
        "result": result,
        "error": error,
        "rounds": rt.net.round_index,
        "stats": rt.net.stats.comparable(),
    }


@pytest.mark.engine("reference")  # runs both engines itself; skip replays
class TestAlgorithmParity:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_algorithm_indistinguishable(self, name, mode):
        runs = {e: _execute(e, mode, ALGORITHMS[name]) for e in ENGINES}
        ref = runs["reference"]
        for engine in ENGINES[1:]:
            got = runs[engine]
            assert ref["error"] == got["error"], engine
            assert ref["result"] == got["result"], engine
            assert ref["rounds"] == got["rounds"], engine
            assert ref["stats"] == got["stats"], engine


# ----------------------------------------------------------------------
# Primitive-level parity: every primitive that submits columnar
# ----------------------------------------------------------------------
# All primitives build columnar submissions via BatchBuilder instead of
# per-message Message lists; each one must stay observably identical under
# both engines in every enforcement mode.
def _memberships(rt):
    rng = random.Random(11)
    return {u: rng.sample(range(6), 2) for u in range(rt.n)}


def _run_aggregation(rt):
    from repro.primitives import SUM, AggregationProblem

    rng = random.Random(5)
    prob = AggregationProblem(
        memberships={u: {g: u for g in rng.sample(range(8), 3)} for u in range(rt.n)},
        targets={g: g for g in range(8)},
        fn=SUM,
    )
    out = rt.aggregation(prob)
    return (sorted(out.values.items()), sorted(out.by_target.items()), out.rounds)


def _run_multicast_setup(rt):
    trees = rt.multicast_setup(_memberships(rt))
    return (
        sorted(trees.root.items()),
        sorted((g, sorted(m.items())) for g, m in trees.leaf_members.items()),
        trees.congestion(),
        trees.member_load(),
    )


def _run_multicast(rt):
    trees = rt.multicast_setup(_memberships(rt))
    out = rt.multicast(
        trees, {g: (g, g + 100) for g in range(6)}, {g: g for g in range(6)}
    )
    return (sorted((u, sorted(p.items())) for u, p in out.received.items()), out.rounds)


def _run_multi_aggregation(rt):
    from repro.primitives import MIN

    trees = rt.multicast_setup(_memberships(rt))
    out = rt.multi_aggregation(
        trees, {g: g for g in range(6)}, {g: g for g in range(6)}, MIN
    )
    return (sorted(out.values.items()), out.rounds)


def _run_multi_aggregation_keyed(rt):
    from repro.primitives import MIN

    trees = rt.multicast_setup(_memberships(rt))
    out = rt.multi_aggregation(
        trees,
        {g: g for g in range(6)},
        {g: g for g in range(6)},
        MIN,
        annotate=lambda rng, g, member, payload: (rng.randrange(100), payload),
        result_key=lambda g: g % 2,
    )
    return (
        sorted((u, sorted(kv.items())) for u, kv in out.keyed.items()),
        out.rounds,
    )


def _run_aggregate_broadcast(rt):
    from repro.primitives import SUM

    total = rt.aggregate_and_broadcast({u: u + 1 for u in range(rt.n)}, SUM)
    return (total, rt.net.round_index)


def _run_pipelined_broadcast(rt):
    rec = rt.pipelined_broadcast(list(range(30)), src=3)
    return (sorted(rec.items()), rt.net.round_index)


def _run_gather(rt):
    items = {u: ("item", u) for u in range(0, rt.n, 3)}
    return (rt.gather_to_root(items), rt.net.round_index)


def _run_direct(rt):
    from repro.primitives.direct import send_direct, spread_exchange

    rng = random.Random(2)
    sends = [(u, (u * 7 + i) % rt.n, (u, i)) for u in range(rt.n) for i in range(3)]
    inbox = send_direct(rt.net, sends)
    spread = spread_exchange(rt.net, sends, 4, rng=rng)
    return (
        [(d, msgs) for d, msgs in inbox.items()],
        [(d, msgs) for d, msgs in spread.items()],
        rt.net.round_index,
    )


PRIMITIVES = {
    "aggregation": _run_aggregation,
    "multicast_setup": _run_multicast_setup,
    "multicast": _run_multicast,
    "multi_aggregation": _run_multi_aggregation,
    "multi_aggregation_keyed": _run_multi_aggregation_keyed,
    "aggregate_broadcast": _run_aggregate_broadcast,
    "pipelined_broadcast": _run_pipelined_broadcast,
    "gather_to_root": _run_gather,
    "direct": _run_direct,
}


@pytest.mark.engine("reference")  # runs both engines itself; skip replays
class TestPrimitiveParity:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_primitive_indistinguishable(self, name, mode):
        runs = {e: _execute(e, mode, PRIMITIVES[name]) for e in ENGINES}
        ref = runs["reference"]
        for engine in ENGINES[1:]:
            got = runs[engine]
            assert ref["error"] == got["error"], engine
            assert ref["result"] == got["result"], engine
            assert ref["rounds"] == got["rounds"], engine
            assert ref["stats"] == got["stats"], engine


# ----------------------------------------------------------------------
# Typed-vs-object representation parity
# ----------------------------------------------------------------------
# Payload columns with a declared dtype must be a pure representation
# change: toggling typed payloads off (forcing the object path everywhere)
# may not shift a single observable, under either engine, in any mode.
def _run_multicast_int(rt):
    # Plain-int packets: the instance the typed multicast wire accepts.
    trees = rt.multicast_setup(_memberships(rt))
    out = rt.multicast(
        trees, {g: 1000 + g for g in range(6)}, {g: g for g in range(6)}
    )
    return (sorted((u, sorted(p.items())) for u, p in out.received.items()), out.rounds)


def _run_direct_typed(rt):
    import numpy as np

    from repro.primitives.direct import send_direct

    pair = np.dtype([("a", "i8"), ("b", "i8")])
    sends = [(u, (u * 7 + i) % rt.n, (u, i)) for u in range(rt.n) for i in range(3)]
    inbox = send_direct(rt.net, sends, dtype=pair)
    # Box explicitly: a structured numpy scalar raises on ``== tuple``.
    return (
        [
            (d, [(m.src, tuple(m.payload)) for m in msgs])
            for d, msgs in inbox.items()
        ],
        rt.net.round_index,
    )


TYPED_PRIMITIVES = {
    "aggregation": _run_aggregation,
    "multicast_int": _run_multicast_int,
    "direct_typed": _run_direct_typed,
}


@pytest.mark.engine("reference")  # runs both engines itself; skip replays
class TestTypedRepresentationParity:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("name", sorted(TYPED_PRIMITIVES))
    def test_typed_toggle_invisible(self, name, mode):
        pytest.importorskip("numpy")
        runs = {}
        for engine in ENGINES:
            for typed in (True, False):
                prev = set_typed_payloads(typed)
                try:
                    runs[(engine, typed)] = _execute(
                        engine, mode, TYPED_PRIMITIVES[name]
                    )
                finally:
                    set_typed_payloads(prev)
        base = runs[("reference", False)]
        for key, run in runs.items():
            assert run["error"] == base["error"], key
            assert run["result"] == base["result"], key
            assert run["rounds"] == base["rounds"], key
            assert run["stats"] == base["stats"], key

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("n", [32, 256])
    def test_wire_choice_submits_identical_rounds(self, n, mode):
        """Round size picks the multicast and hash-agreement wire, and the
        choice cannot change a round: typed on and off submit the same
        rounds (senders, destinations, boxed payloads, kinds, in order),
        with the same statistics and the same ``received`` dicts,
        insertion order included, under every engine."""
        runs = {}
        for engine in ENGINES:
            for typed in (True, False):
                prev = set_typed_payloads(typed)
                try:
                    runs[(engine, typed)] = _record_wire_instance(engine, mode, n)
                finally:
                    set_typed_payloads(prev)
        base = runs[("reference", False)]
        for key, run in runs.items():
            assert run["error"] == base["error"], key
            assert run["rounds"] == base["rounds"], key
            assert run["stats"] == base["stats"], key
            assert run["received"] == base["received"], key
        if n == 256:
            # The bulk instance reaches the typed wire in every stage; the
            # object form of each of these rounds is checked above.
            for engine in ENGINES:
                assert _typed_round_tags(runs[(engine, True)]) == {"M", "D", "L", "B"}
                assert not _typed_round_tags(runs[(engine, False)])

    def test_small_mst_rounds_stay_object(self):
        """MST at n = 32 sends only small multicast rounds: none of them may
        take the typed wire below SMALL_ROUND_CUTOFF messages."""
        from repro.registry import bench_config, get_algorithm

        spec = get_algorithm("mst")
        rt = NCCRuntime(32, bench_config(seed=1, engine="batched"))
        sizes = []

        def observe(_r, submitted):
            for batch in submitted.values():
                if batch.payload_array() is not None:
                    sizes.append(sum(map(len, submitted.values())))
                    return

        rt.net.round_observer = observe
        spec.run(rt, spec.workload(32, 2, 1))
        assert all(size >= SMALL_ROUND_CUTOFF for size in sizes), sorted(sizes)[:5]


def _record_wire_instance(engine: str, mode: Enforcement, n: int) -> dict:
    """A multicast of int packets over the groups that have trees, then a
    hash-agreement-style broadcast of 40 identical int items; every round
    after the tree setup recorded through ``round_observer``."""
    rt = NCCRuntime(
        n,
        _engine_cfg(engine, seed=SEED, enforcement=mode, extras={"lightweight_sync": True}),
    )
    groups = n // 2
    trees = rt.multicast_setup({u: [u % groups, (u * 7 + 3) % groups] for u in range(n)})
    rounds = []

    def observe(_r, submitted):
        rounds.append([
            (
                src,
                batch.payload_array() is not None,
                list(zip(batch.dsts(), batch.payloads(), batch.kinds())),
            )
            for src, batch in submitted.items()
        ])

    rt.net.round_observer = observe
    received = error = None
    try:
        live = [g for g in range(groups) if g in trees.root]
        out = rt.multicast(
            trees, {g: 1000 + g for g in live}, {g: (3 * g) % n for g in live}
        )
        received = [(u, list(got.items())) for u, got in out.received.items()]
        rt.pipelined_broadcast([0] * 40)
    except ReproError as e:
        error = (type(e).__name__, str(e))
    return {
        "rounds": [[(src, msgs) for src, _, msgs in r] for r in rounds],
        "typed": [r for r in rounds if any(typed for _, typed, _ in r)],
        "received": received,
        "error": error,
        "stats": rt.net.stats.comparable(),
    }


def _typed_round_tags(run: dict) -> set[str]:
    """The payload tags of a run's typed rounds: ``M`` root handoff, ``D``
    spreading, ``L`` leaf delivery, ``B`` broadcast."""
    return {
        payload[0] for r in run["typed"] for _, _, msgs in r for _, payload, _ in msgs
    }


# ----------------------------------------------------------------------
# Raw-exchange fuzzing: violating and malformed rounds
# ----------------------------------------------------------------------
def _random_round(rng: random.Random, n: int, cap: int, *, batch: bool):
    """One round of random traffic: some senders over capacity, some
    receivers hot, occasional oversized payloads.  ``batch`` submits it
    as a :class:`BatchBuilder`, else as a mapping of message lists."""
    out = BatchBuilder(kind="fuzz") if batch else {}
    hot = rng.randrange(n)  # attract extra traffic to one receiver
    for src in rng.sample(range(n), rng.randrange(1, n)):
        count = rng.choice((0, 1, 2, rng.randrange(1, cap + 6)))
        if not count:
            continue
        dsts, payloads = [], []
        for _ in range(count):
            dsts.append(hot if rng.random() < 0.3 else rng.randrange(n))
            if rng.random() < 0.02:
                payloads.append(tuple(range(200)))  # oversized
            else:
                payloads.append((src, rng.randrange(1 << 16)))
        if batch:
            out.add_many(src, dsts, payloads)
        else:
            out[src] = [Message(src, d, p, kind="fuzz") for d, p in zip(dsts, payloads)]
    return out


def _replay(engine: str, mode: Enforcement, seed: int, *, batch: bool, n: int = 64):
    cfg = _engine_cfg(engine, seed=SEED, enforcement=mode)
    net = NCCNetwork(n, cfg)
    rng = random.Random(seed)
    trace = []
    for r in range(25):
        out = _random_round(rng, n, net.capacity, batch=batch)
        try:
            inboxes = net.exchange(out)
        except ReproError as e:
            trace.append(("error", type(e).__name__, str(e)))
            break
        # Order-sensitive capture: dict insertion order AND list order.
        trace.append([(d, msgs) for d, msgs in inboxes.items()])
    return trace, net.round_index, net.stats.comparable()


@pytest.mark.engine("reference")  # differential by construction
class TestExchangeFuzzParity:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("batch", [False, True], ids=["plain", "batch"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_rounds_indistinguishable(self, mode, batch, seed):
        ref = _replay("reference", mode, seed, batch=batch)
        bat = _replay("batched", mode, seed, batch=batch)
        assert ref == bat

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_malformed_src_indistinguishable(self, mode):
        """A Mapping entry whose message src disagrees with the sender key
        must raise identically in every mode and under every engine."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(16, _engine_cfg(engine, seed=1, enforcement=mode))
            msgs = [Message(0, d % 16, "x") for d in range(net.capacity + 3)]
            msgs[2] = Message(1, 2, "x")  # wrong src, hidden mid-group
            with pytest.raises(ValueError) as e:
                net.exchange({0: msgs})
            outcomes[engine] = (str(e.value), net.stats.comparable())
        _assert_parity(outcomes)

    def test_huge_destination_id_rejected_not_allocated(self):
        """A single absurd dst id in a large round must raise the reference
        ValueError, not size a count table to dst.max()+1 slots."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(1024, _engine_cfg(engine, seed=1))
            msgs = [Message(s % 1024, (s + 1) % 1024, "x") for s in range(300)]
            msgs[150] = Message(150, 10**12, "x")
            with pytest.raises(ValueError) as e:
                net.exchange(msgs)
            outcomes[engine] = str(e.value)
        _assert_parity(outcomes)

    def test_id_beyond_int64_rejected_identically(self):
        """An id that does not fit an int64 column must still raise the
        reference ValueError (not OverflowError) under every engine and
        for both submission forms."""
        outcomes = {}
        for engine in ENGINES:
            for batch in (False, True):
                net = NCCNetwork(1024, _engine_cfg(engine, seed=1))
                dsts = [(s + 1) % 1024 for s in range(300)]
                dsts[150] = 2**63
                if batch:
                    out = BatchBuilder()
                    out.add_many(0, dsts, ["x"] * 300)
                else:
                    out = {0: [Message(0, d, "x") for d in dsts]}
                with pytest.raises(ValueError) as e:
                    net.exchange(out)
                outcomes[(engine, batch)] = str(e.value)
        assert len(set(outcomes.values())) == 1

    def test_builder_rejects_mismatched_column_lengths(self):
        """Misaligned parallel columns must error, not silently drop the
        tail of the traffic (zip truncation would corrupt accounting)."""
        with pytest.raises(ValueError):
            BatchBuilder().add_many(0, [1, 2, 3], ["a", "b"])
        with pytest.raises(ValueError):
            BatchBuilder().add_arrays([0, 1], [1, 2, 3], ["a", "b", "c"])

    def test_non_int_node_ids_rejected_at_message_boundary(self):
        """Float ids would be distinct inbox keys to a per-message walk but
        truncate in an int64 column — the Message contract rejects them
        before any engine can diverge."""
        with pytest.raises(TypeError, match="node ids must be ints"):
            Message(0, 2.5, "x")
        with pytest.raises(TypeError, match="node ids must be ints"):
            Message(1.5, 2, "x")
        with pytest.raises(TypeError, match="node ids must be ints"):
            BatchBuilder().add_many(0, [1, 2.5], ["a", "b"])

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("key", [2.5, 2.0, "2"], ids=["float", "whole-float", "str"])
    def test_non_int_mapping_keys_rejected(self, mode, key):
        """A mapping key is a sender id: a float is never truncated and a
        string never parsed into one.  Every engine raises the TypeError
        Message and BatchBuilder raise for such ids, before any statistic
        moves or a round elapses."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(16, _engine_cfg(engine, seed=1, enforcement=mode))
            fresh = net.stats.comparable()
            with pytest.raises(TypeError, match="node ids must be ints") as e:
                net.exchange({key: [Message(2, 3, "x")]})
            assert net.stats.comparable() == fresh
            outcomes[engine] = (str(e.value), net.round_index)
        _assert_parity(outcomes)
        assert outcomes["reference"] == (f"node ids must be ints, got {type(key).__name__}", 0)

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("key", [np.int64(2), True], ids=["np.int64", "bool"])
    def test_int_like_mapping_keys_deliver(self, mode, key):
        """numpy-integer and bool keys are node ids: every engine delivers
        them exactly as the plain int key."""
        sender = int(key)
        outcomes = {}
        for engine in ENGINES:
            for k in (key, sender):
                net = NCCNetwork(16, _engine_cfg(engine, seed=1, enforcement=mode))
                inbox = net.exchange({k: [Message(sender, 3, "x"), Message(sender, 4, "y")]})
                outcomes[(engine, type(k))] = (
                    [(d, list(m)) for d, m in inbox.items()],
                    net.stats.comparable(),
                )
        assert len({repr(o) for o in outcomes.values()}) == 1

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_builder_empty_batch(self, mode):
        """An empty batch must behave like no traffic at all: a round still
        elapses, nothing is delivered, statistics untouched — identically
        under every engine."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(16, _engine_cfg(engine, seed=1, enforcement=mode))
            empty = BatchBuilder()
            empty.add_many(3, [], [])
            assert len(empty) == 0
            assert not empty
            inbox = net.exchange(empty)
            outcomes[engine] = (inbox, net.round_index, net.stats.comparable())
        _assert_parity(outcomes)
        assert outcomes["reference"][0] == {}
        assert outcomes["reference"][1] == 1

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_builder_single_message(self, mode):
        """A one-message batch delivers exactly that message, with correct
        bits accounting, under every engine."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(16, _engine_cfg(engine, seed=1, enforcement=mode))
            batch = BatchBuilder(kind="solo")
            batch.add_many(4, [9], [("one", 5)])
            inbox = net.exchange(batch)
            outcomes[engine] = (
                [(d, msgs) for d, msgs in inbox.items()],
                net.stats.comparable(),
            )
        _assert_parity(outcomes)
        ((dst, msgs),) = outcomes["reference"][0]
        assert dst == 9
        assert len(msgs) == 1
        assert msgs[0].payload == ("one", 5)
        assert msgs[0].kind == "solo"

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_builder_mixed_payloads(self, mode):
        """Mixed tuple/scalar payloads in one batch: sizing and delivery
        must agree between engines (tuples sum their parts, scalars size
        directly, None is a 1-bit token)."""
        payloads = [("tup", 3, 7), 42, None, True, ("nested", (1, 2)), "tag"]
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(16, _engine_cfg(engine, seed=1, enforcement=mode))
            batch = BatchBuilder(kind="mix")
            batch.add_many(0, list(range(1, len(payloads) + 1)), payloads)
            inbox = net.exchange(batch)
            outcomes[engine] = (
                [(d, [(m.payload, m.bits) for m in msgs]) for d, msgs in inbox.items()],
                net.stats.comparable(),
            )
        _assert_parity(outcomes)
        delivered = dict(outcomes["reference"][0])
        assert delivered[2] == [(42, 6)]
        assert delivered[3] == [(None, 1)]

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_bad_destination_indistinguishable(self, mode):
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(16, _engine_cfg(engine, seed=1, enforcement=mode))
            msgs = [Message(0, d % 16, "x") for d in range(net.capacity + 3)]
            msgs[-1] = Message(0, 99, "x")  # out-of-range dst
            with pytest.raises(ValueError) as e:
                net.exchange({0: msgs})
            outcomes[engine] = (str(e.value), net.stats.comparable())
        _assert_parity(outcomes)


# ----------------------------------------------------------------------
# Empty rounds: a submission without a message is still one full round
# ----------------------------------------------------------------------
def _empty_submissions():
    """Every form of a round that sends nothing, fresh per call (a builder
    is single-shot)."""
    return [
        (),
        [],
        {},
        {3: []},
        BatchBuilder("idle"),
        BatchBuilder("idle", dtype=np.int64),
    ]


class TestEmptyRoundParity:
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_empty_submissions_are_observed_counted_rounds(self, mode):
        """Each empty form elapses one round under every engine: the round
        index moves by one, the result is an empty mapping, a builder is
        spent, the observer sees ``{}``, the tracer records a zero-traffic
        ``round`` span, and every phase on the stack — a repeated label
        once — is charged the round, and no phase once all have exited.
        Once ``max_rounds`` have elapsed, every empty form is refused and
        nothing moves."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(
                16, _engine_cfg(engine, seed=1, enforcement=mode, max_rounds=9)
            )
            seen = []
            net.round_observer = lambda r, sub: seen.append((r, sub))
            with tracing() as tr:
                with net.phase("outer"), net.phase("inner"), net.phase("outer"):
                    for sub in _empty_submissions():
                        before = net.round_index
                        got = net.exchange(sub)
                        assert net.round_index == before + 1
                        assert isinstance(got, Mapping) and len(got) == 0
                        if isinstance(sub, BatchBuilder):
                            with pytest.raises(TypeError, match="already finalized"):
                                sub.add(0, 1, 5)
                    net.idle_rounds(2)
                net.exchange(())  # outside every phase: charged to none
                for sub in _empty_submissions():
                    with pytest.raises(SimulationLimitError, match="max_rounds=9"):
                        net.exchange(sub)
            spans = [f for kind, name, f in tr.structure() if name == "round"]
            outcomes[engine] = (seen, spans, net.stats.comparable(), net.round_index)
        _assert_parity(outcomes)
        seen, spans, stats, rounds = outcomes["reference"]
        assert rounds == 9
        assert seen == [(r, {}) for r in range(9)]
        assert spans == [
            {"round": r, "phases": "outer/inner/outer" if r < 8 else "", "messages": 0, "bits": 0}
            for r in range(9)
        ]
        assert (stats["rounds"], stats["messages"], stats["bits"]) == (9, 0, 0)
        assert stats["phases"] == {
            "outer": {"rounds": 8, "messages": 0, "bits": 0, "entries": 2},
            "inner": {"rounds": 8, "messages": 0, "bits": 0, "entries": 1},
        }

    def test_falsy_non_submission_raises(self):
        """Only the empty submission forms end a round early: ``None``,
        ``0`` and ``False`` fail as non-iterables on every engine, before
        the round starts — no round, no observer call, no statistic."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(16, _engine_cfg(engine, seed=1))
            seen = []
            net.round_observer = lambda r, sub: seen.append(r)
            errors = []
            for bad in (None, 0, False):
                with pytest.raises(TypeError, match="not iterable") as e:
                    net.exchange(bad)
                errors.append(str(e.value))
            outcomes[engine] = (errors, seen, net.round_index, net.stats.comparable())
        _assert_parity(outcomes)
        _, seen, rounds, stats = outcomes["reference"]
        assert (seen, rounds) == ([], 0)
        assert stats == NCCNetwork(16).stats.comparable()


# ----------------------------------------------------------------------
# Lazy inbox (InboxBatch) delivery: list-equivalence + zero construction
# ----------------------------------------------------------------------
def _deferred_round_traffic(n, per_sender_count, *, mixed_kinds=False):
    """One deterministic deferred round: every node sends ``per_sender_count``
    messages along shifted permutations (clean at <= capacity)."""
    out = BatchBuilder(kind="lazy")
    for u in range(n):
        for i in range(per_sender_count):
            kind = "lazy:token" if mixed_kinds and i == 0 else None
            out.add(u, (u + i + 1) % n, ("P", u, i), kind=kind)
    return out


@pytest.mark.engine("reference")  # differential by construction
class TestInboxBatchParity:
    """The batched engine delivers lazy ``InboxBatch`` column views; they
    must be observably interchangeable with the reference engine's plain
    lists — content, list order, dict insertion order, statistics — in
    every enforcement mode, while constructing zero ``Message`` objects on
    clean rounds."""

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("count", [2, 8], ids=["small", "argsort"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["uniform-kind", "mixed-kind"])
    def test_deferred_round_indistinguishable(self, mode, count, mixed):
        n = 32
        inboxes = {}
        stats = {}
        for engine in ENGINES:
            net = NCCNetwork(n, _engine_cfg(engine, seed=1, enforcement=mode))
            inboxes[engine] = net.exchange(
                _deferred_round_traffic(n, count, mixed_kinds=mixed)
            )
            stats[engine] = net.stats.comparable()
        ref = inboxes["reference"]
        # The reference engine delivered lists; the lazy engines, views.
        assert all(type(box) is list for box in ref.values())
        for engine in ENGINES[1:]:
            bat = inboxes[engine]
            assert stats["reference"] == stats[engine], engine
            # Dict equality AND order, both comparison directions.
            assert list(ref.keys()) == list(bat.keys()), engine
            assert ref == bat, engine
            assert [(d, m) for d, m in bat.items()] == [
                (d, m) for d, m in ref.items()
            ], engine
            assert all(type(box) is InboxBatch for box in bat.values()), engine
            # Column accessors agree with the reference lists without
            # constructing messages.
            before = message_construction_count()
            for dst, box in bat.items():
                assert box.payloads() == [m.payload for m in ref[dst]]
                assert box.srcs() == [m.src for m in ref[dst]]
                assert box.dsts() == [dst] * len(ref[dst])
                assert box.kinds() == [m.kind for m in ref[dst]]
                assert box.items() == [(m.src, m.payload) for m in ref[dst]]
            assert message_construction_count() == before, engine

    @pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
    @pytest.mark.parametrize("count", [2, 8], ids=["small", "argsort"])
    def test_clean_batched_round_constructs_zero_messages(self, count, observed):
        n = 32
        net = NCCNetwork(
            n, NCCConfig(seed=1, enforcement=Enforcement.COUNT, engine="batched")
        )
        seen = []
        if observed:
            net.round_observer = lambda r, per_sender: seen.append(
                [(s, len(group)) for s, group in per_sender.items()]
            )
        out = _deferred_round_traffic(n, count)
        before = message_construction_count()
        inbox = net.exchange(out)
        assert message_construction_count() == before, (
            "a clean batched round must not construct Message objects"
        )
        # The observer sees the builder's per-sender cut: one group per
        # sender, in first-occurrence order.
        assert seen == ([[(u, count) for u in range(n)]] if observed else [])
        # Materialization happens exactly when elements are touched.
        m = next(iter(inbox.values()))[0]
        assert message_construction_count() == before + 1
        assert isinstance(m, Message)

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_resubmitted_inbox_batches_indistinguishable(self, mode):
        """Delivered InboxBatches can be re-exchanged: as flat traffic they
        re-bucket by the messages' own senders; as a Mapping keyed by the
        old receivers both engines must reject the src mismatch
        identically (mixed-src groups take the generic paths)."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(
                32, _engine_cfg(engine, seed=1, enforcement=mode)
            )
            inbox = net.exchange(_deferred_round_traffic(32, 3))
            flat = [m for box in inbox.values() for m in box]
            second = net.exchange(flat)
            resub = {dst: box for dst, box in inbox.items()}
            try:
                net.exchange(resub)
                third = ("delivered",)
            except (ReproError, ValueError) as e:
                third = (type(e).__name__, str(e))
            outcomes[engine] = (
                [(d, list(m)) for d, m in second.items()],
                third,
                net.stats.comparable(),
            )
        _assert_parity(outcomes)

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_deferred_overload_walks_match(self, mode):
        """Receive overload through deferred submission: DROP draws, the
        violation ledger, and STRICT raises must match the reference."""
        n = 64
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(n, _engine_cfg(engine, seed=1, enforcement=mode))
            out = BatchBuilder(kind="hot")
            for u in range(net.capacity + 10):
                out.add(u, 0, ("h", u))
            try:
                inbox = net.exchange(out)
                outcomes[engine] = (
                    "ok",
                    [(d, sorted(m.payload[1] for m in msgs)) for d, msgs in inbox.items()],
                    net.stats.comparable(),
                )
            except ReproError as e:
                outcomes[engine] = (type(e).__name__, str(e), net.stats.comparable())
        _assert_parity(outcomes)

    def test_deferred_bad_ids_walk_to_reference_errors(self):
        """Out-of-range ids inside a deferred submission raise the
        reference engine's ValueError under both engines — for both the
        small and the argsort-sized round, and including ids too wide for
        an int64 column (which must not surface as OverflowError)."""
        for count, bad_dst in ((2, 99), (8, 99), (2, 2**63), (8, 2**63)):
            outcomes = {}
            for engine in ENGINES:
                net = NCCNetwork(16, _engine_cfg(engine, seed=1))
                out = BatchBuilder()
                for u in range(16):
                    for i in range(count):
                        out.add(u, (u + i + 1) % 16, i)
                out.add(3, bad_dst, "bad")
                with pytest.raises(ValueError) as e:
                    net.exchange(out)
                outcomes[engine] = (str(e.value), net.stats.comparable())
            _assert_parity(outcomes)

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_argsort_round_overload_parity(self, mode):
        """A receive overload in an object round of at least
        SMALL_ROUND_CUTOFF messages: the argsort delivery hands its round
        to the canonical receive walk, which must keep the reference
        receiver order, payload order, DROP draws, ledger and STRICT
        raise."""
        n = 64
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(n, _engine_cfg(engine, seed=1, enforcement=mode))
            out = BatchBuilder(kind="hot")
            for u in range(n):
                for i in range(3):
                    hot = (3 * u + i) % 2 == 0
                    out.add(u, 0 if hot else 1 + (u + i) % (n - 1), ("h", u, i))
            assert len(out) == 192 >= SMALL_ROUND_CUTOFF
            try:
                inbox = net.exchange(out)
                outcomes[engine] = (
                    "ok",
                    [(d, [m.payload for m in msgs]) for d, msgs in inbox.items()],
                    net.stats.comparable(),
                )
            except ReproError as e:
                outcomes[engine] = (type(e).__name__, str(e), net.stats.comparable())
        _assert_parity(outcomes)
        # Node 0 received 96 messages against a capacity of 24.
        assert outcomes["reference"][-1]["max_received_per_round"] == 96

    def test_small_round_overload_parity(self):
        """A receive overload below SMALL_ROUND_CUTOFF, bucketed in plain
        Python, walks to the reference DROP draws and ledger."""
        outcomes = {}
        for engine in ENGINES:
            net = NCCNetwork(
                64, _engine_cfg(engine, seed=1, enforcement=Enforcement.DROP)
            )
            out = BatchBuilder(kind="hot")
            for u in range(net.capacity + 10):
                out.add(u, 0, ("h", u))
            inbox = net.exchange(out)
            outcomes[engine] = (
                [(d, sorted(m.payload[1] for m in msgs)) for d, msgs in inbox.items()],
                net.stats.comparable(),
            )
        _assert_parity(outcomes)


# ----------------------------------------------------------------------
# RoundInbox: a clean bulk round is a faithful read-only Mapping
# ----------------------------------------------------------------------
def _bulk_round(n, typed):
    """One clean round of ``8 * n`` messages along strided permutations
    that skip node 0: node 1 receives, node 0 does not, and receivers
    first hear from someone out of ascending order."""
    src = np.repeat(np.arange(n, dtype=np.int64), 8)
    dst = 1 + (5 * src + 3 * np.tile(np.arange(8, dtype=np.int64), n)) % (n - 1)
    if typed:
        out = BatchBuilder(kind="bulk", dtype=np.int64)
        out.add_arrays(src, dst, src * 100 + dst)
        return out
    out = BatchBuilder(kind="bulk")
    for s, d in zip(src.tolist(), dst.tolist()):
        out.add(s, d, ("P", s, d))
    return out


@pytest.mark.engine("reference")  # differential by construction
class TestRoundInboxMapping:
    @pytest.mark.parametrize("typed", [False, True], ids=["object", "typed"])
    def test_round_inbox_matches_reference_dict(self, typed):
        n = 32
        results = {}
        for engine in ENGINES:
            net = NCCNetwork(n, _engine_cfg(engine, seed=1))
            out = _bulk_round(n, typed)
            assert len(out) >= SMALL_ROUND_CUTOFF
            results[engine] = net.exchange(out)
            assert net.stats.violation_count == 0
        ref = results["reference"]
        assert type(ref) is dict and 1 in ref and 0 not in ref
        assert list(ref) != sorted(ref)
        present = next(reversed(ref))
        keys = (present, np.int64(present), 1, True, 1.0, 0, -1, n, "x", None)
        for engine in ENGINES[1:]:
            got = results[engine]
            assert type(got) is RoundInbox, engine
            assert list(got) == list(ref) and len(got) == len(ref)
            assert ref == got and got == ref and not (got != ref)
            assert dict(got) == ref
            assert list(got.items()) == list(ref.items())
            assert got.keys() == ref.keys()
            assert len(got.values()) == len(ref)
            for key in keys:
                assert (key in got) == (key in ref), (engine, key)
                assert got.get(key) == ref.get(key), (engine, key)
                if key in ref:
                    assert got[key] == ref[key], (engine, key)
                else:
                    with pytest.raises(KeyError):
                        got[key]

    def test_typed_round_inbox_reads_without_boxing(self):
        for engine in ENGINES[1:]:
            net = NCCNetwork(32, _engine_cfg(engine, seed=1))
            got = net.exchange(_bulk_round(32, typed=True))
            before = (message_construction_count(), payload_box_count())
            total = 0
            for box in got.values():
                total += int(box.payload_array().sum())
            assert (message_construction_count(), payload_box_count()) == before
            assert total == int(got.payloads.sum())
