"""The benchmark's four workloads, and why each was chosen.

Each workload drives only public entry points (``Session.run`` /
``Session.run_many``, ``NCCRuntime.aggregation``, ``NCCNetwork.exchange``),
pins ``engine=`` explicitly (the default engine is ``reference``), and
derives every input from the benchmark's ``--seed``.  Each layer does most
of its work in one workload and little in another:

``mst-small-rounds``
    The paper's headline algorithm.  Its rounds are tiny (~3 messages), so
    per-round fixed costs dominate: ``CombiningRouter.run`` /
    ``MulticastRouter.run``, payload sizing, ``node_rng`` reseeding and
    ``record_round``; the numpy kernels barely run.  One iteration is one
    MST run on a ``forest-union-random-weights`` graph at n = 32 from a
    fresh ``Session`` (so the scenario build is part of the iteration).  An
    MST run's round count moves by +-20% with the seed (Boruvka phases come
    in ~2.2k-round quanta), so the ``--seed`` draws the spec seed from
    :data:`MST_SEEDS`, whose runs all take ~21.7k rounds, ~68k messages and
    ~1.08M bits.  Every seed then costs about the same, and ``run_s``
    compares across seeds.  n = 32 rather than 128: one n = 128 run alone
    takes 10-12 s on a 2-core host, leaving no room for several samples per
    run, and short iterations let the host-speed yardstick (see ``run.py``)
    follow the host's drift.
``agg-typed-bulk``
    One ``NCCRuntime.aggregation`` of the typed SUM problem (8 memberships
    per node, n/2 groups, n = 8192; at 16384 a run takes 4-6 s and a run of
    the benchmark gets too few samples).  Rounds are big and typed; time goes
    to the combining router's typed kernel, ``BatchBuilder`` column pushes
    and ``gather_typed_spans``.  No algorithm layer, no pool, ~no per-round
    fixed cost: the same ``ncc.message`` / ``ncc.batched`` layers as
    mst-small-rounds at the opposite round size.
``sweep-pooled``
    A fresh ``Session`` runs ``run_many(jobs=2)`` over 96 rows (mis,
    matching, coloring x grid, ring-of-chords x n = 16 x 16 seeds, batched)
    and closes: pool spawn, shared-memory publish, pipe transport and
    in-order emit.  The only workload that exercises ``api/pool.py``.  The
    two scenarios are the ones whose rows vary least with the seed (bits
    per row: 2-7% relative deviation, against 20-53% on forest-union and
    pa-heavy-tail), so the sweep's totals hold still across seeds; 96 rows
    keep an iteration near 2 s.
``sharded-bulk``
    ``NCCNetwork(100_000, engine="sharded", shards=2)`` exchanges
    ``SHARDED_ROUNDS`` typed permutation rounds (4 int64 messages per
    node).  The only workload above the shard cutoff and the only one that
    exercises ``ncc/sharded/``.

``tiny=True`` shrinks every workload to a size the smoke tests can afford.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any

#: spec seeds of ``mst`` on ``forest-union-random-weights`` at n = 32 whose
#: runs take 21.64-21.80k rounds, 67.2-68.9k messages and 1.068-1.090M
#: bits (picked from seeds 0-199).
MST_SEEDS = (18, 28, 61, 101, 109, 146, 177)
#: typed permutation rounds per sharded-bulk iteration.
SHARDED_ROUNDS = 3

#: per-layer metrics that only some workloads' ``layer_extras`` produce;
#: the others report 0.
WORKLOAD_LAYER_METRICS = (
    "api.pool.worker_busy_frac",
    "ncc.sharded.batched_s",
    "ncc.sharded.speedup",
)

Counts = tuple[int, int, int]


class Workload:
    """One benchmark workload: set up once, then time :meth:`run` repeatedly.

    :meth:`check` validates one iteration's output and returns its exact
    ``(rounds, messages, bits)`` plus an error message (``None`` when the
    output is correct).
    """

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """The discarded, unchecked warm-up: loads code and fills caches."""
        self.run()

    def run(self) -> Any:
        raise NotImplementedError

    def run_traced(self) -> tuple[Any, Any, list[dict], dict[str, int]]:
        """One iteration under a fresh ``repro.telemetry`` tracer.

        Returns ``(output, trace, worker layer snapshots, worker counter
        deltas)``; only a pooled workload has worker-side data."""
        from repro.telemetry import Tracer, install_tracer, uninstall_tracer

        tracer = Tracer(label=self.name, seed=self.seed)
        previous = install_tracer(tracer)
        try:
            out = self.run()
        finally:
            uninstall_tracer(previous)
        return out, tracer, [], {}

    def check(self, out: Any) -> tuple[Counts, str | None]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def diagnostics(self) -> dict[str, Any]:
        return {}

    def layer_extras(self, wall_s: float) -> dict[str, float]:
        """Workload-specific per-layer metrics, given the median wall time
        of an untraced iteration."""
        return {}


class MSTSmallRounds(Workload):
    name = "mst-small-rounds"
    SCENARIO = "forest-union-random-weights"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n = 8 if tiny else 32

    def setup(self) -> None:
        from repro import RunSpec

        seed = self.seed if self.tiny else random.Random(self.seed).choice(MST_SEEDS)
        self.spec = RunSpec(
            "mst", n=self.n, seed=seed, scenario=self.SCENARIO, engine="batched"
        )

    def run(self) -> Any:
        from repro import Session

        with Session() as session:
            return session.run(self.spec)

    def check(self, report: Any) -> tuple[Counts, str | None]:
        counts = (report.rounds, report.messages, report.bits)
        if not report.correct:
            return counts, "MST differs from the sequential oracle"
        return counts, None


class AggTypedBulk(Workload):
    name = "agg-typed-bulk"
    MEMBERSHIPS = 8

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n = 256 if tiny else 8192

    def setup(self) -> None:
        from repro import Enforcement, NCCConfig, NCCRuntime
        from repro.butterfly.topology import ButterflyGrid
        from repro.primitives import SUM, AggregationProblem

        n = self.n
        groups = n // 2
        rng = random.Random(self.seed)
        memberships = {
            u: {
                g: rng.randrange(1, 1 << 10)
                for g in rng.sample(range(groups), self.MEMBERSHIPS)
            }
            for u in range(n)
        }
        # The sequential oracle: SUM per group, computed here.
        expected: dict[int, int] = {}
        for values in memberships.values():
            for g, v in values.items():
                expected[g] = expected.get(g, 0) + v
        self.expected = expected
        self.problem = AggregationProblem(
            memberships=memberships,
            targets={g: g % n for g in range(groups)},
            fn=SUM,
        )
        self.config = NCCConfig(
            seed=self.seed,
            enforcement=Enforcement.COUNT,
            engine="batched",
            extras={"lightweight_sync": True},
        )
        self.bf = ButterflyGrid(n)
        NCCRuntime(n, self.config, bf=self.bf)

    def run(self) -> Any:
        from repro import NCCRuntime

        # A fresh runtime per iteration: a runtime's hash nonces advance
        # with every primitive call, so reusing one would change the input.
        rt = NCCRuntime(self.n, self.config, bf=self.bf)
        return rt, rt.aggregation(self.problem)

    def check(self, out: Any) -> tuple[Counts, str | None]:
        rt, outcome = out
        stats = rt.net.stats
        counts = (rt.net.round_index, stats.messages, stats.bits)
        if outcome.values != self.expected:
            return counts, "aggregation result differs from the sequential SUM"
        return counts, None


class SweepPooled(Workload):
    name = "sweep-pooled"
    ALGORITHMS = ("mis", "matching", "coloring")
    SCENARIOS = ("grid", "ring-of-chords")
    JOBS = 2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n = 16
        self.seeds = 1 if tiny else 16
        self.busy: list[float] = []

    def setup(self) -> None:
        from repro.api import sweep_grid

        # Each iteration owns its pool (a fresh Session), so set-up is only
        # the grid; the graphs are built and published inside the sweep.
        first = self.seed * self.seeds
        self.specs = sweep_grid(
            self.ALGORITHMS,
            [self.n],
            seeds=range(first, first + self.seeds),
            engines=["batched"],
            scenarios=self.SCENARIOS,
        )

    def _sweep(self, telemetry: Any = None) -> Any:
        from repro import Session

        t0 = time.perf_counter()
        with Session() as session:
            reports = session.run_many(self.specs, jobs=self.JOBS, telemetry=telemetry)
            incidents = list(session.last_sweep_incidents)
        wall = time.perf_counter() - t0
        self.busy.append(sum(r.wall_time_s for r in reports) / (self.JOBS * wall))
        return reports, incidents

    def run(self) -> Any:
        return self._sweep()

    def run_traced(self) -> tuple[Any, Any, list[dict], dict[str, int]]:
        from repro.telemetry.sweep import SweepTelemetry

        from layers import WORKER_EVENT, add_into

        telemetry = SweepTelemetry("")
        out = self._sweep(telemetry)
        snapshots: list[dict] = []
        counters: dict[str, int] = {}
        for payload in telemetry.rows.values():
            for _kind, name, _ts, _dur, fields in payload["records"]:
                if name == WORKER_EVENT:
                    snapshots.append(fields)
            add_into(counters, payload.get("counters") or {})
        return out, telemetry, snapshots, counters

    def check(self, out: Any) -> tuple[Counts, str | None]:
        reports, incidents = out
        counts = (
            sum(r.rounds for r in reports),
            sum(r.messages for r in reports),
            sum(r.bits for r in reports),
        )
        if len(reports) != len(self.specs):
            return counts, f"{len(reports)} reports for {len(self.specs)} specs"
        wrong = [i for i, r in enumerate(reports) if not r.correct]
        if wrong:
            return counts, f"rows {wrong} differ from their sequential oracles"
        if incidents:
            return counts, f"pool incidents: {incidents}"
        return counts, None

    def layer_extras(self, wall_s: float) -> dict[str, float]:
        return {"api.pool.worker_busy_frac": statistics.median(self.busy)}


def _bits_below(m: int) -> int:
    """Sum of ``max(1, v.bit_length())`` over ``0 <= v < m``: the wire bits
    of the payloads ``0 .. m-1`` (closed form, one term per bit length)."""
    total = min(m, 2)
    b = 2
    while (1 << (b - 1)) < m:
        total += b * (min(m, 1 << b) - (1 << (b - 1)))
        b += 1
    return total


class ShardedBulk(Workload):
    name = "sharded-bulk"
    MSGS_PER_NODE = 4
    SHARDS = 2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.n = 4096 if tiny else 100_000
        self.rounds = 2 if tiny else SHARDED_ROUNDS
        self.net: Any = None

    def _config(self, engine: str) -> Any:
        from repro import Enforcement, NCCConfig

        # At tiny n the rounds fall below the shard cutoff; lower it so the
        # smoke tests still take the distributed path.
        extras = {"shard_cutoff": 1} if self.tiny else {}
        return NCCConfig(
            seed=self.seed,
            enforcement=Enforcement.COUNT,
            engine=engine,
            shards=self.SHARDS,
            extras=extras,
        )

    def setup(self) -> None:
        import numpy as np

        from repro import NCCNetwork

        self.teardown()
        n, k = self.n, self.MSGS_PER_NODE
        # Node u sends message j to (u + shift_j) mod n carrying u*k + j:
        # each shift is a permutation, so every node receives exactly k.
        self.shifts = np.array(
            random.Random(self.seed).sample(range(1, n), k), dtype=np.int64
        )
        src = np.repeat(np.arange(n, dtype=np.int64), k)
        slot = np.tile(np.arange(k, dtype=np.int64), n)
        self.cols = (src, (src + self.shifts[slot]) % n, src * k + slot)
        self.round_bits = _bits_below(n * k)
        self.net = NCCNetwork(n, self._config("sharded"))
        # The first qualifying round spawns the shard pool and sizes its
        # shared-memory segment.
        self.net.exchange(self._round())

    def _round(self) -> Any:
        import numpy as np

        from repro.ncc.message import BatchBuilder

        builder = BatchBuilder(kind="perm", dtype=np.int64)
        builder.add_arrays(*self.cols)
        return builder

    def run(self) -> Any:
        net = self.net
        before = (net.round_index, net.stats.messages, net.stats.bits)
        for _ in range(self.rounds):
            delivered = net.exchange(self._round())
        return before, delivered

    def check(self, out: Any) -> tuple[Counts, str | None]:
        import numpy as np

        from repro.ncc.message import gather_typed_spans

        (r0, m0, b0), delivered = out
        net = self.net
        n, k = self.n, self.MSGS_PER_NODE
        counts = (
            net.round_index - r0,
            net.stats.messages - m0,
            net.stats.bits - b0,
        )
        expected = (self.rounds, self.rounds * n * k, self.rounds * self.round_bits)
        if counts != expected:
            return counts, f"counts {counts} != closed form {expected}"
        if net.stats.max_received_per_round != k or net.stats.violation_count:
            return counts, "receive load differs from the permutation round"
        reason = getattr(net.engine, "_disabled_reason", None)
        if reason is not None:
            return counts, f"sharded engine degraded to batched: {reason}"
        cols = gather_typed_spans(delivered)
        if cols is None or len(delivered) != n:
            return counts, "last round's inboxes are not whole typed columns"
        dsts, pays = cols
        src, slot = pays // k, pays % k
        in_order = (dsts[1:] > dsts[:-1]) | (
            (dsts[1:] == dsts[:-1]) & (pays[1:] > pays[:-1])
        )
        ok = (
            len(pays) == n * k
            and np.array_equal(np.sort(pays), np.arange(n * k))
            and np.array_equal(dsts, (src + self.shifts[slot]) % n)
            and bool(in_order.all())
        )
        if not ok:
            return counts, "delivered inboxes differ from the permutation round"
        return counts, None

    def teardown(self) -> None:
        from repro.ncc.sharded import workers

        workers.close_pool()
        self.net = None

    def diagnostics(self) -> dict[str, Any]:
        engine = self.net.engine if self.net is not None else None
        return {
            "shards": getattr(engine, "shards", None),
            "sharded_degraded_reason": getattr(engine, "_disabled_reason", None),
            "shard_incidents": len(getattr(engine, "incidents", ())),
        }

    def layer_extras(self, wall_s: float) -> dict[str, float]:
        """The same rounds on the single-process batched engine."""
        import gc

        from repro import NCCNetwork

        net = NCCNetwork(self.n, self._config("batched"))
        net.exchange(self._round())
        times = []
        for _ in range(2):
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(self.rounds):
                net.exchange(self._round())
            times.append(time.perf_counter() - t0)
        batched_s = statistics.median(times) / self.rounds
        sharded_s = wall_s / self.rounds
        return {
            "ncc.sharded.batched_s": batched_s,
            "ncc.sharded.speedup": batched_s / sharded_s,
        }


WORKLOADS = {
    cls.name: cls for cls in (MSTSmallRounds, AggTypedBulk, SweepPooled, ShardedBulk)
}
