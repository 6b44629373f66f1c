"""Experiment E-SHARD — sharded vs batched engine at simulation scale.

The sharded engine is certified byte-identical to the single-process
batched engine (``tests/test_engine_parity.py``, ``tests/test_sharded.py``),
so — like E-ENG — this benchmark measures the one thing allowed to
differ: wall time, here at the n = 10^5 and n = 10^6 scales the engine
exists for.  The workload is the clean typed round the distributed path
is built around: every node sends ``MSGS_PER_NODE`` int64 messages along
shifted permutations, submitted as one typed column build per round
(fresh columns every round, the primitives' shape), so a round is one
block split + shuffle + merge on the sharded engine and one argsort on
the batched engine.  Each row times the whole round (build + ``exchange``,
what a primitive pays) and also its two parts: the ``BatchBuilder`` column
build, which both engines share, and the ``exchange`` that differs.

The ``sharded_ladder`` section is persisted to ``BENCH_engine.json``
*unconditionally* — the n = 10^6 completion row is an acceptance
artifact — and only the perf gate is skipped on small hosts: below
``MIN_CORES`` cores the worker pool cannot beat the single-process
argsort (the shuffle is pure IPC overhead when parent and workers share
one core), so no speedup assertion is meaningful there.  Stats parity is
asserted on every measured run; full inbox equality is asserted at the
smaller n (it is an O(messages) re-walk that would dominate the 10^6
timing budget without adding coverage — the byte-identity tests own that
invariant at every scale class).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import Enforcement, NCCConfig, NCCNetwork
from repro.analysis.reporting import format_table
from repro.ncc.message import BatchBuilder
from repro.ncc.sharded import workers as shard_workers

from .conftest import emit_bench_json, run_once

MSGS_PER_NODE = 4
MIN_CORES = 4

#: (n, timed rounds, repeats) — fewer samples at 10^6 where one round is
#: itself seconds of work and the simulation is deterministic anyway.
LADDER = ((100_000, 3, 2), (1_000_000, 2, 1))


def _typed_round(n: int) -> BatchBuilder:
    out = BatchBuilder(kind="bench", dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), MSGS_PER_NODE)
    shift = np.tile(np.arange(1, MSGS_PER_NODE + 1, dtype=np.int64), n)
    out.add_arrays(src, (src + shift) % n, src * 10 + shift)
    return out


def _fresh_net(engine: str, n: int) -> NCCNetwork:
    return NCCNetwork(
        n, NCCConfig(seed=0, enforcement=Enforcement.COUNT, engine=engine)
    )


def _time_engine(engine: str, n: int, rounds: int, repeats: int):
    """Best-of-repeats seconds per end-to-end typed ``exchange`` round
    (including the column build — that is what a primitive pays) as
    ``(total, build, exchange)``, plus the last network."""
    best = (float("inf"), 0.0, 0.0)
    net = None
    for _ in range(repeats):
        net = _fresh_net(engine, n)
        net.exchange(_typed_round(n))  # warmup: pool spawn + allocations
        build = exchange = 0.0
        for _ in range(rounds):
            t0 = time.perf_counter()
            out = _typed_round(n)
            t1 = time.perf_counter()
            net.exchange(out)
            build += t1 - t0
            exchange += time.perf_counter() - t1
        best = min(best, ((build + exchange) / rounds, build / rounds, exchange / rounds))
    return best, net


def test_sharded_ladder(benchmark, report):
    """E-SHARD: rounds/sec ladder at n = 10^5 and 10^6, batched vs
    sharded.  The 10^6 sharded row completing at all is an acceptance
    criterion; the speedup gate only applies on hosts with enough cores
    for the pool to be more than IPC overhead."""
    cores = os.cpu_count() or 1
    rows = []
    json_rows = []
    speedup_at_1m = None
    for n, rounds, repeats in LADDER:
        (t_bat, build_bat, xchg_bat), net_bat = _time_engine("batched", n, rounds, repeats)
        (t_sh, build_sh, xchg_sh), net_sh = _time_engine("sharded", n, rounds, repeats)
        assert (
            net_bat.stats.comparable() == net_sh.stats.comparable()
        ), f"engines diverged at n={n} — parity violated"
        if n == LADDER[0][0]:
            # Full inbox byte-equality once, at the cheap scale.
            assert net_bat.exchange(_typed_round(n)) == net_sh.exchange(
                _typed_round(n)
            ), f"inboxes diverged at n={n}"
        eng = net_sh.engine
        speedup = t_bat / t_sh
        if n == 1_000_000:
            speedup_at_1m = speedup
        parts = [build_bat, xchg_bat, build_sh, xchg_sh]
        rows.append(
            [n, n * MSGS_PER_NODE, eng.shards,
             round(1.0 / t_bat, 3), round(1.0 / t_sh, 3), round(speedup, 2),
             "yes" if not eng._disabled else "degraded",
             *(round(1000 * t, 1) for t in parts)]
        )
        json_rows.append(
            [n, n * MSGS_PER_NODE, eng.shards,
             round(1.0 / t_bat, 4), round(1.0 / t_sh, 4), round(speedup, 3),
             *(round(t, 4) for t in parts)]
        )
    shard_workers.close_pool()  # don't leak the 10^6-sized segment
    emit_bench_json(
        "sharded_ladder",
        {
            "cores": cores,
            "min_cores_for_gate": MIN_CORES,
            "gated": cores >= MIN_CORES,
            "msgs_per_node": MSGS_PER_NODE,
            "speedup_n1e6": round(speedup_at_1m, 3),
            "columns": [
                "n", "msgs_per_round", "shards",
                "batched_rounds_per_s", "sharded_rounds_per_s", "speedup",
                "batched_build_s", "batched_exchange_s",
                "sharded_build_s", "sharded_exchange_s",
            ],
            "rows": json_rows,
        },
    )
    report(
        format_table(
            ["n", "msgs/round", "shards",
             "batched rounds/s", "sharded rounds/s", "speedup", "completed",
             "batched build ms", "batched exchange ms",
             "sharded build ms", "sharded exchange ms"],
            rows,
            title=(
                f"E-SHARD  Sharded engine ladder on {cores} core(s) "
                "(acceptance: the n=10^6 sharded row completes; speedup "
                f"gated at >= {MIN_CORES} cores)"
            ),
        )
    )
    run_once(benchmark, lambda: None)
    if cores < MIN_CORES:
        pytest.skip(
            f"{cores} core(s): the shard pool shares the parent's core, so "
            "a speedup gate would only measure IPC overhead "
            "(ladder emitted above)"
        )
    # Enough cores for the pool to do real work: the distributed delivery
    # must at least roughly keep pace with single-process at 10^6 (the
    # lenient floor tolerates shared CI boxes; the ladder records the
    # actual trajectory).
    assert speedup_at_1m >= 0.8, (
        f"sharded delivery fell to {speedup_at_1m:.2f}x batched at n=10^6 "
        f"on {cores} cores"
    )
