"""Experiment-API sweep gates: pool speedups + determinism.

Three claims behind ``Session.run_many``:

* **P-SWEEP (2-worker speedup)** — on ≥ 2 cores, fanning a grid out over
  a fresh persistent pool of two workers (spawn included) beats running
  it serially.  Gated at ≥ 1.2× with jobs=2 — conservative so CI runners
  with noisy neighbours pass, while still failing if the pool ever
  serializes.
* **P-POOL (persistent speedup)** — on ≥ 4 cores, the persistent worker
  service (warm workers + shared-memory workload handoff) beats serial by
  ≥ 1.6× with jobs=4; a warm-pool rerun must not be slower than the cold
  one that paid worker spawn.
* **byte-determinism** — serial, jobs=2, cold jobs=4, and warm jobs=4
  report streams are byte-identical (also pinned per-spec in
  ``tests/test_session.py`` / ``tests/test_pool.py``; here it rides along
  on the big grid for free).

Timings land in ``BENCH_engine.json`` under ``sweep_session`` so the CI
artifact tracks sweep throughput across PRs (the artifact-presence check
in ``scripts/verify.sh`` fails if the section goes missing again).
"""

import os
import time

import pytest

from repro.api import Session, shared_memory_available, sweep_grid

from .conftest import emit_bench_json, run_once

SEED = 1

#: the gated grid: heavy enough that per-run work dominates pool overhead
#: (~10 s serial), small enough for CI.
GRID = sweep_grid(["mst", "mis", "matching"], [48, 64], seeds=[0, 1])


def _timed(session: Session, jobs: int):
    t0 = time.perf_counter()
    reports = session.run_many(GRID, jobs=jobs)
    return [r.to_json_line() for r in reports], time.perf_counter() - t0


def test_sweep_parallel_speedup(benchmark, report):
    cores = os.cpu_count() or 1
    shm = shared_memory_available()

    serial_lines, serial_s = _timed(Session(), jobs=1)
    if shm:
        with Session() as s:
            two_lines, two_s = _timed(s, jobs=2)
        with Session() as s:
            cold_lines, cold_s = _timed(s, jobs=4)
            warm_lines, warm_s = _timed(s, jobs=4)
    else:  # pragma: no cover - containers with a masked /dev/shm
        two_lines = cold_lines = warm_lines = serial_lines
        two_s = cold_s = warm_s = float("nan")

    assert two_lines == serial_lines, "jobs=2 sweep is not deterministic"
    assert cold_lines == serial_lines, "persistent sweep is not deterministic"
    assert warm_lines == serial_lines, "warm pool reuse is not deterministic"

    two_speedup = serial_s / two_s if two_s else float("inf")
    cold_speedup = serial_s / cold_s if cold_s else float("inf")
    warm_speedup = serial_s / warm_s if warm_s else float("inf")
    emit_bench_json(
        "sweep_session",
        {
            "grid_runs": len(GRID),
            "cores": cores,
            "shm_available": shm,
            "serial_s": round(serial_s, 3),
            "persistent_jobs2_s": round(two_s, 3),
            "speedup_persistent_jobs2": round(two_speedup, 2),
            "persistent_jobs4_s": round(cold_s, 3),
            "speedup_persistent_jobs4": round(cold_speedup, 2),
            "persistent_warm_jobs4_s": round(warm_s, 3),
            "speedup_persistent_warm_jobs4": round(warm_speedup, 2),
        },
    )
    report(
        f"Session sweep throughput ({len(GRID)} runs: 3 algos x 2 sizes x 2 seeds)\n"
        f"  cores={cores}  shm={'yes' if shm else 'no'}  serial={serial_s:.2f}s\n"
        f"  persistent jobs=2: {two_s:.2f}s ({two_speedup:.2f}x)   "
        f"jobs=4: {cold_s:.2f}s ({cold_speedup:.2f}x)   "
        f"warm: {warm_s:.2f}s ({warm_speedup:.2f}x)\n"
        f"  JSONL byte-identical across jobs: yes"
    )

    if cores < 2 or not shm:
        pytest.skip(
            "speedup gates need >= 2 cores and shared memory; "
            "determinism still checked"
        )
    assert two_speedup >= 1.2, (
        f"jobs=2 sweep not measurably faster: {two_speedup:.2f}x "
        f"(serial {serial_s:.2f}s vs jobs=2 {two_s:.2f}s)"
    )
    if cores < 4:
        pytest.skip("persistent jobs=4 gate needs >= 4 cores")
    assert cold_speedup >= 1.6, (
        f"persistent pool under its gate: {cold_speedup:.2f}x "
        f"(serial {serial_s:.2f}s vs jobs=4 {cold_s:.2f}s)"
    )
    assert warm_s <= cold_s * 1.1, (
        f"warm pool reuse slower than cold spawn: {warm_s:.2f}s vs {cold_s:.2f}s"
    )


def test_sweep_caching_amortizes_setup(benchmark, report):
    """Per-n butterfly/workload caching: re-running a spec in one session
    must not rebuild the instance (same objects, same report bytes)."""
    session = Session()
    spec = GRID[1]
    first = session.run(spec)
    workloads = dict(session._workload_cache)
    grids = dict(session._bf_cache)
    second = session.run(spec)
    assert session._workload_cache == workloads
    assert session._bf_cache == grids
    assert first.to_json_line() == second.to_json_line()
    run_once(benchmark, lambda: session.run(spec))
