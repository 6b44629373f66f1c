#!/usr/bin/env python3
"""Layer-attributed benchmark of the NCC reproduction: one workload, one seed.

Run from the repository root::

    python3 perfbench/run.py --workload agg-typed-bulk --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the host fingerprint (cores, CPU model, Python, numpy, git sha or a
digest of ``src/``) and the run's diagnostics (sample and set-up times,
the sharded degradation reason, failure messages).

``--trace 0`` measures the end-to-end metrics with tracing off.  Both
timings are quoted at a fixed host speed, because the speed of a shared
2-core x86 cloud host drifts by up to 50% in regimes that last from seconds
to minutes (a fixed pure-Python loop swings between 0.11 and 0.17 s there,
CPU time tracking wall time).  Around every timed interval the benchmark runs the
:class:`Yardstick` (a fixed pure-Python loop, on both cores at once) and
divides the interval by the yardstick's time; ``YARDSTICK_REF_S`` turns the
ratio back into seconds:

``setup_s``
    Median over ``SETUP_REPEATS`` set-ups of ``import repro`` (timed in a
    fresh interpreter) plus the workload's input build and runtime /
    network construction (and shard-pool spawn on sharded-bulk).
``run_s``
    Median over the iterations of one iteration's wall time, after a
    discarded warm-up, with ``gc.collect()`` before each; ``attempted`` is
    the sample count.  The raw wall-time median and the yardstick's median
    are per-layer metrics (``host.wall_run_s``, ``host.yardstick_s``).
``peak_rss_mb``
    Peak resident set size of this process.
``sim_rounds`` / ``sim_msgs`` / ``sim_bits``
    NCC rounds, messages and bits of one iteration: exact, and required to
    repeat on every iteration.

Every iteration's output is checked (see each workload's ``check`` in
:mod:`workloads`); an iteration that raises, fails its check, or reports
other counts than the first iteration counts as failed.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of :mod:`layers` instead (plus ``failed_frac``, the
failed share of all iterations).  It keeps the last traced iteration's
spans in memory and writes them as a Chrome trace, with the per-layer
numbers, under ``perfbench/out/``.

Run in a directory without the ``repro`` sources it exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

# One numpy thread per process: the benchmark owns at most two worker
# processes besides itself and is meant for a 2-core host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: seconds of one yardstick loop at the host speed the timings are quoted at
#: (about its time on a 2-core x86 cloud host in a fast period).
YARDSTICK_REF_S = 0.03

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro; "
    "repro.algorithm_names(); repro.scenario_names(); repro.Session; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """``import repro`` (registries loaded) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(out.stdout.split()[-1])


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    shared memory, so the run leaves no process behind (every pool and
    segment is closed by the workload's teardown before this)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
        sha = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def yardstick_loop() -> float:
    """Seconds of a fixed pure-Python loop (~0.03 s)."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    s = 0
    for i in range(150_000):
        table[i & 1023] = s
        s += i * 7 % 13
    return time.perf_counter() - t0


def _yardstick_helper(conn: Any, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(yardstick_loop())
    conn.close()


class Yardstick:
    """The host's current speed: :func:`yardstick_loop` timed on two cores
    at the same time, in this process and in one helper process; the
    reading is the mean.  The pooled and sharded workloads run on both
    cores; a single-process workload moves between them, and on this host
    its per-run medians scattered no more against the mean of both cores
    (3.4-3.9% relative deviation over six runs) than against the core it
    was pinned to (3.5-5.4%).

    Each loop is pinned to its own core while it runs (this process only
    for the duration of the reading); unpinned, the scheduler often wakes
    the helper on this process's core, and the reading doubles.  On a
    single-core host the reading is this process's loop alone.
    """

    def __init__(self) -> None:
        import multiprocessing

        self.all_cpus = os.sched_getaffinity(0)
        self.cpus = sorted(self.all_cpus)[:2]
        self.readings: list[float] = []
        self.proc: Any = None
        if len(self.cpus) < 2:
            return
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_yardstick_helper, args=(child, self.cpus[1]), daemon=True
        )
        self.proc.start()
        child.close()
        self.measure()  # the helper's first loop includes its start-up

    def measure(self) -> float:
        if self.proc is None:
            seconds = yardstick_loop()
        else:
            os.sched_setaffinity(0, {self.cpus[0]})
            try:
                self.conn.send(True)
                mine = yardstick_loop()
                seconds = (mine + self.conn.recv()) / 2
            finally:
                os.sched_setaffinity(0, self.all_cpus)
        self.readings.append(seconds)
        return seconds

    def scale(self, seconds: float, before: float) -> float:
        """``seconds`` of an interval that followed the reading ``before``,
        quoted at the reference host speed (takes the reading after it)."""
        speed = (before + self.measure()) / 2
        return seconds * YARDSTICK_REF_S / speed

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.conn.send(False)
        except OSError:
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


class Loop:
    """Runs checked iterations and keeps their times and failures."""

    def __init__(self, workload: Any, yardstick: Yardstick):
        self.wl = workload
        self.yardstick = yardstick
        self.reference: tuple[int, int, int] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: wall seconds of every iteration
        self.wall: list[float] = []

    def iterate(self, run: Callable[[], Any]) -> float:
        """Time one call of ``run`` (after ``gc.collect()``), then check its
        output; returns the seconds it took at the reference host speed."""
        gc.collect()
        before = self.yardstick.measure()
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            out = None
            error: str | None = traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        dt = self.yardstick.scale(wall, before)
        self.wall.append(wall)
        self.attempted += 1
        if out is not None:
            counts, error = self.wl.check(out)
            if error is None and self.reference is None:
                self.reference = counts
            elif error is None and counts != self.reference:
                error = f"counts {counts} != first iteration's {self.reference}"
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        return dt

    def sim(self) -> tuple[int, int, int]:
        return self.reference or (0, 0, 0)


def run_until(deadline_s: float, step: Callable[[], float]) -> None:
    """Call ``step`` (which returns the seconds it took) until the next call
    would end after ``deadline_s`` seconds from now; at least once."""
    start = time.perf_counter()
    durations = [step()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > deadline_s:
            return
        durations.append(step())


def set_up(wl: Any, yardstick: Yardstick) -> tuple[float, list[float]]:
    """Set the workload up ``SETUP_REPEATS`` times, each time after an
    ``import repro`` in a fresh interpreter; returns the median set-up at
    the reference host speed and the wall seconds of each."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        wl.teardown()
        gc.collect()
        before = yardstick.measure()
        seconds = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        seconds += time.perf_counter() - t0
        wall.append(seconds)
        scaled.append(yardstick.scale(seconds, before))
    return statistics.median(scaled), wall


def measure(
    wl: Any, seconds: float, yardstick: Yardstick
) -> tuple[dict[str, Any], Loop, dict]:
    setup_s, setup_wall = set_up(wl, yardstick)
    loop = Loop(wl, yardstick)
    wl.warm_up()
    times: list[float] = []

    def timed_iteration() -> float:
        times.append(loop.iterate(wl.run))
        return loop.wall[-1]

    run_until(seconds, timed_iteration)
    diagnostics = {
        "setup_wall_s": setup_wall,
        "run_times_s": times,
        "run_wall_s": loop.wall,
        "yardstick_s": yardstick.readings,
        **wl.diagnostics(),
    }
    wl.teardown()
    rounds, msgs, bits = loop.sim()
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_rounds": (rounds, "count"),
        "sim_msgs": (msgs, "count"),
        "sim_bits": (bits, "count"),
    }
    return metrics, loop, diagnostics


def per_layer_units() -> dict[str, str]:
    """per-layer metric -> unit, as listed in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def measure_traced(
    wl: Any, seconds: float, seed: int, yardstick: Yardstick
) -> tuple[dict, Loop, dict]:
    import layers
    from repro.telemetry import METRICS, MetricRegistry
    from repro.telemetry.export import (
        build_chrome_doc,
        payload_rows,
        write_chrome_trace,
    )
    from workloads import WORKLOAD_LAYER_METRICS

    wl.setup()
    loop = Loop(wl, yardstick)
    wl.warm_up()
    clock = layers.LayerClock()
    parent: dict[str, float] = {}
    workers: dict[str, float] = {}
    counters: dict[str, int] = {}
    untraced: list[float] = []
    traced: list[float] = []
    last_trace: list[Any] = [None]

    def traced_run() -> Any:
        out, trace, snapshots, worker_counters = wl.run_traced()
        for snap in snapshots:
            layers.add_into(workers, snap)
        layers.add_into(counters, worker_counters)
        last_trace[0] = trace
        return out

    def pair() -> float:
        t_off = loop.iterate(wl.run)
        untraced.append(t_off)
        clock.clear()
        before = METRICS.snapshot()
        clock.install()
        try:
            t_on = loop.iterate(traced_run)
        finally:
            clock.uninstall()
        layers.add_into(counters, MetricRegistry.delta(before, METRICS.snapshot()))
        layers.add_into(parent, clock.snapshot())
        traced.append(t_on)
        return loop.wall[-2] + loop.wall[-1]

    run_until(seconds, pair)
    wall_off, wall_on = loop.wall[0::2], loop.wall[1::2]
    values: dict[str, float] = dict.fromkeys(WORKLOAD_LAYER_METRICS, 0.0)
    values.update(
        layers.derive(
            parent,
            workers,
            counters,
            iterations=len(traced),
            sim=loop.sim(),
            traced_run_s=statistics.mean(wall_on),
        )
    )
    values.update(wl.layer_extras(statistics.median(wall_off)))
    values["telemetry.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    values["failed_frac"] = loop.failed / max(1, loop.attempted)
    values["host.wall_run_s"] = statistics.median(wall_off)
    values["host.yardstick_s"] = statistics.median(yardstick.readings)
    diagnostics = {
        "untraced_s": untraced,
        "traced_s": traced,
        "yardstick_s": yardstick.readings,
        **wl.diagnostics(),
    }
    wl.teardown()

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}"
    trace = last_trace[0]
    if trace is None:
        trace_path = None
    elif hasattr(trace, "finalize"):  # a sweep: one trace directory
        trace.outdir = str(OUT / f"{stem}.trace")
        trace_path = trace.finalize()["trace"]
    else:
        trace_path = str(OUT / f"{stem}.trace.json")
        write_chrome_trace(trace_path, build_chrome_doc(payload_rows(trace)))
    diagnostics["chrome_trace"] = trace_path
    layer_path = OUT / f"{stem}.layers.json"
    layer_path.write_text(
        json.dumps(
            {"workload": wl.name, "seed": seed, "metrics": values,
             "parent": parent, "workers": workers, "counters": counters},
            indent=1,
            sort_keys=True,
        )
    )
    diagnostics["layers_file"] = str(layer_path)
    units = per_layer_units()
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return metrics, loop, diagnostics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: smoke-test sizes (seconds, not minutes)",
    )
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    yardstick = Yardstick()
    try:
        if args.trace:
            metrics, loop, diagnostics = measure_traced(
                wl, args.seconds, args.seed, yardstick
            )
        else:
            metrics, loop, diagnostics = measure(wl, args.seconds, yardstick)
    finally:
        yardstick.close()
    stop_resource_tracker()
    for error in loop.errors:
        print(f"perfbench: failed iteration: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "host": host_fingerprint(),
                "workload": wl.name,
                "seed": args.seed,
                "trace": args.trace,
                "samples": loop.attempted,
                "sim": loop.sim(),
                "errors": loop.errors[:5],
                "diagnostics": diagnostics,
            },
            default=str,
        )
    )
    result = {
        "correct": loop.failed == 0 and loop.reference is not None,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
