#!/usr/bin/env python3
"""Steadiness report for the benchmark: is a metric resolved, and did it move?

Run one workload once per seed and summarize every metric::

    python3 perfbench/steadiness.py --workload agg-typed-bulk --runs 10 --out a.json

For each metric it prints the median, the quartiles and the relative spread
``(Q3 - Q1) / median`` (quartiles from ``statistics.quantiles(values,
n=4)``) next to the metric's bound from ``BENCHMARK.json``:

``steady``      spread below a third of the bound;
``within``      spread at most the bound;
``unresolved``  spread above the bound: the metric cannot tell a change of
                the bound's size from noise.

``--repeat-first`` reruns the first seed at the end and requires the exact
counts (``sim_*``) to repeat across processes.

Compare two saved reports (parent first) to label each metric::

    python3 perfbench/steadiness.py --compare parent.json change.json

``better`` / ``worse`` when every run of one side beats every run of the
other or the medians differ by more than the bound; ``unresolved`` when
the spread of either side exceeds the bound; ``unchanged`` otherwise.
The exact counts (``sim_*``) are compared seed by seed instead, over the
seeds both reports ran: ``unchanged`` only when every seed's count is
identical, ``better`` / ``worse`` when every differing seed moved the same
way, ``changed`` when they moved both ways.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def bounds() -> dict[str, tuple[float | None, str]]:
    """metric -> (bound or None, better) from ``BENCHMARK.json``."""
    spec = json.loads(BENCHMARK.read_text())
    out: dict[str, tuple[float | None, str]] = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = (m["bound"], m["better"])
    for m in spec["per_layer"]:
        out[m["name"]] = (None, m["better"])
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    limits = bounds()
    summary: dict[str, dict[str, Any]] = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        bound = limits.get(name, (None, ""))[0]
        if bound is None:
            verdict = "-"
        elif rel < bound / 3:
            verdict = "steady"
        elif rel <= bound:
            verdict = "within"
        else:
            verdict = "unresolved"
        summary[name] = {
            "median": med, "q1": q1, "q3": q3, "spread": rel,
            "bound": bound, "verdict": verdict, "values": values,
        }
    return summary


def print_summary(summary: dict[str, dict[str, Any]]) -> None:
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, s in summary.items():
        bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
        print(f"{name:<36} {s['median']:>14.6g} {s['q1']:>14.6g} "
              f"{s['q3']:>14.6g} {s['spread']:>8.2%} {bound:>6}  {s['verdict']}")


def compare_exact(
    name: str, better: str, parent: dict[str, Any], change: dict[str, Any]
) -> str | None:
    """Seed-by-seed label of an exact count, or None without shared seeds."""

    def by_seed(report: dict[str, Any]) -> dict[int, float]:
        return {r["seed"]: r["result"]["metrics"][name]["value"] for r in report["runs"]}

    a, b = by_seed(parent), by_seed(change)
    shared = set(a) & set(b)
    if not shared:
        return None
    sign = 1.0 if better == "lower" else -1.0
    # True for a seed whose count got worse, False for one that got better.
    moves = {sign * (b[s] - a[s]) > 0 for s in shared if b[s] != a[s]}
    if not moves:
        return "unchanged"
    if len(moves) == 2:
        return "changed"
    return "worse" if moves == {True} else "better"


def compare(parent: dict[str, Any], change: dict[str, Any]) -> dict[str, str]:
    limits = bounds()
    labels: dict[str, str] = {}
    for name, a in parent["summary"].items():
        b = change["summary"].get(name)
        bound, better = limits.get(name, (None, "lower"))
        if b is None or bound is None:
            continue
        if name.startswith("sim_"):
            exact = compare_exact(name, better, parent, change)
            if exact is not None:
                labels[name] = exact
                continue
        sign = 1.0 if better == "lower" else -1.0
        # Positive = the change is worse.
        delta = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
        if max(b["values"]) * sign < min(a["values"]) * sign:
            labels[name] = "better"
        elif min(b["values"]) * sign > max(a["values"]) * sign and delta > bound:
            labels[name] = "worse"
        elif max(a["spread"], b["spread"]) > bound:
            labels[name] = "unresolved"
        elif delta > bound:
            labels[name] = "worse"
        elif -delta > max(bound, a["spread"]):
            labels[name] = "better"
        else:
            labels[name] = "unchanged"
    return labels


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat-first", action="store_true")
    p.add_argument("--out", help="save the report as JSON")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        for name, label in compare(a, b).items():
            print(f"{name:<36} {label}")
        return 0
    if not args.workload:
        p.error("--workload is required unless --compare is given")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    summary = summarize(runs)
    print_summary(summary)
    status = 0
    if any(not r["result"]["correct"] for r in runs):
        print("FAILED: some runs reported incorrect output")
        status = 1
    if args.repeat_first:
        again = run_once(args.workload, args.first_seed, seconds, args.trace)
        first = runs[0]["result"]["metrics"]
        drift = [
            name for name in first
            if name.startswith("sim_")
            and first[name]["value"] != again["metrics"][name]["value"]
        ]
        print("exact counts repeat across processes" if not drift
              else f"FAILED: counts differ on a rerun: {drift}")
        status = status or (1 if drift else 0)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "trace": args.trace,
             "runs": runs, "summary": summary}, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
