"""Smoke tests for the benchmark itself, at tiny sizes.

Not collected by the repository's test suite (the file name does not match
``test_*.py``); run it explicitly::

    python3 -m pytest -q perfbench/smoke.py

Every workload must run, check its outputs, and print every metric named
in ``BENCHMARK.json`` with its unit: the end-to-end metrics untraced, the
per-layer metrics traced.  Without the ``repro`` sources the benchmark must
exit non-zero and print no result.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(workload: str, trace: int) -> dict:
    proc = run(
        "--workload", workload, "--seed", "2", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name, value in metrics.items():
        assert value["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result(workload, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["failed_frac"]["value"] == 0
    # Every round is one NCCNetwork.exchange call.
    assert metrics["ncc.network.idle_rounds"]["value"] == 0
    assert metrics["ncc.network.exchange_calls"]["value"] > 0
    if workload in ("agg-typed-bulk", "sharded-bulk"):
        assert metrics["ncc.message.messages_constructed"]["value"] == 0
        assert metrics["ncc.message.payload_boxes"]["value"] == 0
    if workload == "sharded-bulk":
        assert metrics["ncc.sharded.distributed_frac"]["value"] == 1
        assert metrics["ncc.sharded.degradations"]["value"] == 0
    if workload == "sweep-pooled":
        assert metrics["api.pool.spawn_s"]["value"] > 0
        assert metrics["api.pool.publish_bytes"]["value"] > 0


def test_compare_labels_exact_counts_seed_by_seed():
    sys.path.insert(0, str(HERE))
    import steadiness

    def report(rounds: dict[int, int]) -> dict:
        runs = [
            {"seed": seed, "result": {"metrics": {"sim_rounds": {"value": r}}}}
            for seed, r in rounds.items()
        ]
        values = list(rounds.values())
        return {"runs": runs, "summary": {"sim_rounds": {
            "median": statistics.median(values), "spread": 0.0, "values": values,
        }}}

    parent = report({1: 100, 2: 200})
    assert steadiness.compare(parent, report({1: 100, 2: 200})) == {"sim_rounds": "unchanged"}
    assert steadiness.compare(parent, report({1: 101, 2: 200})) == {"sim_rounds": "worse"}
    assert steadiness.compare(parent, report({1: 99, 2: 200})) == {"sim_rounds": "better"}
    assert steadiness.compare(parent, report({1: 99, 2: 201})) == {"sim_rounds": "changed"}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
