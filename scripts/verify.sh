#!/usr/bin/env bash
# Tier-1 verification plus the engine-parity gates this repo's PRs must keep:
#
#   1. the full test-suite under the reference round engine (tier-1);
#   2. the same suite replayed under the batched round engine and again
#      under the sharded round engine (worker-pool delivery) — every test
#      must pass unchanged because the engines are observably identical —
#      then the benchmark smoke (perfbench/smoke.py: every perfbench
#      workload at tiny size, checked, untraced and traced — the traced
#      run installs perfbench/layers.py's patches, which look each timed
#      method up in its own class body);
#   3. the engine fast-path benchmark (>= 2x engine speedup at n = 1024
#      on a fresh `BatchBuilder` per round through `run_builder`, the call
#      `exchange` makes for the builder every primitive submits, plus
#      stats/drop parity on violating rounds; the plain-list row runs the
#      same canonical walks on both engines and is reported, not gated);
#   4. the columnar-submission benchmark (>= 1.5x end-to-end through
#      `exchange` on aggregation-heavy traffic at n = 1024, a fresh
#      builder per round, plus a full aggregation-run no-regression check);
#   5. the lazy-inbox whole-run gate (>= 2x full-aggregation-run vs the
#      frozen PR 2 baseline at n = 1024, zero Message objects constructed
#      on the clean run, outcome and stats identical to a reference-engine
#      run of the same aggregation);
#   6. the typed payload-column gates (>= 1.3x whole-aggregation-run vs
#      the object-column pipeline at n = 4096, zero Message objects and
#      zero Python payload boxes on the clean typed run), the
#      n = 4096/16384/65536 scale ladder, and a check that both sections
#      actually landed in BENCH_engine.json (the cross-PR trajectory
#      artifact);
#   7. the paper-experiment benchmarks, named file by file (benchmarks/
#      is collected only when a file is named): the five Table 1 rows,
#      model separation, sync fidelity, the three ablations, orientation,
#      the k-machine conversion and the overlay bootstrap;
#   8. the experiment-API sweep gates (Session.run_many byte-deterministic
#      for any jobs value through the serial path and the persistent
#      worker service; >= 1.2x persistent-pool speedup at jobs=2 when
#      >= 2 cores and >= 1.6x at jobs=4 when >= 4 cores), plus a
#      `python -m repro sweep` smoke whose JSONL lands in
#      SWEEP_results.jsonl (override with SWEEP_JSONL) for the CI artifact;
#   9. the scenario subsystem: per-family workload-build/run timings
#      (benchmarks/bench_scenarios.py -> BENCH_engine.json `scenarios`)
#      and a `python -m repro matrix` smoke (>= 6 families x >= 3
#      algorithms) whose JSONL lands in MATRIX_results.jsonl (override
#      with MATRIX_JSONL) next to the sweep artifact;
#  10. the sweep-stress smoke: a 1000-run grid driven through the
#      persistent pool into a sharded result store (SWEEP_store, override
#      with SWEEP_STORE), deliberately stopped at row 400 and resumed via
#      `sweep --resume`, then verified complete — exercising the manifest,
#      the store, and crash-safe resume end to end;
#  11. the sharded-engine ladder (benchmarks/bench_sharded.py ->
#      BENCH_engine.json `sharded_ladder`): batched vs sharded rounds/sec
#      at n = 10^5 and 10^6 — the n = 10^6 sharded row completing is an
#      acceptance artifact on any host; the speedup gate applies only on
#      >= 4 cores (below that the pool shares the parent's core);
#  12. the telemetry gates: the disabled-tracer overhead benchmark
#      (hook firings x guard cost <= 3% of the P-TYPED run ->
#      BENCH_engine.json `telemetry_overhead`), a traced parity replay
#      (tests/test_engine_parity.py under --tracing: live hooks must not
#      change a byte), a traced replay on the batched engine of the
#      network, k-machine, typed-column and telemetry tests (exchange's
#      one round block — span, observer, bookkeeping — with and without a
#      round observer), and a traced smoke — `run --trace` into
#      TRACE_run.json (override with TRACE_RUN_JSON), `repro trace`
#      + `--bounds` summaries of it, and a pooled `sweep --telemetry`
#      whose merged trace/events/summary land in TRACE_sweep/ (override
#      with TRACE_SWEEP_DIR) for the CI artifact;
#  13. reprolint (`python -m repro lint --strict`): the AST invariant
#      checks — determinism, hot-path purity, registry discipline,
#      canonical-schema freeze, engine-parity locality, pool fork-safety,
#      read-only exchange results, telemetry clock containment —
#      fail on any non-baselined finding or a baseline that should have
#      shrunk; the JSON findings document lands in REPROLINT_findings.json
#      (override with REPROLINT_JSON) for the CI artifact;
#  14. a final check that every expected section actually landed in
#      BENCH_engine.json (the cross-PR trajectory artifact) — this is the
#      check that catches a benchmark silently dropping its section, as
#      `sweep_session` once did.
#
# Timings land in BENCH_engine.json (override with BENCH_ENGINE_JSON) so CI
# can archive the perf trajectory across PRs.
#
# Usage: scripts/verify.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The whole package imports numpy (every round engine, the primitives, payload
# sizing); fail up front with a clear message instead of an import traceback.
if ! python -c "import numpy" >/dev/null 2>&1; then
    echo "verify: error: numpy is not installed." >&2
    echo "verify: the repro package requires it at runtime;" >&2
    echo "verify: install it (pip install numpy) and re-run." >&2
    exit 1
fi

echo "== tier-1: reference engine =="
python -m pytest -x -q "$@"

echo "== replay: batched engine =="
python -m pytest -x -q --engine=batched "$@"

echo "== replay: sharded engine =="
python -m pytest -x -q --engine=sharded "$@"

echo "== benchmark smoke (perfbench workloads, tiny, checked) =="
python -m pytest -q perfbench/smoke.py

echo "== engine fast-path benchmark =="
python -m pytest -q benchmarks/bench_engine_fastpath.py

echo "== columnar-submission benchmark =="
python -m pytest -q benchmarks/bench_primitives.py -k "columnar or no_regression"

echo "== lazy-inbox whole-run benchmark =="
python -m pytest -q benchmarks/bench_primitives.py -k "lazy"

echo "== typed payload-column benchmark (gate + scale ladder) =="
python -m pytest -q benchmarks/bench_primitives.py -k "typed_columns"

echo "== paper-experiment benchmarks (Table 1, separation, ablations, k-machine) =="
python -m pytest -q \
    benchmarks/bench_table1_mst.py benchmarks/bench_table1_bfs.py \
    benchmarks/bench_table1_mis.py benchmarks/bench_table1_matching.py \
    benchmarks/bench_table1_coloring.py \
    benchmarks/bench_model_separation.py benchmarks/bench_sync_fidelity.py \
    benchmarks/bench_ablation_broadcast_trees.py \
    benchmarks/bench_ablation_capacity.py benchmarks/bench_ablation_naive.py \
    benchmarks/bench_orientation.py benchmarks/bench_kmachine.py \
    benchmarks/bench_overlay_bootstrap.py

echo "== sweep session benchmark =="
python -m pytest -q benchmarks/bench_sweep.py

echo "== sweep smoke (parallel Session + JSONL) =="
python -m repro sweep --algos mst --ns 32 --seeds 0:2 --jobs 2 --out - \
    > "${SWEEP_JSONL:-SWEEP_results.jsonl}"
echo "sweep smoke wrote $(wc -l < "${SWEEP_JSONL:-SWEEP_results.jsonl}") reports"

echo "== scenario benchmark (per-family build + run timings) =="
python -m pytest -q benchmarks/bench_scenarios.py

echo "== scenario-matrix smoke (6 families x 3 algorithms) =="
python -m repro matrix --algos mis,matching,components \
    --scenarios forest-union,grid,star,cycle,pa-heavy-tail,ring-of-chords \
    --n 24 --jobs 2 --out "${MATRIX_JSONL:-MATRIX_results.jsonl}"
echo "matrix smoke wrote $(wc -l < "${MATRIX_JSONL:-MATRIX_results.jsonl}") reports"

echo "== sweep-stress smoke (1000-run grid, persistent pool, interrupt + resume) =="
SWEEP_STORE="${SWEEP_STORE:-SWEEP_store}"
rm -rf "$SWEEP_STORE"
python -m repro sweep --algos mis --ns 16 --seeds 0:250 \
    --scenarios star,cycle,grid,forest-union \
    --jobs 4 --store "$SWEEP_STORE" --shards 4 --max-rows 400
python -m repro sweep --resume "$SWEEP_STORE/manifest.jsonl" --jobs 4
python - "$SWEEP_STORE" <<'PY'
import sys
from repro.api import Manifest, ResultStore
store = ResultStore.open(sys.argv[1])
mani = Manifest.load(sys.argv[1] + "/manifest.jsonl")
assert store.count() == len(mani.specs) == 1000, (store.count(), len(mani.specs))
assert mani.complete, mani.done_rows
print(f"sweep stress: {store.count()} runs durable across {store.shards} "
      f"shards; interrupt at 400 + resume exercised")
PY

echo "== sharded engine ladder (n = 10^5 and 10^6) =="
python -m pytest -q benchmarks/bench_sharded.py

echo "== telemetry overhead gate (disabled hooks <= 3%) =="
python -m pytest -q benchmarks/bench_primitives.py -k "telemetry"

echo "== traced parity replay (live hooks change nothing) =="
python -m pytest -q tests/test_engine_parity.py tests/test_telemetry.py --tracing

echo "== traced replay on the batched engine (exchange's round block) =="
python -m pytest -q tests/test_network.py tests/test_kmachine.py \
    tests/test_typed_columns.py tests/test_telemetry.py --tracing --engine=batched

echo "== telemetry smoke (run --trace, repro trace, sweep --telemetry) =="
TRACE_RUN_JSON="${TRACE_RUN_JSON:-TRACE_run.json}"
TRACE_SWEEP_DIR="${TRACE_SWEEP_DIR:-TRACE_sweep}"
rm -rf "$TRACE_SWEEP_DIR"
python -m repro run mst --n 64 --trace "$TRACE_RUN_JSON" > /dev/null
python -m repro trace "$TRACE_RUN_JSON" > /dev/null
python -m repro trace "$TRACE_RUN_JSON" --bounds | tail -n 3
python -m repro sweep --algos mis,matching --ns 32 --seeds 0:3 --jobs 2 \
    --telemetry "$TRACE_SWEEP_DIR" --out /dev/null
python -m repro trace "$TRACE_SWEEP_DIR/trace.json" | head -n 1
test -s "$TRACE_SWEEP_DIR/events.jsonl" && test -s "$TRACE_SWEEP_DIR/summary.txt"

echo "== reprolint (static invariant checks) =="
python -m repro lint src tests benchmarks --strict \
    --output "${REPROLINT_JSON:-REPROLINT_findings.json}"

echo "== bench-trajectory artifact check =="
python - <<'PY'
import json, os
path = os.environ.get("BENCH_ENGINE_JSON", "BENCH_engine.json")
with open(path, encoding="utf-8") as fh:
    data = json.load(fh)
required = ("typed_columns", "typed_columns_ladder", "sweep_session", "scenarios",
            "sharded_ladder", "telemetry_overhead")
missing = [s for s in required if s not in data]
assert not missing, f"{path} is missing sections: {missing}"
telem = data["telemetry_overhead"]
assert telem["disabled_overhead_frac"] <= telem["budget"], telem
gate = data["typed_columns"]
assert gate["whole_run_speedup"] >= gate["target"], gate
assert gate["messages_constructed_typed_run"] == 0, gate
assert gate["payload_boxes_typed_run"] == 0, gate
ladder = data["typed_columns_ladder"]
assert set(ladder) == {"4096", "16384", "65536"}, sorted(ladder)
sweep = data["sweep_session"]
assert sweep["grid_runs"] >= 12 and "speedup_persistent_jobs4" in sweep, sweep
shard = data["sharded_ladder"]
assert 1_000_000 in [row[0] for row in shard["rows"]], shard
print(f"{path}: {', '.join(required)} sections present "
      f"({len(data)} sections total)")
PY

echo "verify: all gates passed"
