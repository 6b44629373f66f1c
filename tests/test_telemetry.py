"""The telemetry subsystem: tracer, metrics, exporters, bounds, sweep merge.

The contract under test (ROADMAP "Experiment surface" +
``docs/OBSERVABILITY.md``): telemetry is *observational*.  Installing a
tracer changes no canonical byte — ``RunReport.to_json_line()`` is
pinned byte-identical with tracing on and off — the structure of a trace
(kinds, names, field dicts, in order) is a deterministic function of the
spec, and only ``perf_counter`` timestamps vary between runs.
"""

import json
import os

import pytest

from repro.api import RunSpec, Session
from repro.telemetry import (
    METRICS,
    MetricRegistry,
    Tracer,
    current_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)
from repro.telemetry.bounds import bounds_rows, evaluate_bound, render_bounds
from repro.telemetry.export import (
    build_chrome_doc,
    load_trace,
    payload_rows,
    run_metas,
    summarize,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.telemetry.sweep import SweepTelemetry


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_records_in_completion_order(self):
        tr = Tracer(label="t")
        tr.begin("outer")
        tr.begin("inner", depth=2)
        tr.end()
        tr.end(rounds=3)
        assert tr.structure() == [
            ("span", "inner", {"depth": 2}),
            ("span", "outer", {"rounds": 3}),
        ]

    def test_event_and_add_span(self):
        tr = Tracer()
        tr.event("violation", node=3, count=9)
        t0 = tr.now()
        tr.add_span("round", t0, tr.now(), round=0, messages=4)
        kinds = [(kind, name) for kind, name, _ in tr.structure()]
        assert kinds == [("event", "violation"), ("span", "round")]

    def test_end_tolerates_empty_stack(self):
        tr = Tracer()
        tr.end()  # tracer installed mid-phase: exit without the enter
        assert tr.structure() == []

    def test_span_contextmanager(self):
        tr = Tracer()
        with tr.span("work", key=1):
            pass
        assert tr.structure() == [("span", "work", {"key": 1})]

    def test_install_uninstall_restores_slot(self):
        # baseline is None normally, the replay tracer under --tracing
        baseline = current_tracer()
        outer = Tracer()
        prev = install_tracer(outer)
        try:
            assert prev is baseline
            with tracing(label="inner") as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        finally:
            uninstall_tracer(prev)
        assert current_tracer() is baseline

    def test_payload_is_plain_data(self):
        tr = Tracer(label="p")
        tr.event("x", k=1)
        payload = tr.to_payload()
        assert payload["meta"] == {"label": "p"}
        assert json.loads(json.dumps(payload))  # picklable/serializable shape
        assert set(payload) == {"meta", "records", "counters"}


# ----------------------------------------------------------------------
# Metric registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_get_or_create(self):
        reg = MetricRegistry()
        c = reg.counter("x.y")
        c.inc()
        c.inc(4)
        assert reg.counter("x.y") is c
        assert reg.snapshot()["x.y"] == 5

    def test_name_collision_rejected(self):
        reg = MetricRegistry()
        reg.counter("dup")
        with pytest.raises(ValueError):
            reg.register_source("dup", lambda: 0)
        reg.register_source("src", lambda: 7)
        with pytest.raises(ValueError):
            reg.counter("src")

    def test_snapshot_sorted_and_reads_sources(self):
        reg = MetricRegistry()
        reg.counter("b").inc(2)
        reg.register_source("a", lambda: 9)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a"] == 9 and snap["b"] == 2

    def test_delta_keeps_nonzero_movements_only(self):
        before = {"a": 1, "b": 5}
        after = {"a": 1, "b": 9, "c": 2}
        assert MetricRegistry.delta(before, after) == {"b": 4, "c": 2}

    def test_global_registry_exposes_hotpath_sources(self):
        snap = METRICS.snapshot()
        assert "ncc.messages_constructed" in snap
        assert "ncc.payload_boxes" in snap


# ----------------------------------------------------------------------
# The observational contract (the acceptance pins)
# ----------------------------------------------------------------------
def _run_traced(spec):
    with tracing(label="test") as tr:
        report = Session().run(spec)
    return report, tr


class TestObservationalContract:
    def test_canonical_jsonl_byte_identical_with_tracing(self):
        spec = RunSpec("mis", 24, seed=3)
        plain = Session().run(spec)
        traced, _ = _run_traced(spec)
        assert traced.to_json_line() == plain.to_json_line()

    def test_trace_structure_is_deterministic(self):
        spec = RunSpec("matching", 24, seed=5)
        _, tr1 = _run_traced(spec)
        _, tr2 = _run_traced(spec)
        assert tr1.structure() == tr2.structure()

    def test_run_span_carries_spec_and_totals(self):
        spec = RunSpec("mis", 16, seed=1)
        report, tr = _run_traced(spec)
        runs = [r for r in tr.structure() if r[1] == "run"]
        assert len(runs) == 1
        fields = runs[0][2]
        assert fields["algorithm"] == "mis"
        assert fields["n"] == 16
        assert fields["rounds"] == report.rounds
        assert fields["messages"] == report.messages

    def test_round_and_phase_spans_reconcile_with_stats(self):
        spec = RunSpec("mis", 16, seed=1)
        report, tr = _run_traced(spec)
        rounds = [f for kind, name, f in tr.structure() if name == "round"]
        assert len(rounds) == report.rounds
        assert sum(f["messages"] for f in rounds) == report.messages


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_doc():
    with tracing(label="doc-fixture") as tr:
        Session().run(RunSpec("mis", 16, seed=1))
    return build_chrome_doc(payload_rows(tr))


class TestExport:
    def test_chrome_doc_shape(self, traced_doc):
        assert set(traced_doc) == {"displayTimeUnit", "otherData", "traceEvents"}
        events = traced_doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata first
        assert events[0]["args"]["name"] == "doc-fixture"
        for ev in events[1:]:
            assert ev["ph"] in ("X", "i")
            assert ev["pid"] == 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        rows = traced_doc["otherData"]["rows"]
        assert rows[0]["pid"] == 0
        assert "ncc.messages_constructed" in rows[0]["counters"]

    def test_payload_rows_pid_scheme(self):
        parent = Tracer(label="p")
        rows = payload_rows(parent, [(0, {"records": []}), (2, {})])
        # empty row payloads are dropped; row i maps to pid i + 1
        assert [pid for pid, _ in rows] == [0, 1]

    def test_write_load_roundtrip_and_sorted_keys(self, tmp_path, traced_doc):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, traced_doc)
        assert load_trace(path) == traced_doc
        raw = open(path, encoding="utf-8").read()
        assert raw == json.dumps(traced_doc, sort_keys=True) + "\n"

    def test_load_rejects_non_trace(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_events_jsonl_skips_metadata(self, tmp_path, traced_doc):
        path = str(tmp_path / "events.jsonl")
        write_events_jsonl(path, traced_doc)
        lines = [json.loads(ln) for ln in open(path, encoding="utf-8")]
        assert lines
        assert all(ev["ph"] != "M" for ev in lines)

    def test_summarize_mentions_runs_and_phases(self, traced_doc):
        text = summarize(traced_doc)
        assert "algorithm=mis" in text
        assert "phase" in text
        assert "counters:" in text

    def test_run_metas(self, traced_doc):
        metas = run_metas(traced_doc)
        assert len(metas) == 1
        assert metas[0]["algorithm"] == "mis"
        assert metas[0]["pid"] == 0


# ----------------------------------------------------------------------
# Bounds evaluation
# ----------------------------------------------------------------------
class TestBounds:
    def test_plain_power_log(self):
        budget, note = evaluate_bound("O(log^4 n)", n=16)
        assert budget == pytest.approx(4.0**4)
        assert note == ""

    def test_sum_and_product(self):
        # (a + D + log n) log n with D = log2 n = 4
        budget, _ = evaluate_bound("O((a + D + log n) log n)", n=16, a=2)
        assert budget == pytest.approx((2 + 4 + 4) * 4)

    def test_fractional_log_power(self):
        budget, _ = evaluate_bound("O((a + log n) log^{3/2} n)", n=16, a=2)
        assert budget == pytest.approx((2 + 4) * 4**1.5)

    def test_log_w_and_qualifier_note(self):
        budget, note = evaluate_bound(
            "O(log W log n) per invocation", n=16, W=1024
        )
        assert budget == pytest.approx(10 * 4)
        assert note == "per invocation"

    def test_every_registered_bound_evaluates(self):
        from repro.registry import get_algorithm, iter_algorithms

        checked = 0
        for spec in iter_algorithms():
            bound = getattr(spec, "bound", None)
            if not bound:
                continue
            evaluated = evaluate_bound(bound, n=64, a=3)
            assert evaluated is not None, f"{spec.name}: {bound!r} did not parse"
            assert evaluated[0] > 0
            checked += 1
        assert checked >= 5
        assert get_algorithm("mst").bound  # the Table 1 anchor stays bound

    def test_unparseable_bounds_return_none(self):
        assert evaluate_bound("polylog(n)", n=16) is None
        assert evaluate_bound("O(import os)", n=16) is None
        assert evaluate_bound("O(__builtins__)", n=16) is None

    def test_bounds_rows_and_render(self, traced_doc):
        rows = bounds_rows(traced_doc)
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == "mis"
        assert row["budget"] and row["ratio"]
        text = render_bounds(traced_doc)
        assert "mis" in text and "ratio" in text

    def test_render_empty_trace(self):
        text = render_bounds({"traceEvents": []})
        assert "no run spans" in text


# ----------------------------------------------------------------------
# Sweep telemetry: serial and pooled rows merge into one document
# ----------------------------------------------------------------------
def _grid():
    return [RunSpec("mis", 16, seed=s) for s in (0, 1)] + [
        RunSpec("matching", 16, seed=0)
    ]


class TestSweepTelemetry:
    def test_serial_rows_collected_and_finalized(self, tmp_path):
        tele = SweepTelemetry(str(tmp_path / "tele"))
        with Session() as session:
            reports = session.run_many(_grid(), telemetry=tele)
        assert sorted(tele.rows) == [0, 1, 2]
        paths = tele.finalize()
        doc = load_trace(paths["trace"])
        metas = run_metas(doc)
        assert [m["pid"] for m in metas] == [1, 2, 3]
        assert {m["algorithm"] for m in metas} == {"mis", "matching"}
        assert os.path.exists(paths["events"])
        summary = open(paths["summary"], encoding="utf-8").read()
        assert "algorithm=matching" in summary
        assert len(reports) == 3

    def test_serial_jsonl_byte_identical_with_telemetry(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        traced = tmp_path / "traced.jsonl"
        with Session() as session:
            session.run_many(_grid(), out=str(plain))
        tele = SweepTelemetry(str(tmp_path / "tele"))
        with Session() as session:
            session.run_many(_grid(), out=str(traced), telemetry=tele)
        assert traced.read_bytes() == plain.read_bytes()

    def test_persistent_pool_rows_ship_traces(self, tmp_path):
        from repro.workers import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        tele = SweepTelemetry(str(tmp_path / "tele"))
        with Session() as session:
            reports = session.run_many(_grid(), jobs=2, telemetry=tele)
        assert len(reports) == 3
        assert sorted(tele.rows) == [0, 1, 2]
        doc = tele.build_doc()
        # parent track (pid 0) + one track per row
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert pids == {0, 1, 2, 3}
        # pool lifecycle events land on the parent track
        names = {
            ev["name"]
            for ev in doc["traceEvents"]
            if ev["pid"] == 0 and ev["ph"] == "i"
        }
        assert "pool-dispatch" in names

    def test_pool_jsonl_byte_identical_with_telemetry(self, tmp_path):
        from repro.workers import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no shared memory on this host")
        plain = tmp_path / "plain.jsonl"
        traced = tmp_path / "traced.jsonl"
        with Session() as session:
            session.run_many(_grid(), jobs=2, out=str(plain))
        tele = SweepTelemetry(str(tmp_path / "tele"))
        with Session() as session:
            session.run_many(_grid(), jobs=2, out=str(traced), telemetry=tele)
        assert traced.read_bytes() == plain.read_bytes()


# ----------------------------------------------------------------------
# Degradation reasons (satellite: sharded fallbacks must carry *why*)
# ----------------------------------------------------------------------
class TestDegradationEvents:
    def test_no_shared_memory_reason(self, monkeypatch):
        np = pytest.importorskip("numpy")
        import repro.workers as workers_mod
        from repro import Enforcement, NCCConfig, NCCNetwork
        from repro.ncc.message import BatchBuilder
        from repro.ncc.sharded import CUTOFF_EXTRA

        monkeypatch.setattr(workers_mod, "shared_memory_available", lambda: False)
        cfg = NCCConfig(
            engine="sharded", shards=2, seed=1,
            enforcement=Enforcement.COUNT, extras={CUTOFF_EXTRA: 1},
        )
        nw = NCCNetwork(16, cfg)
        out = BatchBuilder(kind="t", dtype=np.int64)
        src = np.repeat(np.arange(16, dtype=np.int64), 3)
        shift = np.tile(np.arange(1, 4, dtype=np.int64), 16)
        out.add_arrays(src, (src + shift) % 16, src * 10 + shift)
        with tracing() as tr:
            inbox = nw.exchange(out)
        assert inbox  # the round still delivers, single-process
        degraded = [
            f for _, name, f in tr.structure() if name == "sharded-degraded"
        ]
        assert degraded == [{"reason": "no-shared-memory", "shards": 2}]
        assert nw.engine._disabled_reason == "no-shared-memory"

    def test_degrade_event_fires_once(self):
        from repro.ncc.sharded.engine import ShardedEngine

        class _Net:
            class config:
                shards = 1
                extras = {}

            n = 4

        eng = ShardedEngine.__new__(ShardedEngine)
        eng.shards = 1
        eng._disabled = False
        eng._disabled_reason = None
        with tracing() as tr:
            eng._degrade("all-workers-dead")
            eng._degrade("no-shared-memory")  # idempotent: first reason wins
        assert eng._disabled_reason == "all-workers-dead"
        events = [name for _, name, _ in tr.structure()]
        assert events == ["sharded-degraded"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_run_trace_and_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "out.json")
        assert main(["run", "mis", "--n", "16", "--seed", "1",
                     "--trace", trace]) == 0
        err = capsys.readouterr().err
        assert "trace written" in err
        assert main(["trace", trace]) == 0
        out = capsys.readouterr().out
        assert "algorithm=mis" in out
        assert main(["trace", trace, "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_main_tolerates_broken_pipe(self, tmp_path, monkeypatch):
        # `repro trace FILE | head -n 1` closes stdout early; the CLI must
        # exit 0, not traceback (verify.sh runs exactly that pipeline).
        import sys

        from repro.cli import main

        trace = str(tmp_path / "out.json")
        assert main(["run", "mis", "--n", "16", "--seed", "1",
                     "--trace", trace]) == 0

        sink = open(tmp_path / "sink", "w")  # real fd for the dup2 recovery
        try:
            class _ClosedPipe:
                def write(self, s):
                    raise BrokenPipeError

                def flush(self):
                    pass

                def fileno(self):
                    return sink.fileno()

            monkeypatch.setattr(sys, "stdout", _ClosedPipe())
            assert main(["trace", trace]) == 0
        finally:
            sink.close()

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["trace", str(bad)]) == 2
        assert "trace" in capsys.readouterr().err

    def test_sweep_telemetry_dir(self, tmp_path, capsys):
        from repro.cli import main

        tele = str(tmp_path / "tele")
        out = str(tmp_path / "rows.jsonl")
        assert main(["sweep", "--algos", "mis", "--ns", "16", "--seeds",
                     "0:2", "--out", out, "--telemetry", tele]) == 0
        err = capsys.readouterr().err
        assert "telemetry written" in err
        doc = load_trace(os.path.join(tele, "trace.json"))
        assert len(run_metas(doc)) == 2
        for name in ("trace.json", "events.jsonl", "summary.txt"):
            assert os.path.exists(os.path.join(tele, name))
