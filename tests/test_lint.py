"""reprolint: the rule corpus, suppressions, baselines, and output formats.

The fixture files under ``tests/lint_fixtures/`` are deliberate
violations (``*_bad.py``) paired with compliant twins (``*_good.py``);
each carries a ``# reprolint: path=`` directive re-scoping it to the
library path its rule guards.  The corpus directory is skipped by
implicit discovery, so these tests always name fixture files explicitly.
"""

import json
import os

import pytest

from repro.lint import (
    BaselineError,
    Finding,
    UnknownRuleError,
    UsageError,
    discover,
    get_rule,
    iter_rules,
    main,
    rule_ids,
    run_paths,
)
from repro.lint import baseline as baseline_mod
from repro.lint.runner import parse_file

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")

ALL_RULES = ("NCC001", "NCC002", "NCC003", "NCC004", "NCC005", "NCC006", "NCC007")


def fixture(name):
    return os.path.join(FIXTURES, name)


def findings_for(path, rule):
    return run_paths([path], select=[rule]).findings


# ----------------------------------------------------------------------
# The rule corpus: every rule fires on its bad twin, stays silent on good
# ----------------------------------------------------------------------
class TestRuleCorpus:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_bad_fixture_fires(self, rule):
        bad = fixture(f"{rule.lower()}_bad.py")
        found = findings_for(bad, rule)
        assert found, f"{rule} stayed silent on its violation fixture"
        assert all(f.rule == rule for f in found)
        assert all(f.path == bad for f in found)

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_good_fixture_is_silent(self, rule):
        found = findings_for(fixture(f"{rule.lower()}_good.py"), rule)
        assert found == [], f"{rule} fired on the compliant fixture: {found}"

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_bad_fixture_under_all_rules_only_fires_its_own(self, rule):
        # The path directive scopes each fixture so that running the FULL
        # rule set over a bad fixture yields only its own rule's findings —
        # fixtures must not trip unrelated rules.
        result = run_paths([fixture(f"{rule.lower()}_bad.py")])
        assert {f.rule for f in result.findings} == {rule}

    def test_ncc001_catalogue(self):
        # The bad twin enumerates every violation class the rule knows.
        msgs = " ".join(
            f.message for f in findings_for(fixture("ncc001_bad.py"), "NCC001")
        )
        for needle in ("unseeded", "seeding", "interpreter-global",
                       "wall-clock", "set literal", "telemetry"):
            assert needle in msgs

    def test_ncc002_fallbacks_are_exempt(self):
        # The good twin boxes inside two fallback spellings (name and
        # annotation); neither may fire.
        assert findings_for(fixture("ncc002_good.py"), "NCC002") == []

    def test_ncc006_constant_tables_are_exempt(self):
        found = findings_for(fixture("ncc006_good.py"), "NCC006")
        assert found == [], found

    def test_ncc006_covers_shard_worker_surface(self, tmp_path):
        # The shard-pool package is part of the worker import surface: the
        # same ambient-state hazards apply to the per-round block workers.
        bad = tmp_path / "bad.py"
        bad.write_text(
            "# reprolint: path=src/repro/ncc/sharded/fixture_workers.py\n"
            "_inflight = {}\n"
        )
        assert [f.rule for f in run_paths([str(bad)]).findings] == ["NCC006"]
        # ...while the write-once pool-handle scalar idiom stays exempt.
        good = tmp_path / "good.py"
        good.write_text(
            "# reprolint: path=src/repro/ncc/sharded/fixture_workers.py\n"
            "_POOL = None\n"
        )
        assert run_paths([str(good)]).findings == []

    def test_ncc007_catalogue(self):
        # Every mutation site of the bad twin fires once: del, item and
        # augmented item assignment, the five mutator calls, and a mutator
        # call on a name bound by `:=`.
        found = findings_for(fixture("ncc007_bad.py"), "NCC007")
        assert len(found) == 9, found

    def test_ncc007_is_library_scoped(self, tmp_path):
        code = "def f(net, out):\n    inbox = net.exchange(out)\n    inbox.pop(0)\n"
        lib = tmp_path / "lib.py"
        lib.write_text("# reprolint: path=src/repro/primitives/fixture.py\n" + code)
        assert [f.rule for f in run_paths([str(lib)]).findings] == ["NCC007"]
        test = tmp_path / "test.py"
        test.write_text("# reprolint: path=tests/test_fixture.py\n" + code)
        assert run_paths([str(test)]).findings == []

    def test_ncc006_covers_worker_core(self, tmp_path):
        # The worker core both pools run on is forked with every worker:
        # the same ambient-state hazards apply to it.
        bad = tmp_path / "bad.py"
        bad.write_text("# reprolint: path=src/repro/workers.py\n_inflight = {}\n")
        assert [f.rule for f in run_paths([str(bad)]).findings] == ["NCC006"]
        # ...while a module merely named like it elsewhere is out of scope.
        other = tmp_path / "other.py"
        other.write_text(
            "# reprolint: path=src/repro/graphs/workers.py\n_inflight = {}\n"
        )
        assert run_paths([str(other)]).findings == []

    def test_ncc001_clock_containment_scoping(self, tmp_path):
        # perf_counter/monotonic are confined to the telemetry package,
        # the session wall stamp, and benchmarks; any other library module
        # taking a clock reading is flagged.
        body = "import time\n\ndef f():\n    return time.perf_counter()\n"
        cases = {
            "src/repro/telemetry/fixture_tracer.py": [],
            "src/repro/api/session.py": [],
            "benchmarks/bench_fixture.py": [],
            "tests/test_fixture_timing.py": [],
            "src/repro/ncc/fixture_engine.py": ["NCC001"],
            "src/repro/api/fixture_pool.py": ["NCC001"],
        }
        for i, (scoped, want) in enumerate(cases.items()):
            mod = tmp_path / f"clock{i}.py"
            mod.write_text(f"# reprolint: path={scoped}\n{body}")
            found = findings_for(str(mod), "NCC001")
            assert [f.rule for f in found] == want, (scoped, found)

    def test_ncc004_covers_trace_exporter(self, tmp_path):
        # Trace documents are compared across runs by the determinism
        # tests, so the telemetry exporter joins the canonical-JSON scope.
        bad = tmp_path / "bad.py"
        bad.write_text(
            "# reprolint: path=src/repro/telemetry/export.py\n"
            "import json\n"
            "def dump(doc):\n"
            "    return json.dumps(doc)\n"
        )
        assert [f.rule for f in findings_for(str(bad), "NCC004")] == ["NCC004"]
        good = tmp_path / "good.py"
        good.write_text(
            "# reprolint: path=src/repro/telemetry/export.py\n"
            "import json\n"
            "def dump(doc):\n"
            "    return json.dumps(doc, sort_keys=True)\n"
        )
        assert findings_for(str(good), "NCC004") == []

    def test_ncc002_covers_sharded_engine(self, tmp_path):
        # The sharded delivery modules are hot-path: Message construction
        # and whole-inbox boxing are flagged there exactly as in batched.py.
        bad = tmp_path / "bad.py"
        bad.write_text(
            "# reprolint: path=src/repro/ncc/sharded/engine.py\n"
            "def deliver(Message, box):\n"
            "    Message(0, 1, 'x')\n"
            "    return box.payloads()\n"
        )
        found = findings_for(str(bad), "NCC002")
        assert len(found) == 2, found
        good = tmp_path / "good.py"
        good.write_text(
            "# reprolint: path=src/repro/ncc/sharded/engine.py\n"
            "def deliver(box):\n"
            "    return box.payload_array()\n"
        )
        assert findings_for(str(good), "NCC002") == []


# ----------------------------------------------------------------------
# Framework mechanics
# ----------------------------------------------------------------------
class TestFramework:
    def test_rule_ids_sorted_and_complete(self):
        assert list(rule_ids()) == list(ALL_RULES)
        assert [r.id for r in iter_rules()] == list(ALL_RULES)

    def test_unknown_rule(self):
        with pytest.raises(UnknownRuleError):
            get_rule("NCC999")

    def test_every_rule_names_its_invariant(self):
        for rule in iter_rules():
            assert rule.name and rule.invariant

    def test_path_directive_rescopes(self):
        ctx = parse_file(fixture("ncc001_bad.py"))
        assert ctx.effective_path == "src/repro/graphs/fixture_mod.py"
        assert ctx.path.endswith("tests/lint_fixtures/ncc001_bad.py")

    def test_discovery_skips_fixture_corpus(self):
        files = discover([os.path.join(REPO, "tests")])
        assert not any("lint_fixtures" in f for f in files)
        assert any(f.endswith("tests/test_lint.py") for f in files)

    def test_discovery_rejects_missing_path(self):
        with pytest.raises(UsageError):
            discover([os.path.join(REPO, "no_such_dir")])

    def test_syntax_error_degrades_to_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        found = run_paths([str(broken)]).findings
        assert [f.rule for f in found] == ["NCC000"]

    def test_suppression_comment(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            "# reprolint: path=src/repro/algorithms/x.py\n"
            "import random\n"
            "a = random.Random()  # reprolint: disable=NCC001\n"
            "b = random.Random()  # reprolint: disable=NCC004\n"
            "c = random.Random()  # reprolint: disable=all\n"
        )
        result = run_paths([str(src)], select=["NCC001"])
        # line 3 and 5 suppressed; line 4's disable names the wrong rule
        assert [f.line for f in result.findings] == [4]
        assert result.suppressed == 2


# ----------------------------------------------------------------------
# Baseline: shrink-only budgets
# ----------------------------------------------------------------------
def _finding(path, rule, line=1):
    return Finding(rule=rule, path=path, line=line, col=0, message="m")


class TestBaseline:
    def test_partition_budget(self):
        base = {"a.py::NCC001": 2}
        findings = [_finding("a.py", "NCC001", i) for i in (1, 2, 3)]
        new, baselined, stale = baseline_mod.partition(findings, base)
        assert baselined == 2
        assert [f.line for f in new] == [3]  # overflow beyond the budget
        assert stale == {}

    def test_partition_stale(self):
        new, baselined, stale = baseline_mod.partition(
            [], {"gone.py::NCC002": 3}
        )
        assert (new, baselined) == ([], 0)
        assert stale == {"gone.py::NCC002": 3}

    def test_shrink_never_grows(self):
        old = {"a.py::NCC001": 2}
        findings = [
            _finding("a.py", "NCC001", 1),
            _finding("a.py", "NCC001", 2),
            _finding("a.py", "NCC001", 3),  # would need budget 3
            _finding("b.py", "NCC002", 1),  # not in the baseline at all
        ]
        assert baseline_mod.shrink(old, findings) == {"a.py::NCC001": 2}

    def test_shrink_drops_fixed_and_clamps(self):
        old = {"a.py::NCC001": 5, "gone.py::NCC003": 2}
        findings = [_finding("a.py", "NCC001", 1)]
        assert baseline_mod.shrink(old, findings) == {"a.py::NCC001": 1}

    def test_load_missing_is_empty(self, tmp_path):
        assert baseline_mod.load(str(tmp_path / "nope.json")) == {}

    def test_load_rejects_malformed(self, tmp_path):
        bad = tmp_path / "base.json"
        bad.write_text('{"a.py::NCC001": "two"}')
        with pytest.raises(BaselineError):
            baseline_mod.load(str(bad))

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "base.json")
        baseline_mod.save(path, {"b.py::NCC002": 1, "a.py::NCC001": 2})
        assert baseline_mod.load(path) == {"a.py::NCC001": 2, "b.py::NCC002": 1}


# ----------------------------------------------------------------------
# CLI surface: exit codes, update/strict workflow, JSON stability
# ----------------------------------------------------------------------
class TestCliWorkflow:
    def test_findings_exit_1(self, capsys):
        code = main([fixture("ncc001_bad.py"), "--baseline", "none"])
        assert code == 1
        out = capsys.readouterr().out
        assert "NCC001" in out and "finding(s)" in out

    def test_clean_exit_0(self, capsys):
        assert main([fixture("ncc001_good.py"), "--baseline", "none"]) == 0

    def test_bootstrap_then_green_then_strict_stale(self, tmp_path, capsys):
        base = str(tmp_path / "baseline.json")
        bad = fixture("ncc001_bad.py")
        good = fixture("ncc001_good.py")
        # Bootstrap: adopting a missing baseline grandfathers everything.
        assert main([bad, "--baseline", base, "--update-baseline"]) == 0
        adopted = baseline_mod.load(base)
        assert adopted == {f"{bad}::NCC001": 8}
        # Same findings are now baselined: green.
        assert main([bad, "--baseline", base]) == 0
        # The violations get fixed (lint the good twin): entries go stale —
        # plain run still green, --strict forces the shrink.
        assert main([good, "--baseline", base]) == 0
        assert main([good, "--baseline", base, "--strict"]) == 1
        assert "shrink" in capsys.readouterr().err
        assert main([good, "--baseline", base, "--update-baseline"]) == 0
        assert baseline_mod.load(base) == {}
        assert main([good, "--baseline", base, "--strict"]) == 0

    def test_update_baseline_never_adopts_new_findings(self, tmp_path):
        # Once a baseline exists, --update-baseline cannot grandfather a
        # fresh violation: shrink-only means new findings still fail.
        base = str(tmp_path / "baseline.json")
        baseline_mod.save(base, {})
        assert main([fixture("ncc002_bad.py"), "--baseline", base,
                     "--update-baseline"]) == 1
        assert baseline_mod.load(base) == {}

    def test_usage_error_exit_2(self, capsys):
        assert main(["definitely/not/a/path", "--baseline", "none"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exit_2(self, capsys):
        assert main([fixture("ncc001_good.py"), "--select", "NCC999",
                     "--baseline", "none"]) == 2
        assert "NCC999" in capsys.readouterr().err

    def test_malformed_baseline_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "base.json"
        bad.write_text("[1, 2]")
        assert main([fixture("ncc001_good.py"), "--baseline", str(bad)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_json_format_is_byte_stable(self, capsys):
        argv = [fixture("ncc003_bad.py"), "--format", "json",
                "--baseline", "none"]
        assert main(argv) == 1
        first = capsys.readouterr().out
        assert main(argv) == 1
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["version"] == 1
        assert doc["rules"] == list(ALL_RULES)
        assert {f["rule"] for f in doc["findings"]} == {"NCC003"}
        # keys are sorted at every level
        assert list(doc) == sorted(doc)

    def test_output_artifact_matches_stdout_json(self, tmp_path, capsys):
        out = str(tmp_path / "findings.json")
        argv = [fixture("ncc004_bad.py"), "--format", "json",
                "--baseline", "none", "--output", out]
        assert main(argv) == 1
        stdout = capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == stdout

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out


# ----------------------------------------------------------------------
# The repo itself must lint clean (the CI gate, run as a test)
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_tests_benchmarks_lint_clean(self):
        result = run_paths(
            [os.path.join(REPO, d) for d in ("src", "tests", "benchmarks")]
        )
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"repo has lint findings:\n{rendered}"

    def test_checked_in_baseline_is_empty(self):
        assert baseline_mod.load(
            os.path.join(REPO, "reprolint-baseline.json")
        ) == {}
