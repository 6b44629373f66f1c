"""The command-line interface."""

import json
import os

import pytest

from repro.analysis.reporting import format_table
from repro.api import RunSpec, Session
from repro.cli import build_parser, main
from repro.registry import get_algorithm, table1_specs


class TestInfo:
    def test_prints_model_parameters(self, capsys):
        assert main(["info", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "n=64" in out
        assert "capacity" in out

    def test_default_n(self, capsys):
        assert main(["info"]) == 0


class TestRun:
    def test_mis(self, capsys):
        assert main(["run", "mis", "--n", "24", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "MIS" in out and "rounds" in out

    def test_matching_alias(self, capsys):
        assert main(["run", "matching", "--n", "20", "--seed", "1"]) == 0
        assert "MM" in capsys.readouterr().out

    def test_bfs_grid_scenario(self, capsys):
        assert main(["run", "bfs", "--n", "25", "--scenario", "grid"]) == 0
        assert "BFS on grid n=25" in capsys.readouterr().out

    def test_unknown_algorithm(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_non_runnable_subroutine_is_clean_error(self, capsys):
        # `findmin` resolves in the registry but is a subroutine entry; the
        # CLI must refuse cleanly (exit 2), not surface a traceback.
        assert main(["run", "findmin"]) == 2
        err = capsys.readouterr().err
        assert "not independently runnable" in err and "pick one of" in err

    def test_registry_algorithm_beyond_table1(self, capsys):
        # The registry makes non-Table-1 algorithms runnable by name.
        assert main(["run", "components", "--n", "16", "--seed", "1"]) == 0
        assert "components" in capsys.readouterr().out

    def test_output_is_byte_identical_to_legacy_runner(self, capsys):
        # `run` is a thin wrapper over Session; its stdout must be exactly
        # the table of the row `AlgorithmSpec.execute` produces.
        assert main(["run", "mst", "--n", "16", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        mst = get_algorithm("mst")
        row = mst.execute(16, a=2, seed=1).row
        expected = format_table(
            list(row.keys()),
            [list(row.values())],
            title=f"MST on n=16 (bound {mst.bound})",
        )
        assert out == expected + "\n"


class TestTable1:
    def test_selected_rows(self, capsys):
        assert main(["table1", "--rows", "MIS", "--ns", "16,24", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "T1-MIS" in out
        assert out.count("True") >= 2

    def test_unknown_row_is_error_code(self, capsys):
        assert main(["table1", "--rows", "XYZ", "--ns", "16"]) == 2

    def test_default_rows_in_paper_order_with_row_columns(self, capsys):
        # Regression: the rows used to print sorted by key (T1-BFS first)
        # and each table's columns sorted alphabetically.
        assert main(["table1", "--ns", "16", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        titles = [i for i, line in enumerate(lines) if line.startswith("T1-")]
        specs = table1_specs()
        assert [lines[i].split()[0] for i in titles] == [
            f"T1-{s.table1_key}" for s in specs
        ]
        for i, spec in zip(titles, specs):
            row = Session().run(RunSpec(spec.table1_key, 16, seed=1)).row
            assert [h.strip() for h in lines[i + 1].split("|")] == list(row)


class TestArgumentErrors:
    """Malformed values are argparse errors (exit 2), not tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--ns", "64,abc"],
            ["table1", "--rows", "MIS,,MM"],
            ["separation", "--ns", "1x"],
            ["sweep", "--algos", "mst", "--ns", "abc"],
            ["sweep", "--algos", "mst", "--seeds", "x:y"],
            ["sweep", "--algos", "mst", "--seeds", "5:1"],
            ["sweep", "--algos", "mst", "--seeds", "3:3"],
            ["sweep", "--algos", " , "],
        ],
    )
    def test_malformed_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestEngineChoices:
    def test_choices_follow_the_engine_registry(self):
        # --engine choices are derived from config.known_engines() at parse
        # time, so engines added via register_engine become selectable.
        from repro.ncc import engine as engine_mod

        class DummyEngine(engine_mod.ReferenceEngine):
            name = "dummy-test"

        engine_mod.register_engine("dummy-test", DummyEngine)
        try:
            args = build_parser().parse_args(
                ["run", "mst", "--engine", "dummy-test"]
            )
            assert args.engine == "dummy-test"
        finally:
            engine_mod._REGISTRY.pop("dummy-test", None)
        # once unregistered, the choice disappears again
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "mst", "--engine", "dummy-test"])


class TestSweep:
    def test_writes_jsonl_and_summary(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main([
            "sweep", "--algos", "mis,matching", "--ns", "16", "--seeds", "0:2",
            "--jobs", "2", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # 2 algos x 1 n x 2 seeds
        records = [json.loads(line) for line in lines]
        assert all(r["correct"] for r in records)
        assert [r["spec"]["algorithm"] for r in records] == [
            "mis", "mis", "matching", "matching",
        ]
        assert "sweep: 4 runs" in capsys.readouterr().out

    def test_stdout_jsonl_summary_to_stderr(self, capsys):
        assert main([
            "sweep", "--algos", "mis", "--ns", "16", "--seeds", "0:1",
            "--out", "-",
        ]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["spec"]["algorithm"] == "mis"
        assert "sweep: 1 runs" in captured.err

    def test_unknown_algorithm_exits_2(self, capsys):
        assert main(["sweep", "--algos", "nope", "--ns", "16"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_non_runnable_algorithm_exits_2(self, capsys):
        assert main(["sweep", "--algos", "findmin", "--ns", "16"]) == 2
        assert "not independently runnable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,prefix",
        [
            (["run", "mst", "--n", "0"], "run:"),
            (["table1", "--rows", "MIS", "--ns", "-5"], "table1:"),
            (["sweep", "--algos", "mst", "--ns", "-5"], "sweep:"),
            (["sweep", "--algos", "mst", "--ns", "16", "--a", "0"], "sweep:"),
        ],
    )
    def test_out_of_range_values_exit_2(self, argv, prefix, capsys):
        # RunSpec range validation surfaces as a clean error, not a traceback.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "must be >=" in err

    def test_empty_grid_exits_2(self, capsys):
        # `--ns ","` parses to no sizes; a zero-run sweep must not look
        # like success to a scripted pipeline.
        assert main(["sweep", "--algos", "mis", "--ns", ","]) == 2
        assert "empty grid" in capsys.readouterr().err

    def test_unknown_engine_exits_2(self, capsys):
        assert main([
            "sweep", "--algos", "mis", "--ns", "16", "--engines", "warp",
        ]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_mixed_engines_grid(self, capsys):
        assert main([
            "sweep", "--algos", "mis", "--ns", "16",
            "--engines", "reference,batched",
        ]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "batched" in out


class TestDuplicateAxes:
    """Regression: a repeated axis value (``--ns 16,16``) used to multiply
    the grid — every duplicate row reran and re-emitted an identical JSONL
    record.  Duplicates now collapse (first occurrence wins) with a note
    on stderr."""

    def test_duplicates_collapse_with_note(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main([
            "sweep", "--algos", "mis,mis", "--ns", "16,16",
            "--seeds", "0,1,0", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2  # 1 algo x 1 n x 2 seeds
        seeds = [json.loads(line)["spec"]["seed"] for line in lines]
        assert seeds == [0, 1]
        err = capsys.readouterr().err
        assert "note: ignoring 1 duplicate algorithm value(s)" in err
        assert "note: ignoring 1 duplicate size value(s)" in err
        assert "note: ignoring 1 duplicate seed value(s)" in err

    def test_duplicate_engines_collapse(self, capsys):
        assert main([
            "sweep", "--algos", "mis", "--ns", "16",
            "--engines", "batched,reference,batched",
        ]) == 0
        captured = capsys.readouterr()
        assert "note: ignoring 1 duplicate engine value(s)" in captured.err
        assert "sweep: 2 runs" in captured.out

    def test_clean_axes_print_no_note(self, capsys):
        assert main(["sweep", "--algos", "mis", "--ns", "16,24"]) == 0
        assert "duplicate" not in capsys.readouterr().err

    def test_order_preserved(self):
        args = build_parser().parse_args(
            ["sweep", "--algos", "mst", "--ns", "64,16,64,24"]
        )
        assert args.ns == [64, 16, 24]


class TestScenarioOptions:
    def test_run_with_scenario(self, capsys):
        assert main(["run", "mis", "--n", "24", "--scenario", "pa-heavy-tail"]) == 0
        out = capsys.readouterr().out
        assert "pa-heavy-tail" in out and "rounds" in out

    def test_run_scenario_alias_resolves(self, capsys):
        assert main(["run", "mis", "--n", "16", "--scenario", "PA"]) == 0
        assert "pa-heavy-tail" in capsys.readouterr().out

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "mis", "--n", "16", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_incompatible_scenario_exits_2(self, capsys):
        # mst requires weights; the unweighted grid is a clean registry
        # error (exit 2), not a traceback.
        assert main(["run", "mst", "--n", "16", "--scenario", "grid"]) == 2
        err = capsys.readouterr().err
        assert "does not satisfy" in err and "grid-unique-weights" in err

    def test_family_option_is_gone(self, capsys):
        # `--family` was a BFS-only alias of --scenario; it is now an
        # unknown argument like any other.
        with pytest.raises(SystemExit) as exc:
            main(["run", "bfs", "--n", "25", "--family", "grid"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --family" in capsys.readouterr().err

    def test_sweep_scenarios_axis(self, tmp_path, capsys):
        out = tmp_path / "scen.jsonl"
        assert main([
            "sweep", "--algos", "mis", "--ns", "16", "--seeds", "0:2",
            "--scenarios", "grid,star", "--out", str(out),
        ]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["spec"]["scenario"] for r in records] == [
            "grid", "grid", "star", "star",
        ]
        assert "scenario" in capsys.readouterr().out

    def test_sweep_unknown_scenario_exits_2(self, capsys):
        assert main([
            "sweep", "--algos", "mis", "--ns", "16", "--scenarios", "warp",
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_incompatible_pair_exits_2(self, capsys):
        assert main([
            "sweep", "--algos", "mst", "--ns", "16", "--scenarios", "grid",
        ]) == 2
        assert "does not satisfy" in capsys.readouterr().err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "forest-union" in out and "grid-unique-weights" in out
        assert "registered scenarios" in out


class TestMatrix:
    def test_grid_table_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "matrix.jsonl"
        assert main([
            "matrix", "--algos", "mis,mst", "--scenarios",
            "grid,grid-unique-weights", "--n", "16", "--jobs", "2",
            "--out", str(out),
        ]) == 0
        captured = capsys.readouterr()
        assert "matrix: 3 runs" in captured.out
        assert "mstxgrid" in captured.out  # the skipped incompatible cell
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 3
        assert all(r["correct"] for r in records)
        assert {(r["spec"]["algorithm"], r["spec"]["scenario"]) for r in records} == {
            ("mis", "grid"), ("mis", "grid-unique-weights"),
            ("mst", "grid-unique-weights"),
        }

    def test_defaults_cover_all_runnable_algorithms(self, capsys):
        # No --algos/--scenarios = every runnable algorithm x every
        # registered scenario; just check the parse/grid wiring, not a run.
        from repro.api import matrix_grid, scenario_names
        from repro.registry import algorithm_names

        specs, skipped = matrix_grid(
            algorithm_names(runnable_only=True), scenario_names(), n=8
        )
        cells = len(specs) + len(skipped)
        assert cells == len(algorithm_names(runnable_only=True)) * len(
            scenario_names()
        )

    def test_unknown_algorithm_exits_2(self, capsys):
        assert main(["matrix", "--algos", "nope", "--n", "16"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["matrix", "--scenarios", "warp", "--n", "16"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_out_of_range_n_exits_2(self, capsys):
        assert main(["matrix", "--algos", "mis", "--scenarios", "grid",
                     "--n", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("matrix:") and "must be >=" in err


class TestSeparation:
    def test_gossip_table(self, capsys):
        assert main(["separation", "--ns", "16,32"]) == 0
        out = capsys.readouterr().out
        assert "Congested Clique" in out
        assert "NCC" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestLint:
    """`repro lint` shares the CLI's exit-code contract: 0 clean, 1
    findings, 2 usage errors."""

    FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "lint_fixtures")

    def test_clean_run_exits_0(self, capsys):
        good = os.path.join(self.FIXTURES, "ncc001_good.py")
        assert main(["lint", good, "--baseline", "none"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_1(self, capsys):
        bad = os.path.join(self.FIXTURES, "ncc001_bad.py")
        assert main(["lint", bad, "--baseline", "none"]) == 1
        assert "NCC001" in capsys.readouterr().out

    def test_nonexistent_path_exits_2(self, capsys):
        assert main(["lint", "no/such/dir", "--baseline", "none"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lint:") and "no such file" in err

    def test_unknown_rule_exits_2(self, capsys):
        good = os.path.join(self.FIXTURES, "ncc001_good.py")
        assert main(["lint", good, "--select", "NCC042",
                     "--baseline", "none"]) == 2
        assert "NCC042" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "NCC001" in out and "NCC006" in out
