"""The algorithm registry: one source of truth for every consumer."""

import pytest

from repro import registry
from repro.analysis import tables
from repro.errors import ConfigurationError
from repro.registry import (
    AlgorithmSpec,
    UnknownAlgorithmError,
    algorithm_names,
    get_algorithm,
    iter_algorithms,
    register_algorithm,
    table1_specs,
)


class TestLookup:
    def test_canonical_names(self):
        names = algorithm_names()
        assert {"mst", "bfs", "mis", "matching", "coloring"} <= set(names)
        assert {"components", "orientation", "broadcast_trees",
                "identification", "findmin"} <= set(names)

    def test_aliases_case_insensitive(self):
        assert get_algorithm("MST") is get_algorithm("mst")
        assert get_algorithm("MM") is get_algorithm("matching")
        assert get_algorithm("col") is get_algorithm("coloring")
        assert get_algorithm("connected-components") is get_algorithm("components")

    def test_table1_key_resolves(self):
        for spec in table1_specs():
            assert get_algorithm(spec.table1_key) is spec

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownAlgorithmError, match="unknown algorithm"):
            get_algorithm("nope")

    def test_runnable_only_filter(self):
        runnable = algorithm_names(runnable_only=True)
        assert "findmin" not in runnable
        assert "mst" in runnable


class TestTable1View:
    def test_row_order_is_the_papers(self):
        assert [s.table1_key for s in table1_specs()] == [
            "MST", "BFS", "MIS", "MM", "COL",
        ]

    def test_tables_shim_is_a_registry_view(self):
        # The deprecation shim exposes the registry's bound row runners.
        assert list(tables.TABLE1_RUNNERS) == ["MST", "BFS", "MIS", "MM", "COL"]
        for key, runner in tables.TABLE1_RUNNERS.items():
            assert runner.__self__ is get_algorithm(key)
        assert tables.TABLE1_BOUNDS == {
            s.table1_key: s.bound for s in table1_specs()
        }

    def test_legacy_runner_names_still_exported(self):
        assert tables.run_mst_row is tables.TABLE1_RUNNERS["MST"]
        assert tables.run_bfs_row is tables.TABLE1_RUNNERS["BFS"]


class TestExecution:
    def test_row_matches_legacy_shape_and_order(self):
        row = get_algorithm("mst").run_row(16, a=2, seed=1)
        assert list(row)[:6] == ["n", "m", "a", "a_lower", "a_greedy", "max_degree"]
        assert list(row)[-3:] == ["correct", "messages", "violations"]
        assert row["correct"]

    def test_execute_exposes_runtime_and_output(self):
        ex = get_algorithm("mis").execute(16, seed=1)
        assert ex.row["rounds"] == ex.output.rounds
        assert ex.runtime.net.stats.messages == ex.row["messages"]
        assert ex.graph.n == 16

    @pytest.mark.parametrize(
        "name", sorted(spec.name for spec in iter_algorithms() if spec.runnable)
    )
    def test_row_rounds_equal_report_rounds(self, name):
        """Every row's ``rounds`` counts the whole run the report counts
        (identification's demo run includes its family agreement)."""
        from repro import RunSpec, Session

        with Session() as session:
            report = session.run(RunSpec(name, 16, seed=1, engine="batched"))
        assert report.rounds > 0
        assert report.row["rounds"] == report.rounds

    def test_workload_options_forwarded(self):
        row = get_algorithm("bfs").run_row(25, seed=1, family="grid")
        assert row["n"] == 25 and row["D"] == 8

    def test_non_runnable_subroutine_refuses(self):
        spec = get_algorithm("findmin")
        assert spec.kind == "subroutine"
        assert not spec.runnable
        with pytest.raises(ConfigurationError, match="not independently runnable"):
            spec.run_row(16)

    def test_parity_run_requires_support(self):
        spec = get_algorithm("findmin")
        assert not spec.supports_parity
        with pytest.raises(ConfigurationError):
            spec.parity_run(None, n=8)

    def test_every_runnable_spec_declares_oracle_and_bound(self):
        for spec in iter_algorithms():
            if spec.runnable:
                assert spec.check is not None
                assert spec.describe is not None
                assert spec.bound


class TestLazyLoading:
    def test_analysis_import_does_not_load_algorithms(self):
        # The tables shim materializes its registry views lazily; importing
        # repro.analysis (e.g. for reporting/complexity) must stay cheap.
        import subprocess
        import sys

        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro.analysis, sys; "
                "print(any(m.startswith('repro.algorithms') for m in sys.modules))",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestRegistration:
    def test_register_and_replace(self):
        try:
            @register_algorithm("zz-test", aliases=("ZZT",), summary="test entry")
            def _run(rt, g):  # pragma: no cover - never executed
                return None

            spec = get_algorithm("zzt")
            assert isinstance(spec, AlgorithmSpec)
            assert spec.name == "zz-test"
            assert not spec.runnable  # no workload/check/describe declared

            # Re-registering the same name replaces the entry (reload-safe).
            @register_algorithm("zz-test", summary="replaced")
            def _run2(rt, g):  # pragma: no cover
                return None

            assert get_algorithm("zz-test").summary == "replaced"
        finally:
            registry._SPECS.pop("zz-test", None)
            registry._ALIASES.pop("zz-test", None)
            registry._ALIASES.pop("zzt", None)
