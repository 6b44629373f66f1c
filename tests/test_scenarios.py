"""The scenario subsystem: registry, declared guarantees, compatibility,
and the Session/schema wiring that makes scenarios a sweep axis.

The guarantee property suite certifies every registered scenario's
declarations against the Nash-Williams machinery in
:mod:`repro.graphs.arboricity`: for a declared arboricity bound ``B``,
the density lower bound (Nash-Williams with the peeling-suffix subgraph
witnesses) must stay ≤ B and the degeneracy must stay ≤ 2B − 1 — both
are theorems for any graph with a(G) ≤ B, so a lying declaration is
refuted as soon as any sampled instance has a subgraph denser than B
forests allow.
"""

import json

import pytest

from repro.api import RunSpec, Session, matrix_grid, sweep_grid
from repro.errors import ConfigurationError
from repro.graphs import arboricity, properties
from repro.registry import get_algorithm, iter_algorithms
from repro.scenarios import (
    DIAMETER_CLASSES,
    ScenarioCompatibilityError,
    ScenarioSpec,
    UnknownScenarioError,
    canonical_scenario_name,
    check_compatible,
    compatible_scenarios,
    get_scenario,
    is_compatible,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios import registry as scenario_registry

ALL_SCENARIOS = list(iter_scenarios())

#: the sampled (n, seed) grid of the guarantee suite — small enough to be
#: cheap, spread enough that diameter/arboricity lies would be caught.
SAMPLES = [(16, 0), (16, 1), (32, 0), (48, 1)]


def _pop_scenario(name: str) -> None:
    scenario_registry._SPECS.pop(name, None)
    scenario_registry._ALIASES.pop(name, None)


class TestLookup:
    def test_canonical_names(self):
        names = scenario_names()
        assert {"forest-union", "grid", "star", "pa-heavy-tail",
                "cliques-disconnected", "grid-unique-weights",
                "forest-union-random-weights"} <= set(names)

    def test_aliases_case_insensitive(self):
        assert get_scenario("PA") is get_scenario("pa-heavy-tail")
        assert get_scenario("clique") is get_scenario("complete")
        assert get_scenario("Forest") is get_scenario("forest-union")

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownScenarioError, match="unknown scenario"):
            get_scenario("nope")

    def test_weighted_variants_inherit_base_guarantees(self):
        base = get_scenario("grid")
        variant = get_scenario("grid-unique-weights")
        assert variant.base == base.name
        assert variant.weighted and not base.weighted
        assert variant.connected == base.connected
        assert variant.diameter == base.diameter
        assert variant.degrees == base.degrees

    def test_invalid_diameter_class_rejected(self):
        with pytest.raises(ConfigurationError, match="diameter class"):
            ScenarioSpec(name="bad", build=lambda n, a, s: None, diameter="huge")

    def test_invalid_degree_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="degree profile"):
            ScenarioSpec(name="bad", build=lambda n, a, s: None, degrees="odd")


class TestDeclaredGuarantees:
    """Every registered scenario's declarations hold on sampled instances."""

    @pytest.mark.parametrize(
        "spec", ALL_SCENARIOS, ids=[s.name for s in ALL_SCENARIOS]
    )
    def test_guarantees_hold(self, spec):
        a_values = (1, 3) if spec.uses_a else (2,)
        for n, seed in SAMPLES:
            for a in a_values:
                g = spec.build(n, a, seed)
                assert g.n >= 1
                # arboricity: the Nash-Williams witness cannot refute the
                # declared bound, and the degeneracy sandwich respects it.
                if spec.arboricity is not None:
                    bound = spec.arboricity(n, a)
                    lower = arboricity.density_lower_bound(g)
                    _, degeneracy = arboricity.degeneracy_order(g)
                    assert lower <= bound, (
                        f"{spec.name}(n={n}, a={a}, seed={seed}): "
                        f"Nash-Williams lower bound {lower} refutes the "
                        f"declared arboricity bound {bound}"
                    )
                    assert degeneracy <= 2 * bound - 1, (
                        f"{spec.name}(n={n}, a={a}, seed={seed}): "
                        f"degeneracy {degeneracy} > 2*{bound} - 1"
                    )
                # connectivity is asserted only when guaranteed.
                if spec.connected:
                    assert properties.is_connected(g), (
                        f"{spec.name}(n={n}, a={a}, seed={seed}) disconnected"
                    )
                # weightedness is exact in both directions.
                assert g.is_weighted() == spec.weighted
                # the diameter class holds for the largest component.
                d = properties.diameter(g)
                assert DIAMETER_CLASSES[spec.diameter](g.n, d), (
                    f"{spec.name}(n={n}, a={a}, seed={seed}): diameter {d} "
                    f"outside class {spec.diameter!r}"
                )

    @pytest.mark.parametrize(
        "spec", ALL_SCENARIOS, ids=[s.name for s in ALL_SCENARIOS]
    )
    def test_builds_are_deterministic(self, spec):
        a = 2
        first = spec.build(24, a, 3)
        again = spec.build(24, a, 3)
        assert first.edges() == again.edges()
        if spec.weighted:
            assert all(
                first.weight(u, v) == again.weight(u, v) for u, v in first.edges()
            )

    def test_uses_a_families_respond_to_a(self):
        for spec in ALL_SCENARIOS:
            if spec.uses_a:
                assert spec.build(32, 1, 0).m < spec.build(32, 3, 0).m

    def test_effective_a_labels(self):
        assert get_scenario("grid").effective_a(64, 2) == 3
        assert get_scenario("forest-union").effective_a(64, 5) == 5
        assert get_scenario("gnp-sparse").effective_a(64, 2) == 2  # no bound


class TestCompatibility:
    def test_mst_requires_weights(self):
        mst = get_algorithm("mst")
        assert mst.requires == ("weights",)
        with pytest.raises(ScenarioCompatibilityError) as exc:
            check_compatible(mst, get_scenario("grid"))
        assert "weights" in str(exc.value)
        assert "grid-unique-weights" in str(exc.value)  # suggests a fix

    def test_bfs_requires_connected(self):
        bfs = get_algorithm("bfs")
        assert not is_compatible(bfs, get_scenario("cliques-disconnected"))
        assert is_compatible(bfs, get_scenario("grid"))

    def test_unrestricted_algorithms_accept_everything(self):
        mis = get_algorithm("mis")
        assert set(compatible_scenarios(mis)) == set(scenario_names())

    def test_unknown_requirement_is_clean_error(self):
        spec = get_scenario("grid")
        with pytest.raises(ConfigurationError, match="unknown algorithm requirement"):
            spec.provides("telepathy")

    def test_every_runnable_algorithm_has_six_plus_families(self):
        # The acceptance floor: each algorithm keeps a >= 6-family axis.
        for alg in iter_algorithms():
            if alg.runnable:
                assert len(compatible_scenarios(alg)) >= 6, alg.name

    def test_session_rejects_incompatible_pair_cleanly(self):
        with pytest.raises(ScenarioCompatibilityError):
            Session().run(RunSpec("mst", 16, scenario="grid"))

    def test_matrix_grid_skips_incompatible_cells(self):
        specs, skipped = matrix_grid(
            ["mst", "mis"], ["grid", "grid-unique-weights"], n=16
        )
        assert ("mst", "grid") in skipped
        assert {(s.algorithm, s.scenario) for s in specs} == {
            ("mst", "grid-unique-weights"),
            ("mis", "grid"),
            ("mis", "grid-unique-weights"),
        }


class TestRegistration:
    def test_new_scenario_lands_on_every_axis(self):
        # Registering a scenario automatically makes it sweepable: it shows
        # up in scenario_names(), resolves canonically, participates in
        # matrix_grid, and is runnable through Session.
        try:
            @register_scenario(
                "zz-test-scenario",
                aliases=("ZZS",),
                summary="test entry",
                arboricity=lambda n, a: 1,
                diameter="linear",
            )
            def _build(n, a, seed):
                from repro.graphs import generators

                return generators.path(n)

            assert "zz-test-scenario" in scenario_names()
            assert canonical_scenario_name("zzs") == "zz-test-scenario"
            specs, skipped = matrix_grid(["mis"], ["zz-test-scenario"], n=8)
            assert [s.scenario for s in specs] == ["zz-test-scenario"]
            assert not skipped
            report = Session().run(RunSpec("mis", 8, scenario="ZZS"))
            assert report.spec.scenario == "zz-test-scenario"
            assert report.correct
        finally:
            _pop_scenario("zz-test-scenario")
            scenario_registry._ALIASES.pop("zzs", None)

    def test_reregistration_replaces(self):
        try:
            @register_scenario("zz-replace", summary="first")
            def _one(n, a, seed):  # pragma: no cover - never built
                return None

            @register_scenario("zz-replace", summary="second")
            def _two(n, a, seed):  # pragma: no cover - never built
                return None

            assert get_scenario("zz-replace").summary == "second"
        finally:
            _pop_scenario("zz-replace")


class TestSchemaWiring:
    def test_scenario_free_spec_serializes_without_the_key(self):
        # Byte-compat: results files without scenarios are identical to the
        # pre-scenario schema.
        spec = RunSpec("mis", 16)
        assert "scenario" not in spec.to_dict()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_roundtrips_through_json(self):
        spec = RunSpec("mis", 16, scenario="grid")
        assert spec.to_dict()["scenario"] == "grid"
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_empty_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec("mis", 16, scenario="  ")

    def test_report_records_canonical_scenario(self):
        report = Session().run(RunSpec("mis", 16, scenario="PA"))
        data = json.loads(report.to_json_line())
        assert data["spec"]["scenario"] == "pa-heavy-tail"

    def test_scenario_free_report_bytes_have_no_scenario_key(self):
        report = Session().run(RunSpec("mis", 16, seed=1))
        assert '"scenario"' not in report.to_json_line()


class TestSessionWiring:
    def test_workload_cached_per_scenario_key(self):
        session = Session()
        session.run(RunSpec("mis", 16, seed=1, scenario="grid"))
        key = ("mis", "grid", 16, 2, 1)
        assert key in session._workload_cache
        g = session._workload_cache[key]
        session.run(RunSpec("mis", 16, seed=1, scenario="grid"))
        assert session._workload_cache[key] is g

    def test_row_labels_a_with_the_scenario_bound(self):
        report = Session().run(RunSpec("mis", 16, seed=1, scenario="grid"))
        assert report.row["a"] <= 3  # the declared planar bound, not the knob
        assert report.spec.a == 2  # the sweep knob is preserved in the spec

    def test_unbounded_scenario_rows_use_the_greedy_estimate(self):
        # gnp-sparse declares no arboricity bound; the (ignored) sweep knob
        # must not masquerade as one — the row falls back to the greedy
        # upper bound instead of understating `a`.
        report = Session().run(RunSpec("mis", 48, seed=1, scenario="gnp-sparse"))
        assert report.row["a"] == report.row["a_greedy"] >= report.row["a_lower"]

    def test_old_family_spec_is_refused(self, tmp_path):
        # BFS's `family` workload option is gone (the grid rows come from
        # scenario="grid").  A stored spec that sets it still loads, and
        # the session refuses it as an unknown option before any row of
        # its sweep is written.
        line = json.dumps(RunSpec("bfs", 25, extras={"family": "grid"}).to_dict())
        old = RunSpec.from_dict(json.loads(line))
        with pytest.raises(ConfigurationError, match="known options: source"):
            Session().run(old)
        store = tmp_path / "store"
        manifest = tmp_path / "manifest.jsonl"
        with pytest.raises(ConfigurationError, match="known options: source"):
            Session().run_many(
                [RunSpec("mis", 16), old],
                store=str(store),
                manifest=str(manifest),
            )
        assert not store.exists() and not manifest.exists()

    def test_scenario_spec_reruns_verbatim(self):
        session = Session()
        first = session.run(RunSpec("matching", 16, seed=1, scenario="star"))
        again = session.run(first.spec)
        assert again.to_json_line() == first.to_json_line()

    def test_sweep_grid_scenario_axis(self):
        specs = sweep_grid(["mis"], [16], seeds=[0, 1], scenarios=["grid", "star"])
        assert [(s.scenario, s.seed) for s in specs] == [
            ("grid", 0), ("grid", 1), ("star", 0), ("star", 1),
        ]

    @pytest.mark.engine("reference")  # pins its own engines; skip replays
    def test_scenario_sweep_parallel_bytes_equal_serial(self, tmp_path):
        specs = sweep_grid(
            ["mis", "matching"],
            [16],
            seeds=[0, 1],
            scenarios=["grid", "pa-heavy-tail", "cliques-disconnected"],
        ) + sweep_grid(
            ["mst"], [16], seeds=[0], scenarios=["grid-unique-weights"]
        )
        serial = Session().run_many(specs, jobs=1, out=str(tmp_path / "s.jsonl"))
        Session().run_many(specs, jobs=4, out=str(tmp_path / "p.jsonl"))
        assert (tmp_path / "s.jsonl").read_bytes() == (
            tmp_path / "p.jsonl"
        ).read_bytes()
        assert all(r.correct for r in serial)
        assert {r.spec.scenario for r in serial} == {
            "grid", "pa-heavy-tail", "cliques-disconnected",
            "grid-unique-weights",
        }


class TestEveryAlgorithmOnSixFamilies:
    """The acceptance grid: every runnable algorithm executes correctly on
    (at least) its first six compatible scenario families through Session."""

    RUNNABLE = [a.name for a in iter_algorithms() if a.runnable]

    @pytest.mark.parametrize("alg_name", RUNNABLE)
    def test_six_families_run_correct(self, alg_name):
        alg = get_algorithm(alg_name)
        families = compatible_scenarios(alg)[:6]
        assert len(families) == 6
        session = Session()
        for family in families:
            report = session.run(RunSpec(alg_name, 12, seed=1, scenario=family))
            assert report.correct, f"{alg_name} on {family}"
            assert report.spec.scenario == family
