"""The Session driver: caching, canonicalization, and — crucially — the
determinism of parallel sweeps (jobs=N must be byte-identical to serial)."""

import pytest

from repro import Enforcement
from repro.api import RunSpec, Session, sweep_grid
from repro.registry import bench_config


class TestCanonicalization:
    def test_alias_and_defaults_resolved(self):
        report = Session().run(RunSpec("MM", 16, seed=1))
        assert report.spec.algorithm == "matching"
        assert report.spec.engine == report.engine
        assert report.spec.enforcement == "count"

    def test_spec_reruns_verbatim(self):
        session = Session()
        first = session.run(RunSpec("mis", 16, seed=1))
        again = session.run(first.spec)
        assert again.to_json_line() == first.to_json_line()

    def test_base_config_enforcement(self):
        session = Session(base_config=bench_config(0, enforcement=Enforcement.STRICT))
        report = session.run(RunSpec("mis", 16, seed=1))
        assert report.spec.enforcement == "strict"
        assert report.correct

    def test_engine_override(self):
        report = Session().run(RunSpec("mis", 16, seed=1, engine="batched"))
        assert report.engine == "batched"


class TestCaching:
    def test_workload_and_butterfly_cached_per_key(self):
        session = Session()
        r1 = session.run(RunSpec("mis", 16, seed=1))
        assert (("mis", 16, 2, 1, ()) in session._workload_cache)
        g = session._workload_cache[("mis", 16, 2, 1, ())]
        bf = session._bf_cache[16]
        session.run(RunSpec("mis", 16, seed=1))
        assert session._workload_cache[("mis", 16, 2, 1, ())] is g
        assert session._bf_cache[16] is bf
        r2 = session.run(RunSpec("mis", 16, seed=1))
        assert r2.to_json_line() == r1.to_json_line()

    def test_cache_disabled(self):
        session = Session(cache=False)
        session.run(RunSpec("mis", 16, seed=1))
        assert not session._workload_cache
        assert not session._bf_cache

    def test_cache_flag_reaches_pool_workers(self):
        from repro.api.pool import _RowWorker

        assert _RowWorker(None, False).session._cache_enabled is False


class TestOptionValidation:
    """Regression: a typo'd option used to fall through silently —
    ``extras={"familly": "grid"}`` ran the *default* workload without
    complaint because ``_workload`` only forwards keys in
    ``workload_options``."""

    def test_unknown_option_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as ei:
            Session().run(RunSpec("bfs", 16, seed=1, extras={"familly": "grid"}))
        assert "familly" in str(ei.value)
        assert "family" in str(ei.value)  # known options are listed

    def test_unknown_option_on_optionless_algorithm(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=r"\(none\)"):
            Session().run(RunSpec("mis", 16, seed=1, extras={"source": 3}))

    def test_workload_option_accepted(self):
        report = Session().run(
            RunSpec("bfs", 16, seed=1, extras={"family": "grid"})
        )
        assert report.correct

    def test_run_option_accepted(self):
        # ``source`` is a keyword of the bfs run callable, not a workload
        # option; validation must accept both kinds.
        report = Session().run(RunSpec("bfs", 16, seed=1, extras={"source": 2}))
        assert report.correct

    def test_run_many_validates_too(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Session().run_many(
                [RunSpec("bfs", 16, seed=1, extras={"familly": "grid"})]
            )


class TestSweepGrid:
    def test_grid_order_is_algorithm_major(self):
        specs = sweep_grid(["mst", "mis"], [16, 24], seeds=[0, 1])
        assert len(specs) == 8
        assert [s.algorithm for s in specs[:4]] == ["mst"] * 4
        assert [(s.n, s.seed) for s in specs[:4]] == [
            (16, 0), (16, 1), (24, 0), (24, 1),
        ]

    def test_engines_axis(self):
        specs = sweep_grid(["mis"], [16], engines=["reference", "batched"])
        assert [s.engine for s in specs] == ["reference", "batched"]

    def test_duplicate_axis_values_collapse(self):
        """Regression: ``ns=[64, 64]`` used to emit every row twice (and
        rerun it); axes dedupe preserving first-occurrence order."""
        specs = sweep_grid(["mis", "mis"], [24, 16, 24], seeds=[0, 1, 0])
        assert len(specs) == 4
        assert [(s.n, s.seed) for s in specs] == [
            (24, 0), (24, 1), (16, 0), (16, 1),
        ]
        specs = sweep_grid(
            ["mis"], [16], engines=["batched", "reference", "batched"]
        )
        assert [s.engine for s in specs] == ["batched", "reference"]


class TestParallelDeterminism:
    """`Session.run_many` must be deterministic: the JSONL bytes for a
    mixed-engine grid are identical for jobs=1 and jobs=4 (guards the
    shared-randomness seeding across worker processes)."""

    # the acceptance grid: 3 algorithms x 2 sizes x 2 seeds x both engines.
    SPECS = sweep_grid(
        ["mis", "matching", "bfs"],
        [16, 24],
        seeds=[0, 1],
        engines=["reference", "batched"],
    )

    @pytest.mark.engine("reference")  # pins its own engines; skip replays
    def test_jobs4_bytes_equal_jobs1(self, tmp_path):
        serial_path = str(tmp_path / "serial.jsonl")
        parallel_path = str(tmp_path / "parallel.jsonl")
        serial = Session().run_many(self.SPECS, jobs=1, out=serial_path)
        parallel = Session().run_many(self.SPECS, jobs=4, out=parallel_path)
        assert len(serial) == len(self.SPECS) == 24
        serial_bytes = (tmp_path / "serial.jsonl").read_bytes()
        parallel_bytes = (tmp_path / "parallel.jsonl").read_bytes()
        assert serial_bytes == parallel_bytes
        assert all(r.correct for r in serial)
        # report order always matches spec order
        session = Session()
        assert [r.spec for r in parallel] == [
            session.canonical(s) for s in self.SPECS
        ]

    def test_run_many_serial_matches_run(self):
        specs = sweep_grid(["mis"], [16], seeds=[0, 1])
        session = Session()
        many = session.run_many(specs)
        singly = [Session().run(s) for s in specs]
        assert [r.to_json_line() for r in many] == [
            r.to_json_line() for r in singly
        ]

    def test_progress_callback_sees_every_report(self):
        seen = []
        Session().run_many(
            sweep_grid(["mis"], [16], seeds=[0, 1]), progress=seen.append
        )
        assert [r.spec.seed for r in seen] == [0, 1]
