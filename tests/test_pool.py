"""The persistent worker pool: shared-memory graph transport, pool
lifecycle, determinism across pools, and — crucially — crash robustness
(a SIGKILLed worker must not take the sweep down or corrupt its output)."""

import pytest

from repro.api import (
    Manifest,
    ResultStore,
    RunSpec,
    Session,
    WorkerCrashError,
    shared_memory_available,
    sweep_grid,
)
from repro.api.pool import pack_graph, unpack_graph
from repro.workers import CHAOS_ENV

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this host",
)


def canonical_grid(specs):
    session = Session()
    return [session.canonical(s) for s in specs]


class TestGraphTransport:
    """pack_graph/unpack_graph and the trusted from_canonical_arrays path
    must round-trip a workload graph exactly — the persistent pool ships
    every workload through them."""

    def build(self, name, n, seed):
        from repro.registry import get_algorithm

        return Session()._workload(
            get_algorithm(name), Session().canonical(RunSpec(name, n, seed=seed))
        )

    @pytest.mark.parametrize("algo,n", [("mis", 16), ("mst", 16), ("bfs", 25)])
    def test_roundtrip_preserves_graph(self, algo, n):
        g = self.build(algo, n, seed=1)
        meta, flat = pack_graph(g)
        g2 = unpack_graph(meta, flat)
        assert g2.n == g.n and g2.m == g.m
        assert g2.edges() == g.edges()
        assert g2.is_weighted() == g.is_weighted()
        for u in range(g.n):
            assert g2.neighbors(u) == g.neighbors(u)
        if g.is_weighted():
            for u, v in g.edges():
                assert g2.weight(u, v) == g.weight(u, v)

    def test_weighted_columns_carry_weights(self):
        g = self.build("mst", 16, seed=0)
        meta, flat = pack_graph(g)
        assert meta["weighted"] is True
        assert flat.size == 3 * g.m  # 2m endpoints + m weights


@needs_shm
class TestPoolLifecycle:
    def test_close_reaps_workers_and_segments(self):
        session = Session()
        specs = sweep_grid(["mis"], [16], seeds=[0, 1])
        session.run_many(specs, jobs=2)
        pool = session._pool
        assert pool is not None and pool.alive_workers == 2
        seg_names = [seg.shm.name for seg in pool._segments.values()]
        assert seg_names
        session.close()
        assert pool.alive_workers == 0
        assert session._pool is None
        from multiprocessing import shared_memory

        for name in seg_names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pool_reused_across_run_many_calls(self):
        with Session() as session:
            session.run_many(sweep_grid(["mis"], [16], seeds=[0, 1]), jobs=2)
            first = session._pool
            session.run_many(sweep_grid(["mis"], [16], seeds=[2, 3]), jobs=2)
            assert session._pool is first
        # The pool is sized by jobs, not by the sweep: 2-, 6- and 2-row
        # sweeps at jobs=3 share one warm 3-worker pool.
        with Session() as session:
            pools = []
            for rows in (2, 6, 2):
                specs = sweep_grid(["mis"], [16], seeds=range(rows))
                session.run_many(specs, jobs=3)
                pools.append(session._pool)
            assert pools[0] is pools[1] is pools[2]
            assert pools[0].alive_workers == 3

    def test_context_manager_closes(self):
        with Session() as session:
            session.run_many(sweep_grid(["mis"], [16], seeds=[0, 1]), jobs=2)
            pool = session._pool
        assert pool.alive_workers == 0


@needs_shm
class TestPersistentDeterminism:
    """The persistent pool must emit byte-identical reports to the serial
    path — reports are a pure function of the canonicalized spec
    regardless of which process ran them."""

    SPECS = sweep_grid(
        ["mis", "matching", "mst"], [16], seeds=[0, 1],
        engines=["reference", "batched"],
    )

    @pytest.mark.engine("reference")  # pins its own engines; skip replays
    def test_persistent_equals_serial(self):
        serial = Session().run_many(self.SPECS, jobs=1)
        with Session() as s:
            persistent = s.run_many(self.SPECS, jobs=3)
        lines = [r.to_json_line() for r in serial]
        assert [r.to_json_line() for r in persistent] == lines

    def test_warm_pool_rerun_identical(self):
        specs = sweep_grid(["mis"], [16], seeds=[0, 1, 2])
        with Session() as s:
            first = s.run_many(specs, jobs=2)
            second = s.run_many(specs, jobs=2)
        assert [r.to_json_line() for r in first] == [
            r.to_json_line() for r in second
        ]


@needs_shm
class TestCrashRobustness:
    """Crash injection via the REPRO_CHAOS hook: a worker SIGKILLed
    mid-grid must not lose the sweep — its in-flight spec requeues to a
    survivor, the manifest records the incident, and the output is
    byte-identical to an undisturbed run."""

    GRID = sweep_grid(["mis"], [16], seeds=list(range(6)))

    def test_sigkill_mid_grid_sweep_completes(self, tmp_path, monkeypatch):
        grid = canonical_grid(self.GRID)
        victim = grid[3].content_hash()
        flag = tmp_path / "chaos.flag"
        monkeypatch.setenv(CHAOS_ENV, f"{victim[:16]}:{flag}")
        store = str(tmp_path / "store")
        manifest = str(tmp_path / "manifest.jsonl")
        with Session() as s:
            reports = s.run_many(self.GRID, jobs=2, store=store, manifest=manifest)
        assert len(reports) == len(self.GRID)
        assert flag.exists()  # the injected kill actually fired

        # every spec ran exactly once into the store
        by_hash = ResultStore.open(store).reports_by_hash()  # raises on dupes
        assert set(by_hash) == {s.content_hash() for s in grid}

        # the incident is journaled with the requeue recorded
        mani = Manifest.load(manifest)
        assert mani.complete
        kinds = [(e["kind"], e["requeued"]) for e in mani.incidents]
        assert ("worker-crash", True) in kinds

        # crash recovery is invisible in the results
        monkeypatch.delenv(CHAOS_ENV)
        serial = Session().run_many(self.GRID, jobs=1)
        assert [r.to_json_line() for r in reports] == [
            r.to_json_line() for r in serial
        ]

    def test_poisonous_spec_aborts_with_clean_error(self, tmp_path, monkeypatch):
        grid = canonical_grid(self.GRID)
        victim = grid[2].content_hash()
        # empty flagfile path = kill *every* worker that picks the spec up
        monkeypatch.setenv(CHAOS_ENV, f"{victim[:16]}:")
        with Session() as s:
            with pytest.raises(WorkerCrashError):
                s.run_many(self.GRID, jobs=2)

    def test_completed_rows_survive_poison_abort(self, tmp_path, monkeypatch):
        # Rows finished before the abort stay durable in the store, and the
        # sweep resumes cleanly once the poison is gone.
        grid = canonical_grid(self.GRID)
        victim = grid[-1].content_hash()  # last row: others complete first
        monkeypatch.setenv(CHAOS_ENV, f"{victim[:16]}:")
        store = str(tmp_path / "store")
        manifest = str(tmp_path / "manifest.jsonl")
        with Session() as s:
            with pytest.raises(WorkerCrashError):
                s.run_many(self.GRID, jobs=2, store=store, manifest=manifest)
        done_before = Manifest.load(manifest).done_rows
        assert 0 < done_before < len(grid)
        monkeypatch.delenv(CHAOS_ENV)
        with Session() as s:
            reports = s.run_many(
                self.GRID, jobs=2, store=store, manifest=manifest
            )
        assert len(reports) == len(grid)
        assert Manifest.load(manifest).complete

    def test_chaos_flagfile_fires_exactly_once(self, tmp_path, monkeypatch):
        # Two sweeps over the same grid in one session: the flag file is
        # claimed by the first kill, so the second pass — including the
        # requeued victim spec itself — runs undisturbed on the warm pool.
        grid = canonical_grid(self.GRID)
        flag = tmp_path / "chaos.flag"
        monkeypatch.setenv(CHAOS_ENV, f"{grid[0].content_hash()[:16]}:{flag}")
        with Session() as s:
            first = s.run_many(self.GRID, jobs=2)
            second = s.run_many(self.GRID, jobs=2)
        assert flag.exists()
        assert [r.to_json_line() for r in first] == [
            r.to_json_line() for r in second
        ]


class TestPoolFallback:
    def test_no_shared_memory_runs_serially(self, monkeypatch):
        # Without shared memory there is no pool: jobs=2 runs serially,
        # byte-identical to jobs=1, and the tracer says why.
        from repro import workers
        from repro.telemetry import tracing

        specs = sweep_grid(["mis"], [16], seeds=[0, 1, 2])
        serial = Session().run_many(specs, jobs=1)
        monkeypatch.setattr(workers, "shared_memory_available", lambda: False)
        with Session() as s, tracing() as tr:
            reports = s.run_many(specs, jobs=2)
            assert s._pool is None
        assert [r.to_json_line() for r in reports] == [
            r.to_json_line() for r in serial
        ]
        degraded = [f for _, name, f in tr.structure() if name == "pool-degraded"]
        assert degraded == [{"reason": "no-shared-memory", "jobs": 2}]
