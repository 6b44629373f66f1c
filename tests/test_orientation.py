"""The O(a)-orientation (Section 4): validity, outdegree, acyclicity."""

import pytest

from repro import Enforcement, InputGraph, NCCConfig, NCCRuntime
from repro.algorithms import OrientationAlgorithm, identification, orientation
from repro.errors import ProtocolError
from repro.graphs import arboricity, generators
from repro.ncc.message import InboxBatch
from tests.conftest import make_runtime


def run_orientation(g, seed=1, **extras):
    rt = make_runtime(g.n, seed=seed, **extras)
    res = OrientationAlgorithm(rt, g).run()
    return rt, res


def assert_valid(g, ori):
    """Every edge oriented exactly once; in/out views consistent."""
    seen = set()
    for u in range(g.n):
        for v in ori.out_neighbors[u]:
            e = (u, v) if u < v else (v, u)
            assert e not in seen, f"edge {e} oriented twice"
            seen.add(e)
            assert u in ori.in_neighbors[v]
    assert seen == set(g.edges())
    for u in range(g.n):
        assert len(ori.out_neighbors[u]) + len(ori.in_neighbors[u]) == g.degree(u)


class TestValidity:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: generators.random_tree(24, seed=1),
            lambda: generators.cycle(20),
            lambda: generators.star(24),
            lambda: generators.grid(5, 5),
            lambda: generators.forest_union(24, 3, seed=2),
            lambda: generators.complete(12),
            lambda: generators.caterpillar(4, 4),
        ],
        ids=["tree", "cycle", "star", "grid", "forest3", "complete", "caterpillar"],
    )
    def test_orientation_valid_strict(self, maker):
        g = maker()
        rt, ori = run_orientation(g)
        assert_valid(g, ori)
        assert rt.net.stats.violation_count == 0

    def test_empty_graph(self):
        from repro import InputGraph

        g = InputGraph(8, [])
        rt, ori = run_orientation(g)
        assert ori.max_outdegree == 0
        assert all(lvl >= 1 for lvl in ori.level)

    def test_disconnected(self):
        g = generators.disjoint_cliques(18, 6)
        rt, ori = run_orientation(g)
        assert_valid(g, ori)


class TestOutdegreeBound:
    @pytest.mark.parametrize(
        "maker,a_bound",
        [
            (lambda: generators.random_tree(32, seed=3), 1),
            (lambda: generators.star(32), 1),
            (lambda: generators.grid(6, 6), 3),
            (lambda: generators.forest_union(32, 2, seed=4), 2),
            (lambda: generators.forest_union(32, 4, seed=5), 4),
        ],
        ids=["tree", "star", "grid", "forest2", "forest4"],
    )
    def test_outdegree_at_most_4a(self, maker, a_bound):
        """Active nodes have dᵢ(u) ≤ 2·d̄ᵢ ≤ 4a, so outdegree ≤ 4a."""
        g = maker()
        rt, ori = run_orientation(g)
        assert ori.max_outdegree <= 4 * a_bound

    def test_star_center_has_outdegree_zero_or_one(self):
        g = generators.star(20)
        rt, ori = run_orientation(g)
        assert len(ori.out_neighbors[0]) <= 1


class TestLevelStructure:
    def test_levels_acyclic_order(self):
        """Edges go 'forward': (level, id) strictly increases along every
        directed edge — inactive nodes point at later-leaving neighbours,
        same-level edges follow identifiers."""
        g = generators.forest_union(28, 3, seed=6)
        rt, ori = run_orientation(g)
        for u, v in ori.arcs():
            assert (ori.level[u], u) < (ori.level[v], v) or ori.level[u] < ori.level[v] or (
                ori.level[u] == ori.level[v] and u < v
            )

    def test_same_level_arcs_by_id(self):
        g = generators.grid(5, 5)
        rt, ori = run_orientation(g)
        for u, v in ori.arcs():
            if ori.level[u] == ori.level[v]:
                assert u < v

    def test_cross_level_arcs_increase(self):
        g = generators.forest_union(24, 2, seed=7)
        rt, ori = run_orientation(g)
        for u, v in ori.arcs():
            assert ori.level[u] <= ori.level[v]

    def test_levels_positive_and_bounded(self):
        g = generators.random_tree(30, seed=8)
        rt, ori = run_orientation(g)
        assert all(1 <= lvl <= ori.phases for lvl in ori.level)

    def test_star_leaves_before_center(self):
        g = generators.star(16)
        rt, ori = run_orientation(g)
        assert all(ori.level[leaf] == 1 for leaf in range(1, 16))
        assert ori.level[0] == 2

    def test_phase_count_logarithmic(self):
        g = generators.forest_union(64, 2, seed=9)
        rt, ori = run_orientation(g, lightweight_sync=True)
        assert ori.phases <= 2 * 6 + 4

    def test_same_level_neighbors_view(self):
        g = generators.grid(4, 4)
        rt, ori = run_orientation(g)
        for u in range(g.n):
            same = set(ori.same_level_neighbors(u))
            expected = {
                v for v in g.neighbors(u) if ori.level[v] == ori.level[u]
            }
            assert same == expected


class TestDeterminismAndErrors:
    def test_deterministic(self):
        g = generators.forest_union(20, 2, seed=10)
        _, a = run_orientation(g, seed=3)
        _, b = run_orientation(g, seed=3)
        assert a.out_neighbors == b.out_neighbors
        assert a.rounds == b.rounds

    def test_size_mismatch_rejected(self):
        rt = make_runtime(8)
        with pytest.raises(ValueError):
            OrientationAlgorithm(rt, generators.path(4))

    def test_phase_limit(self):
        g = generators.forest_union(24, 2, seed=11)
        rt = make_runtime(24, strict=False)
        with pytest.raises(ProtocolError):
            OrientationAlgorithm(rt, g).run(max_phases=0)


@pytest.mark.engine("reference")  # runs both engines itself; skip replays
class TestHighRemovedDegree:
    """Stage 2's step 2a (the U_high gather, broadcast and direct pings)
    runs only for a node that fails the first identification with a removed
    degree above n / log n.  A double star reaches it once hub 0's
    phase-2 identification is reported unsuccessful: its 20 inactive
    leaves exceed 42 / 6 = 7."""

    #: Hubs 0 and 1, adjacent, with 20 leaves each.
    DOUBLE_STAR = [(0, 1)] + [(0, v) for v in range(2, 22)] + [(1, v) for v in range(22, 42)]

    def _run(self, engine, monkeypatch, *, force):
        ident1 = []

        def run_identification(rt, g, learners, *args, kind):
            out = identification.run_identification(rt, g, learners, *args, kind=kind)
            if kind == "orientation:ident1":
                ident1.append(list(learners))
                if force and len(ident1) == 2:
                    assert 0 in ident1[1]
                    out.unsuccessful.add(0)
            return out

        monkeypatch.setattr(orientation, "run_identification", run_identification)
        g = InputGraph(42, self.DOUBLE_STAR)
        rt = NCCRuntime(g.n, NCCConfig(seed=1, enforcement=Enforcement.STRICT, engine=engine))
        kinds = []

        def observe(_r, submitted):
            for batch in submitted.values():
                kinds.extend(batch.kinds() if isinstance(batch, InboxBatch) else (m.kind for m in batch))

        rt.net.round_observer = observe
        ori = OrientationAlgorithm(rt, g).run()
        assert_valid(g, ori)
        return (ori.out_neighbors, ori.in_neighbors, ori.level, ori.phases), kinds

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_forced_step_2a_pings_and_keeps_the_orientation(self, engine, monkeypatch):
        plain, plain_kinds = self._run(engine, monkeypatch, force=False)
        forced, forced_kinds = self._run(engine, monkeypatch, force=True)
        assert "orientation:uhigh-ping" not in plain_kinds
        assert forced_kinds.count("orientation:uhigh-ping") >= 1
        assert forced == plain
