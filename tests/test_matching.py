"""Distributed maximal matching: validity and behaviour."""

import pytest

from repro.algorithms import MatchingAlgorithm
from repro.baselines.sequential import is_matching, is_maximal_matching
from repro.graphs import generators
from tests.conftest import make_runtime


def run_matching(g, seed=1, **extras):
    rt = make_runtime(g.n, seed=seed, **extras)
    res = MatchingAlgorithm(rt, g).run()
    return rt, res


class TestValidity:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: generators.path(16),
            lambda: generators.cycle(16),
            lambda: generators.cycle(17),
            lambda: generators.star(18),
            lambda: generators.grid(4, 5),
            lambda: generators.random_tree(24, seed=1),
            lambda: generators.forest_union(24, 3, seed=2),
            lambda: generators.complete(12),
            lambda: generators.gnp(22, 0.2, seed=3),
        ],
        ids=[
            "path", "even-cycle", "odd-cycle", "star", "grid", "tree",
            "forest3", "complete", "gnp",
        ],
    )
    def test_maximal_matching(self, maker):
        g = maker()
        rt, res = run_matching(g)
        assert is_maximal_matching(g, res.edges)
        assert rt.net.stats.violation_count == 0

    def test_star_matches_exactly_one_edge(self):
        g = generators.star(16)
        rt, res = run_matching(g)
        assert len(res.edges) == 1
        assert 0 in next(iter(res.edges))

    def test_perfect_on_even_path(self):
        g = generators.path(8)
        rt, res = run_matching(g)
        # maximal on a path covers at least 1/2 of a maximum matching
        assert len(res.edges) >= 2
        assert is_matching(g, res.edges)

    def test_empty_graph(self):
        from repro import InputGraph

        g = InputGraph(8, [])
        rt, res = run_matching(g)
        assert res.edges == set()

    def test_single_edge(self):
        from repro import InputGraph

        g = InputGraph(6, [(2, 4)])
        rt, res = run_matching(g)
        assert res.edges == {(2, 4)}

    def test_disconnected(self):
        g = generators.disjoint_cliques(16, 4)
        rt, res = run_matching(g)
        assert is_maximal_matching(g, res.edges)
        assert len(res.edges) == 8  # perfect within each K4


class TestBehaviour:
    def test_deterministic(self):
        g = generators.forest_union(20, 2, seed=4)
        _, a = run_matching(g, seed=5)
        _, b = run_matching(g, seed=5)
        assert a.edges == b.edges
        assert a.rounds == b.rounds

    def test_half_approximation(self):
        """Any maximal matching is a 1/2-approximation of maximum (on 12
        nodes, the exhaustive oracle's limit)."""
        from tests.graph_oracles import maximum_matching_size

        for seed in (6, 7, 8):
            g = generators.gnp(12, 0.35, seed=seed)
            _, res = run_matching(g)
            assert len(res.edges) >= maximum_matching_size(g) / 2

    def test_phase_count_logarithmic(self):
        g = generators.forest_union(64, 2, seed=7)
        rt, res = run_matching(g, lightweight_sync=True)
        assert res.phases <= 8 * 6 + 16

    def test_size_mismatch_rejected(self):
        rt = make_runtime(8)
        with pytest.raises(ValueError):
            MatchingAlgorithm(rt, generators.path(4))
