"""Sequential baselines: oracles validated against independent in-repo
oracles (``tests/graph_oracles.py``) and each other."""

import pytest

from repro import InputGraph
from repro.baselines import sequential as seq
from repro.graphs import generators, weights
from tests.graph_oracles import (
    maximum_matching_size,
    prim_msf,
    relaxation_distances,
    union_find_components,
)


class TestKruskal:
    def test_matches_prim_weight(self):
        for seed in range(4):
            g = weights.with_random_weights(
                generators.random_connected(24, 0.12, seed=seed), seed=seed + 9
            )
            ours = seq.msf_weight(g)
            theirs = sum(g.weight(u, v) for u, v in prim_msf(g))
            assert ours == theirs

    def test_unique_weights_match_prim_edges(self):
        for g in (
            weights.with_unique_weights(generators.random_connected(20, 0.15, seed=5), seed=6),
            weights.with_unique_weights(generators.disjoint_cliques(12, 4), seed=1),
        ):
            assert seq.kruskal_msf(g) == prim_msf(g)

    def test_forest_count_on_disconnected(self):
        g = weights.with_unique_weights(generators.disjoint_cliques(12, 4), seed=1)
        assert len(seq.kruskal_msf(g)) == 9  # 3 components x 3 edges

    def test_spanning(self):
        g = weights.with_unique_weights(generators.grid(4, 4), seed=2)
        msf = seq.kruskal_msf(g)
        assert len(msf) == 15


class TestBFS:
    def test_matches_relaxation(self):
        for g in (generators.forest_union(20, 2, seed=3), generators.disjoint_cliques(12, 4)):
            dist, parent = seq.bfs_tree(g, 0)
            expected = relaxation_distances(g, 0)
            for v in range(g.n):
                assert dist[v] == expected.get(v)

    def test_parent_smallest_id(self):
        g = InputGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        dist, parent = seq.bfs_tree(g, 0)
        assert parent[3] == 1  # both 1 and 2 are predecessors; 1 < 2


class TestCheckers:
    def test_mis_checker_accepts_greedy(self):
        g = generators.gnp(20, 0.2, seed=4)
        assert seq.is_maximal_independent_set(g, seq.greedy_mis(g))

    def test_mis_checker_rejects_dependent(self):
        g = generators.path(4)
        assert not seq.is_independent_set(g, {0, 1})

    def test_mis_checker_rejects_non_maximal(self):
        g = generators.path(5)
        assert not seq.is_maximal_independent_set(g, {0})

    def test_matching_checker_accepts_greedy(self):
        g = generators.gnp(20, 0.2, seed=5)
        assert seq.is_maximal_matching(g, seq.greedy_matching(g))

    def test_matching_checker_rejects_shared_endpoint(self):
        g = generators.path(4)
        assert not seq.is_matching(g, {(0, 1), (1, 2)})

    def test_matching_checker_rejects_non_edges(self):
        g = generators.path(4)
        assert not seq.is_matching(g, {(0, 3)})

    def test_matching_checker_rejects_non_maximal(self):
        g = generators.path(6)
        assert not seq.is_maximal_matching(g, {(0, 1)})

    def test_coloring_checker_accepts_greedy(self):
        g = generators.gnp(20, 0.2, seed=6)
        assert seq.is_proper_coloring(g, seq.greedy_coloring(g))

    def test_coloring_checker_rejects_conflict(self):
        g = generators.path(3)
        assert not seq.is_proper_coloring(g, {0: 0, 1: 0, 2: 1})

    def test_coloring_checker_requires_totality(self):
        g = generators.path(3)
        assert not seq.is_proper_coloring(g, {0: 0, 1: 1})


class TestDegeneracyColoring:
    def test_uses_at_most_degeneracy_plus_one(self):
        from repro.graphs.arboricity import degeneracy_order

        for seed in range(3):
            g = generators.forest_union(24, 3, seed=seed)
            colors = seq.degeneracy_coloring(g)
            _, degeneracy = degeneracy_order(g)
            assert seq.is_proper_coloring(g, colors)
            assert len(set(colors.values())) <= degeneracy + 1

    def test_tree_two_colors(self):
        g = generators.random_tree(20, seed=7)
        colors = seq.degeneracy_coloring(g)
        assert len(set(colors.values())) <= 2


class TestOracles:
    """The test-side oracles on graphs whose answers are known."""

    def test_union_find_components(self):
        comps, acyclic = union_find_components(6, [(0, 1), (1, 2), (4, 5)])
        assert acyclic
        assert comps == {frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5})}
        _, acyclic = union_find_components(3, [(0, 1), (1, 2), (2, 0)])
        assert not acyclic

    def test_relaxation_distances(self):
        assert relaxation_distances(generators.path(5), 2) == {0: 2, 1: 1, 2: 0, 3: 1, 4: 2}
        assert relaxation_distances(InputGraph(3, [(0, 1)]), 0) == {0: 0, 1: 1}

    def test_prim_msf(self):
        g = InputGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], {(0, 1): 1, (1, 2): 5, (0, 2): 2, (2, 3): 9})
        assert prim_msf(g) == {(0, 1), (0, 2), (2, 3)}

    def test_maximum_matching_size(self):
        assert maximum_matching_size(generators.path(7)) == 3
        assert maximum_matching_size(generators.cycle(9)) == 4
        assert maximum_matching_size(generators.complete(7)) == 3
        assert maximum_matching_size(generators.star(10)) == 1
        assert maximum_matching_size(InputGraph(4, [])) == 0
        with pytest.raises(ValueError):
            maximum_matching_size(generators.path(13))
