"""Arboricity estimation: bounds sandwich and forest decompositions."""

import pytest

from repro import InputGraph
from repro.graphs import arboricity, generators


class TestKnownValues:
    def test_tree_is_one(self):
        g = generators.random_tree(20, seed=1)
        lo, hi = arboricity.arboricity_bounds(g)
        assert lo == 1 and hi == 1

    def test_cycle_is_two(self):
        g = generators.cycle(10)
        lo, hi = arboricity.arboricity_bounds(g)
        assert lo <= 2 <= hi
        assert hi <= 2

    def test_complete_nash_williams(self):
        # a(K_n) = ceil(n/2)
        g = generators.complete(10)
        lo, hi = arboricity.arboricity_bounds(g)
        assert lo == 5
        assert hi >= 5

    def test_grid_at_most_three(self):
        g = generators.grid(6, 6)
        _, hi = arboricity.arboricity_bounds(g)
        assert hi <= 3

    def test_empty_graph(self):
        g = InputGraph(5, [])
        lo, hi = arboricity.arboricity_bounds(g)
        assert (lo, hi) == (0, 0)

    def test_bounds_sandwich(self):
        for seed in range(5):
            g = generators.gnp(24, 0.2, seed=seed)
            lo, hi = arboricity.arboricity_bounds(g)
            assert lo <= hi


class TestForestPartition:
    def test_partition_covers_all_edges_once(self):
        g = generators.gnp(20, 0.3, seed=3)
        forests = arboricity.greedy_forest_partition(g)
        all_edges = [e for f in forests for e in f]
        assert sorted(all_edges) == sorted(g.edges())

    def test_each_part_is_a_forest(self):
        from tests.graph_oracles import union_find_components

        g = generators.gnp(20, 0.3, seed=4)
        for forest in arboricity.greedy_forest_partition(g):
            _, acyclic = union_find_components(g.n, forest)
            assert acyclic


class TestDegeneracy:
    def test_order_is_permutation(self):
        g = generators.gnp(20, 0.2, seed=5)
        order, _ = arboricity.degeneracy_order(g)
        assert sorted(order) == list(range(20))

    def test_tree_degeneracy_one(self):
        g = generators.random_tree(20, seed=6)
        _, d = arboricity.degeneracy_order(g)
        assert d == 1

    def test_complete_degeneracy(self):
        g = generators.complete(8)
        _, d = arboricity.degeneracy_order(g)
        assert d == 7

    def test_degeneracy_vs_arboricity(self):
        # a <= degeneracy <= 2a - 1
        for seed in range(3):
            g = generators.forest_union(24, 3, seed=seed)
            lo, _ = arboricity.arboricity_bounds(g)
            _, d = arboricity.degeneracy_order(g)
            assert lo <= d + 1  # loose sanity: lower bound can't far exceed


class TestOrientationVerifier:
    def test_accepts_valid(self):
        g = InputGraph(3, [(0, 1), (1, 2)])
        assert arboricity.verify_orientation_bound(g, [(1,), (2,), ()], 1)

    def test_rejects_excess_outdegree(self):
        g = InputGraph(3, [(0, 1), (0, 2)])
        assert not arboricity.verify_orientation_bound(g, [(1, 2), (), ()], 1)

    def test_rejects_double_orientation(self):
        g = InputGraph(2, [(0, 1)])
        assert not arboricity.verify_orientation_bound(g, [(1,), (0,)], 2)

    def test_rejects_missing_edge(self):
        g = InputGraph(3, [(0, 1), (1, 2)])
        assert not arboricity.verify_orientation_bound(g, [(1,), (), ()], 2)
