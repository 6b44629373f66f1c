"""Distributed connected components / spanning forest."""

import pytest

from repro.algorithms import ConnectedComponentsAlgorithm
from repro.graphs import generators, properties
from tests.conftest import make_runtime


def run_cc(g, seed=1, **extras):
    rt = make_runtime(g.n, seed=seed, **extras)
    res = ConnectedComponentsAlgorithm(rt, g).run()
    return rt, res


def expected_labels(g):
    comps = properties.connected_components(g)
    labels = [0] * g.n
    for comp in comps:
        m = min(comp)
        for u in comp:
            labels[u] = m
    return labels


class TestLabels:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: generators.path(16),
            lambda: generators.disjoint_cliques(18, 6),
            lambda: generators.star(20),
            lambda: generators.forest_union(24, 2, seed=1),
            lambda: generators.gnp(20, 0.05, seed=2),  # likely disconnected
        ],
        ids=["path", "cliques", "star", "forest2", "sparse-gnp"],
    )
    def test_labels_match_oracle(self, maker):
        g = maker()
        rt, res = run_cc(g)
        assert res.labels == expected_labels(g)
        assert rt.net.stats.violation_count == 0

    def test_component_count(self):
        g = generators.disjoint_cliques(20, 5)
        _, res = run_cc(g)
        assert res.component_count == 4
        assert sorted(res.members(0)) == [0, 1, 2, 3, 4]

    def test_isolated_nodes_self_labeled(self):
        from repro import InputGraph

        g = InputGraph(6, [(0, 1)])
        _, res = run_cc(g)
        assert res.labels == [0, 0, 2, 3, 4, 5]


class TestForest:
    def test_forest_spans_components(self):
        from tests.graph_oracles import union_find_components

        g = generators.gnp(22, 0.12, seed=3)
        _, res = run_cc(g)
        comps_out, acyclic = union_find_components(g.n, res.forest)
        assert acyclic
        # same connectivity structure as the input
        comps_in = {frozenset(c) for c in properties.connected_components(g)}
        assert comps_in == comps_out

    def test_forest_edge_count(self):
        g = generators.disjoint_cliques(15, 5)
        _, res = run_cc(g)
        assert len(res.forest) == 15 - 3  # n - #components

    def test_forest_edges_exist_in_graph(self):
        g = generators.forest_union(20, 2, seed=4)
        _, res = run_cc(g)
        assert res.forest <= set(g.edges())


class TestBehaviour:
    def test_deterministic(self):
        g = generators.gnp(20, 0.1, seed=5)
        _, a = run_cc(g, seed=7)
        _, b = run_cc(g, seed=7)
        assert a.labels == b.labels and a.forest == b.forest

    def test_cheaper_than_mst(self):
        """Unweighted search keys: fewer sketch iterations than MST."""
        from repro.algorithms import MSTAlgorithm
        from repro.graphs import weights

        g = generators.forest_union(32, 2, seed=6)
        rt1, res_cc = run_cc(g, lightweight_sync=True)
        wg = weights.with_random_weights(g, seed=7)
        rt2 = make_runtime(32, seed=1, lightweight_sync=True)
        res_mst = MSTAlgorithm(rt2, wg).run()
        assert res_cc.rounds < res_mst.rounds

    def test_empty_graph(self):
        from repro import InputGraph

        g = InputGraph(8, [])
        _, res = run_cc(g)
        assert res.labels == list(range(8))
        assert res.forest == set()
