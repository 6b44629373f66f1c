"""InputGraph: validation, local views, identifier round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import InputGraph, InputGraphError
from repro.ncc.graph_input import canonical_edge


class TestConstruction:
    def test_basic(self):
        g = InputGraph(4, [(0, 1), (1, 2), (0, 1)])
        assert g.m == 2  # duplicate collapsed
        assert g.neighbors(1) == (0, 2)
        assert g.degree(0) == 1

    def test_reversed_duplicate_collapses(self):
        g = InputGraph(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_rejects_self_loops(self):
        with pytest.raises(InputGraphError):
            InputGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputGraphError):
            InputGraph(3, [(0, 3)])
        with pytest.raises(InputGraphError):
            InputGraph(3, [(-1, 0)])

    def test_rejects_bad_n(self):
        with pytest.raises(InputGraphError):
            InputGraph(0, [])

    def test_empty_graph(self):
        g = InputGraph(5, [])
        assert g.m == 0
        assert g.max_degree == 0
        assert g.average_degree == 0.0


class TestWeights:
    def test_weights_readable_from_both_endpoints(self):
        g = InputGraph(3, [(0, 1)], {(0, 1): 7})
        assert g.weight(0, 1) == 7
        assert g.weight(1, 0) == 7
        assert g.is_weighted()

    def test_unweighted_defaults_to_one(self):
        g = InputGraph(3, [(0, 1)])
        assert g.weight(0, 1) == 1
        assert not g.is_weighted()

    def test_weight_of_non_edge_rejected(self):
        g = InputGraph(3, [(0, 1)], {(0, 1): 2})
        with pytest.raises(InputGraphError):
            g.weight(0, 2)

    def test_missing_weight_rejected(self):
        with pytest.raises(InputGraphError):
            InputGraph(3, [(0, 1), (1, 2)], {(0, 1): 2})

    def test_weight_for_non_edge_rejected(self):
        with pytest.raises(InputGraphError):
            InputGraph(3, [(0, 1)], {(0, 1): 2, (0, 2): 3})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputGraphError):
            InputGraph(3, [(0, 1)], {(0, 1): 0})

    def test_max_weight(self):
        g = InputGraph(3, [(0, 1), (1, 2)], {(0, 1): 2, (1, 2): 9})
        assert g.max_weight() == 9


class TestIdentifiers:
    @given(st.integers(min_value=2, max_value=500), st.data())
    @settings(max_examples=100)
    def test_arc_id_roundtrip(self, n, data):
        u = data.draw(st.integers(min_value=0, max_value=n - 1))
        v = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u))
        g = InputGraph(n, [(u, v)])
        assert g.arc_of_id(g.arc_id(u, v)) == (u, v)
        assert g.arc_of_id(g.arc_id(v, u)) == (v, u)

    def test_arc_ids_nonzero_and_distinct(self):
        g = InputGraph(8, [(0, 1), (1, 2)])
        ids = {g.arc_id(u, v) for u in range(8) for v in range(8) if u != v}
        assert 0 not in ids
        assert len(ids) == 8 * 7

    def test_edge_id_sorts_endpoints(self):
        g = InputGraph(5, [(3, 1)])
        assert g.edge_id(3, 1) == g.edge_id(1, 3) == g.arc_id(1, 3)

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)


class TestViews:
    def test_has_edge_symmetric(self):
        g = InputGraph(4, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_average_degree(self):
        g = InputGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.average_degree == pytest.approx(1.5)

    def test_iteration_yields_sorted_edges(self):
        g = InputGraph(4, [(3, 2), (1, 0)])
        assert list(g) == [(0, 1), (2, 3)]

    @given(
        st.integers(min_value=2, max_value=30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n - 1),
                        st.integers(min_value=0, max_value=n - 1),
                    ).filter(lambda e: e[0] != e[1]),
                    max_size=60,
                ),
            )
        )
    )
    @settings(max_examples=100)
    def test_degree_sum_is_twice_edges(self, n_edges):
        n, edges = n_edges
        g = InputGraph(n, edges)
        assert sum(g.degree(u) for u in range(n)) == 2 * g.m
