"""The distributed Identification Algorithm (Section 4.1)."""

import pytest

from repro.algorithms.identification import identification_family, run_identification
from repro.graphs import generators
from tests.conftest import make_runtime


def setup_case(g, playing, seed=1, s=7, q=256):
    """Learners = everyone not playing; playing nodes consider all their
    non-playing neighbours potentially learning."""
    rt = make_runtime(g.n, seed=seed)
    fam = identification_family(rt, s, q, tag="fam")
    playing = set(playing)
    learners = [u for u in range(g.n) if u not in playing]
    candidates = {u: list(g.neighbors(u)) for u in learners}
    potential = {
        v: [w for w in g.neighbors(v) if w not in playing] for v in playing
    }
    return rt, fam, learners, candidates, potential, playing


class TestIdentification:
    def check(self, g, playing, seed=1, **kw):
        rt, fam, learners, candidates, potential, playing = setup_case(
            g, playing, seed=seed, **kw
        )
        res = run_identification(rt, g, learners, candidates, potential, fam)
        assert rt.net.stats.violation_count == 0
        for u in learners:
            if u in res.unsuccessful:
                continue
            expected_red = sorted(v for v in g.neighbors(u) if v not in playing)
            assert sorted(res.red_neighbors[u]) == expected_red
        return res

    def test_no_players_everything_red(self):
        g = generators.cycle(12)
        res = self.check(g, playing=[])
        assert not res.unsuccessful

    def test_all_neighbors_playing_nothing_red(self):
        g = generators.star(12)
        res = self.check(g, playing=range(1, 12))
        assert not res.unsuccessful
        assert res.red_neighbors[0] == []

    def test_mixed_playing(self):
        g = generators.grid(4, 4)
        res = self.check(g, playing=[0, 3, 5, 10, 15])
        assert not res.unsuccessful

    def test_forest_union(self):
        g = generators.forest_union(20, 2, seed=3)
        res = self.check(g, playing=[u for u in range(20) if u % 3 == 0])
        assert not res.unsuccessful

    def test_tiny_q_yields_unsuccessful_not_wrong(self):
        """Starved of trials, the algorithm must degrade to 'unsuccessful',
        never to wrong identifications."""
        g = generators.complete(10)
        rt, fam, learners, candidates, potential, playing = setup_case(
            g, playing=[0, 1], s=4, q=6
        )
        res = run_identification(rt, g, learners, candidates, potential, fam)
        for u, reds in res.red_neighbors.items():
            true_red = {v for v in g.neighbors(u) if v not in playing}
            assert set(reds) <= true_red

    def test_isolated_learner(self):
        from repro import InputGraph

        g = InputGraph(6, [(1, 2)])
        res = self.check(g, playing=[1])
        assert res.red_neighbors[0] == []
        assert res.red_neighbors[2] == []  # its only neighbour plays

    def test_rounds_charged(self):
        g = generators.cycle(16)
        rt, fam, learners, candidates, potential, playing = setup_case(
            g, playing=[0, 4, 8]
        )
        before = rt.net.round_index
        res = run_identification(rt, g, learners, candidates, potential, fam)
        assert rt.net.round_index > before
        assert res.rounds == rt.net.round_index - before
