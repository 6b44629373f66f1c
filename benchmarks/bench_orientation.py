"""Experiment OR-1 — Theorem 4.12: O(a)-orientation in O((a + log n) log n).

Checks the three claims of Section 4 at once: the computed orientation is a
valid orientation (every edge directed once), the maximum outdegree is O(a)
(≤ 4a with the d̄ᵢ ≤ 2a peeling argument's constant), and rounds track
(a + log n) log n across both sweeps.
"""

import pytest

from repro import NCCRuntime
from repro.algorithms import OrientationAlgorithm
from repro.analysis.complexity import rank_models
from repro.analysis.reporting import format_table
from repro.registry import bench_config, get_algorithm
from repro.graphs import arboricity, generators

from .conftest import run_once

SEED = 2


def run_orientation(g):
    rt = NCCRuntime(g.n, bench_config(SEED))
    ori = OrientationAlgorithm(rt, g).run()
    assert arboricity.verify_orientation_bound(g, ori.out_neighbors, 10**9)
    assert rt.net.stats.violation_count == 0
    return rt, ori


def test_orientation_arboricity_sweep(benchmark, report):
    rows = []
    for a in (1, 2, 4, 8):
        g = generators.forest_union(96, a, seed=SEED)
        rt, ori = run_orientation(g)
        rows.append([a, ori.max_outdegree, 4 * a, ori.phases, ori.rounds])
        assert ori.max_outdegree <= 4 * a
    report(
        format_table(
            ["a", "max outdegree", "4a bound", "phases", "rounds"],
            rows,
            title="OR-1  Orientation arboricity sweep at n=96 (Theorem 4.12)",
        )
    )
    run_once(benchmark, lambda: run_orientation(generators.forest_union(64, 4, seed=SEED)))


def test_orientation_n_sweep(benchmark, report):
    rows = []
    params = []
    rounds = []
    for n in (32, 64, 128, 256):
        g = generators.forest_union(n, 2, seed=SEED)
        rt, ori = run_orientation(g)
        rows.append([n, ori.max_outdegree, ori.phases, ori.rounds])
        params.append({"n": n, "a": 2})
        rounds.append(ori.rounds)
    bound = get_algorithm("orientation").bound
    fits = rank_models(params, rounds, bound)
    by_name = {f.model: f for f in fits}
    assert by_name[bound].rmse <= by_name["n"].rmse
    report(
        format_table(
            ["n", "max outdegree", "phases", "rounds"],
            rows,
            title=f"OR-1  Orientation n-sweep at a=2 (bound {bound})",
        )
        + "\n  model fits (best first): "
        + "; ".join(f"{f.model} nrmse={f.rmse:.2f}" for f in fits[:3])
    )
    run_once(benchmark, lambda: None)


def test_orientation_degenerate_families(benchmark, report):
    """Stars and grids: a is tiny while ∆ or D is large — outdegree must
    follow a."""
    rows = []
    for name, g, a in [
        ("star", generators.star(128), 1),
        ("grid", generators.grid(11, 11), 3),
        ("caterpillar", generators.caterpillar(16, 7), 1),
    ]:
        rt, ori = run_orientation(g)
        rows.append([name, g.n, g.max_degree, a, ori.max_outdegree, ori.rounds])
        assert ori.max_outdegree <= 4 * a
    report(
        format_table(
            ["family", "n", "∆", "a", "max outdegree", "rounds"],
            rows,
            title="OR-1  Orientation on low-arboricity/high-degree families",
        )
    )
    run_once(benchmark, lambda: None)
