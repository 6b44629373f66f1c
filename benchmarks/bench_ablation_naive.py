"""Experiment NV-1 — ablation: naive direct-communication algorithms vs the
paper's multicast-tree algorithms on high-degree graphs.

The naive baselines are *correct* (they batch to respect capacity) but pay
Θ(⌈∆/log n⌉) per phase, so on stars and preferential-attachment graphs
their rounds blow up with the maximum degree while the paper's algorithms
track a + log n.  This is the quantitative version of the paper's
motivation for Sections 4–5.
"""

import pytest

from repro import NCCRuntime
from repro.algorithms import MISAlgorithm, BFSAlgorithm, build_broadcast_trees
from repro.analysis.reporting import format_table
from repro.registry import bench_config
from repro.baselines.naive import naive_bfs, naive_mis
from repro.baselines.sequential import bfs_tree, is_maximal_independent_set
from repro.graphs import generators

from .conftest import run_once

SEED = 7


def test_naive_vs_tree_bfs_on_stars(benchmark, report):
    rows = []
    for n in (64, 128, 256):
        g = generators.star(n)

        rt_naive = NCCRuntime(n, bench_config(SEED))
        res_naive = naive_bfs(rt_naive, g, 0)
        dist_naive, _ = res_naive.output
        expected, _ = bfs_tree(g, 0)
        assert dist_naive == expected

        rt_smart = NCCRuntime(n, bench_config(SEED))
        res_smart = BFSAlgorithm(rt_smart, g).run(0)
        assert res_smart.dist == expected

        rows.append([n, n - 1, res_naive.rounds, res_smart.rounds])
    report(
        format_table(
            ["n", "∆", "naive BFS rounds", "NCC BFS rounds (incl. setup)"],
            rows,
            title="NV-1  BFS on stars: naive direct sends vs broadcast trees",
        )
        + "\n  note: the tree algorithm amortizes its setup over any number"
        + "\n  of later queries; the naive cost repeats per execution."
    )
    run_once(benchmark, lambda: None)


def test_naive_vs_tree_mis_on_pa_graphs(benchmark, report):
    rows = []
    for n in (64, 128):
        g = generators.preferential_attachment(n, 2, seed=SEED)

        rt_naive = NCCRuntime(n, bench_config(SEED))
        res_naive = naive_mis(rt_naive, g)
        assert is_maximal_independent_set(g, res_naive.output)

        rt_smart = NCCRuntime(n, bench_config(SEED))
        res_smart = MISAlgorithm(rt_smart, g).run()
        assert is_maximal_independent_set(g, res_smart.members)

        rows.append([n, g.max_degree, res_naive.rounds, res_smart.rounds])
    report(
        format_table(
            ["n", "∆", "naive MIS rounds", "NCC MIS rounds (incl. setup)"],
            rows,
            title="NV-1  MIS on preferential-attachment graphs",
        )
    )
    run_once(benchmark, lambda: None)


def test_amortization_crossover(benchmark, report):
    """Broadcast trees pay once, then every Corollary-1 exchange is
    O(log n): after a handful of operations the paper's approach wins even
    where a single naive exchange would be cheaper."""
    n = 128
    g = generators.star(n)

    rt = NCCRuntime(n, bench_config(SEED))
    bt = build_broadcast_trees(rt, g)
    setup = rt.net.round_index
    from repro.primitives import MIN
    from repro.algorithms.broadcast_trees import neighborhood_multi_aggregate

    per_exchange = []
    for _ in range(3):
        before = rt.net.round_index
        neighborhood_multi_aggregate(rt, bt, {0: 1}, MIN)
        per_exchange.append(rt.net.round_index - before)

    rt2 = NCCRuntime(n, bench_config(SEED))
    from repro.baselines.naive import _batched_neighbor_exchange

    before = rt2.net.round_index
    _batched_neighbor_exchange(rt2, g, lambda u: 1, [0], kind="naive")
    naive_per_exchange = rt2.net.round_index - before

    report(
        format_table(
            ["setup (once)", "tree exchange", "naive exchange", "crossover after"],
            [
                [
                    setup,
                    per_exchange[-1],
                    naive_per_exchange,
                    (
                        "never (tree slower/eq)"
                        if per_exchange[-1] >= naive_per_exchange
                        else f"{setup // max(1, naive_per_exchange - per_exchange[-1]) + 1} exchanges"
                    ),
                ]
            ],
            title=f"NV-1  Amortization on a star (n={n})",
        )
    )
    run_once(benchmark, lambda: None)
