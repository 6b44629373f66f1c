"""Experiment BT-1 — Lemma 5.1 + ablation: orientation-based broadcast-tree
setup vs the naive join-every-neighbour setup.

Section 5's motivating observation: with naive joins ℓ = ∆, so the setup
costs O(d̄ + ∆/log n + log n) — Θ(n/log n) on a star — while the
orientation trick caps every node's injections at 2·outdeg = O(a).  The
table shows the measured rounds for both on stars of doubling size: the
naive cost grows ~linearly, the Lemma 5.1 cost stays ~flat, and the gap
widens with n (the "who wins, by what factor" row of this experiment).
"""

import pytest

from repro import NCCRuntime
from repro.algorithms import build_broadcast_trees
from repro.analysis.reporting import format_table
from repro.registry import bench_config
from repro.baselines.naive import naive_broadcast_tree_setup_rounds
from repro.graphs import generators

from .conftest import run_once

SEED = 4


def test_star_setup_ablation(benchmark, report):
    rows = []
    for n in (32, 64, 128, 256):
        g = generators.star(n)

        rt_naive = NCCRuntime(n, bench_config(SEED))
        naive_rounds = naive_broadcast_tree_setup_rounds(rt_naive, g)

        rt_smart = NCCRuntime(n, bench_config(SEED))
        bt = build_broadcast_trees(rt_smart, g)
        smart_total = bt.setup_rounds + bt.orientation_rounds

        surcharge = naive_rounds - bt.setup_rounds
        rows.append(
            [
                n,
                naive_rounds,
                bt.setup_rounds,
                surcharge,
                bt.orientation_rounds,
                smart_total,
            ]
        )
    # Both setups share an additive O(log n) overhead (barriers, injection
    # floor); the quantity Lemma 5.1 removes is the ℓ = ∆ *surcharge* of the
    # naive joins, which must grow like ∆/log n = Θ(n/log n) while the L5.1
    # setup itself stays ~log n.  (At simulable sizes the one-time shared
    # orientation still dominates the total — crossover extrapolates to
    # n ≈ 4k with our constants.)
    assert rows[-1][1] > rows[-1][2], "naive must lose to the L5.1 setup"
    surcharge_growth = rows[-1][3] / max(1, rows[0][3])
    setup_growth = rows[-1][2] / max(1, rows[0][2])
    assert surcharge_growth > 1.5 * setup_growth, "∆-surcharge must outgrow setup"
    report(
        format_table(
            ["n", "naive setup", "L5.1 setup", "∆-surcharge", "orientation (shared)", "L5.1 total"],
            rows,
            title="BT-1  Broadcast-tree setup on stars: naive (ℓ=∆) vs Lemma 5.1 (ℓ=O(a))",
        )
        + "\n  the naive ∆-surcharge grew {:.1f}x over 8x n (Θ(n/log n));".format(surcharge_growth)
        + "\n  the L5.1 setup grew {:.1f}x (Θ(log n)).  The orientation is computed".format(setup_growth)
        + "\n  once and shared by every Section-5 algorithm."
    )
    run_once(benchmark, lambda: None)


def test_setup_scales_with_arboricity_not_degree(benchmark, report):
    """On forest unions, the Lemma 5.1 setup rounds follow a, not ∆."""
    rows = []
    for a in (1, 2, 4):
        g = generators.forest_union(128, a, seed=SEED)
        rt = NCCRuntime(128, bench_config(SEED))
        bt = build_broadcast_trees(rt, g)
        rows.append([a, g.max_degree, bt.setup_rounds, bt.congestion()])
    # setup rounds must grow far slower than max degree does
    assert rows[-1][2] < rows[0][2] * 4
    report(
        format_table(
            ["a", "∆", "setup rounds", "tree congestion"],
            rows,
            title="BT-1  Setup cost tracks arboricity (n=128)",
        )
    )
    run_once(benchmark, lambda: None)
