#!/usr/bin/env python3
"""Overlay-network scenario: graph analytics over a social graph.

The paper's motivation (Section 1): distributed applications run as overlay
networks over shared infrastructure, so per-node bandwidth — not per-edge
bandwidth — is the constraint.  Here, n peers hold a social "friendship"
graph with heavy-tailed degrees (a preferential-attachment graph: a few
hubs with huge degree, but small arboricity) and jointly compute:

* an O(a)-orientation — the structural tool making hub degrees harmless;
* a maximal independent set — e.g. a scheduling/leader set in which no two
  friends are simultaneously active;
* a maximal matching — e.g. pairing peers for data exchange;
* an O(a)-coloring — e.g. slot assignment where friends never share a slot.

All four run over one set of broadcast trees, so the Lemma 5.1 setup cost
is paid once.  The naive MIS baseline is run for contrast: correct, but its
rounds track the hub degree.

Run:  python examples/overlay_social_network.py [n]
"""

import sys

from repro import NCCRuntime
from repro.algorithms import (
    ColoringAlgorithm,
    MISAlgorithm,
    MatchingAlgorithm,
    build_broadcast_trees,
)
from repro.registry import bench_config
from repro.baselines import sequential as seq
from repro.baselines.naive import naive_mis
from repro.graphs import arboricity, generators


def main(n: int = 96) -> None:
    g = generators.preferential_attachment(n, 2, seed=42)
    lo, hi = arboricity.arboricity_bounds(g)
    print(
        f"social graph: n={g.n}, m={g.m}, max degree {g.max_degree} "
        f"(hubs!), arboricity in [{lo}, {hi}]"
    )

    rt = NCCRuntime(n, bench_config(seed=3))

    # One-time structural setup shared by all analytics.
    bt = build_broadcast_trees(rt, g)
    print(
        f"\norientation: max outdegree {bt.orientation.max_outdegree} "
        f"(hub degree {g.max_degree} tamed to O(a))"
    )
    print(
        f"broadcast trees: congestion {bt.congestion()}, "
        f"setup {bt.setup_rounds} + orientation {bt.orientation_rounds} rounds"
    )

    mis = MISAlgorithm(rt, g, broadcast_trees=bt).run()
    assert seq.is_maximal_independent_set(g, mis.members)
    print(f"\nMIS:      {len(mis.members)} members, {mis.rounds} rounds, {mis.phases} phases")

    mm = MatchingAlgorithm(rt, g, broadcast_trees=bt).run()
    assert seq.is_maximal_matching(g, mm.edges)
    print(f"matching: {len(mm.edges)} pairs,   {mm.rounds} rounds, {mm.phases} phases")

    col = ColoringAlgorithm(rt, g, orientation=bt.orientation).run()
    assert seq.is_proper_coloring(g, col.colors)
    print(
        f"coloring: {col.colors_used()} colors (palette 2(1+ε)â = "
        f"{col.palette_size}; ∆+1 would be {g.max_degree + 1}), {col.rounds} rounds"
    )

    print(f"\ntotal rounds (incl. setup): {rt.net.round_index}")
    print(f"capacity violations: {rt.net.stats.violation_count}")

    # Contrast: naive MIS that talks to neighbours directly.  Honest note:
    # at this small scale the hub degree (~25) still fits a few capacity
    # batches, so direct sends win; the tree machinery's advantage is
    # asymptotic — its cost is polylog while the naive cost grows with
    # ∆/log n (see benchmarks/bench_ablation_naive.py for the scaling).
    rt2 = NCCRuntime(n, bench_config(seed=3))
    res = naive_mis(rt2, g)
    assert seq.is_maximal_independent_set(g, res.output)
    print(
        f"\nnaive MIS baseline (direct sends): {res.rounds} rounds vs "
        f"{mis.rounds} over broadcast trees\n"
        f"  (naive wins at n={n} where ∆={g.max_degree} ≈ capacity; its rounds "
        f"grow with ∆/log n,\n   the tree algorithm's stay polylog — the "
        f"crossover is the point of Sections 4-5)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 96)
