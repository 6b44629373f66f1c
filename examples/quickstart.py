#!/usr/bin/env python3
"""Quickstart: compute an MST in the Node-Capacitated Clique.

Builds a random weighted graph, runs the paper's O(log⁴ n) distributed MST
(Section 3) on a simulated NCC, checks the result against Kruskal, and
prints the round/message accounting — the numbers the paper is about.

Run:  python examples/quickstart.py [n]
"""

import sys

from repro import NCCRuntime
from repro.algorithms import MSTAlgorithm
from repro.registry import bench_config
from repro.baselines.sequential import kruskal_msf
from repro.graphs import generators, weights


def main(n: int = 48) -> None:
    # 1. An input graph: random connected, with random integer weights.
    g = generators.random_connected(n, extra_edge_prob=0.08, seed=7)
    g = weights.with_random_weights(g, seed=8)
    print(f"input graph: n={g.n}, m={g.m}, max degree {g.max_degree}")

    # 2. A Node-Capacitated Clique of the same n nodes.  Every node can
    #    send/receive O(log n) messages of O(log n) bits per round.
    rt = NCCRuntime(n, bench_config(seed=1))
    print(
        f"NCC model: capacity {rt.net.capacity} msgs/round/node, "
        f"{rt.net.message_bits} bits/message"
    )

    # 3. Run the distributed MST.
    result = MSTAlgorithm(rt, g).run()

    # 4. Verify against the sequential oracle.
    expected = kruskal_msf(g)
    assert result.edges == expected, "distributed MST disagrees with Kruskal!"
    print(
        f"\nMST found: {len(result.edges)} edges, weight {result.weight} "
        f"(matches Kruskal: {result.edges == expected})"
    )

    # 5. The accounting — what Theorem 3.2 bounds.
    import math

    log4 = math.log2(n) ** 4
    print(f"Boruvka phases:     {result.phases}  (O(log n) = ~{math.log2(n):.0f})")
    print(f"NCC rounds:         {result.rounds}  (O(log^4 n): log^4 n = {log4:.0f})")
    print(f"messages:           {rt.net.stats.messages}")
    print(f"capacity violations: {rt.net.stats.violation_count} (0 = stayed inside the model)")
    print("\nper-phase round breakdown:")
    for label in ("mst:findmin", "mst:tree-rebuild", "mst:coin", "mst:neighbor-setup"):
        ps = rt.net.stats.phase(label)
        print(f"  {label:20s} {ps.rounds:7d} rounds, {ps.messages:8d} messages")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 48)
