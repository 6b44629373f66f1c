#!/usr/bin/env python3
"""Hybrid-network scenario: BFS routing structure over an ad-hoc topology.

Section 1's hybrid-network story: cell phones communicate for free over
short-range ad-hoc links (the input graph — here a grid-like street layout,
planar so a ≤ 3) and additionally own a low-bandwidth cellular overlay (the
Node-Capacitated Clique).  The devices use the NCC to build a BFS tree of
the *ad-hoc* graph from a gateway node — e.g. to route traffic toward an
internet uplink over free links — in O((a + D + log n) log n) rounds, far
less than the D·⌈∆/log n⌉-ish cost of flooding the overlay naively.

The example also reuses the broadcast trees for a second BFS from a
different gateway: the setup is paid once per topology, not per query.

Run:  python examples/hybrid_network_planning.py [side]
"""

import math
import sys

from repro import NCCRuntime
from repro.algorithms import BFSAlgorithm, build_broadcast_trees
from repro.registry import bench_config
from repro.baselines.sequential import bfs_tree
from repro.graphs import generators, properties


def main(side: int = 10) -> None:
    g = generators.grid(side, side)
    n = g.n
    D = properties.diameter(g)
    print(f"ad-hoc street grid: {side}x{side} ({n} devices), diameter {D}, planar (a ≤ 3)")

    rt = NCCRuntime(n, bench_config(seed=11))
    bt = build_broadcast_trees(rt, g)
    print(
        f"cellular overlay ready: broadcast trees congestion {bt.congestion()}, "
        f"setup+orientation {bt.setup_rounds + bt.orientation_rounds} rounds"
    )

    gateways = [0, n - 1]
    for gw in gateways:
        res = BFSAlgorithm(rt, g, broadcast_trees=bt).run(gw)
        expected, _ = bfs_tree(g, gw)
        assert res.dist == expected
        reached = sum(1 for d in res.dist if d is not None)
        depth = max(d for d in res.dist if d is not None)
        bound = (3 + D + math.log2(n)) * math.log2(n)
        print(
            f"\ngateway {gw}: BFS tree over {reached} devices, depth {depth}, "
            f"{res.phases} phases, {res.rounds} rounds"
        )
        print(f"  paper bound (a + D + log n) log n = {bound:.0f}")

    # Each device now knows its uplink parent; print a sample route.
    res = BFSAlgorithm(rt, g, broadcast_trees=bt).run(0)
    node = n - 1
    route = [node]
    while res.parent[route[-1]] is not None:
        route.append(res.parent[route[-1]])
    print(f"\nroute from device {n-1} to gateway 0 over free ad-hoc links:")
    print("  " + " -> ".join(map(str, route)))
    print(f"\ntotal overlay rounds: {rt.net.round_index}, violations: {rt.net.stats.violation_count}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
