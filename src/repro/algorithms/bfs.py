"""BFS trees in O((a + D + log n) log n) rounds (Section 5.1, Theorem 5.2).

Frontier expansion over the precomputed broadcast trees: in each phase,
every node reached in the previous phase multicasts its identifier to its
neighbourhood with MIN-aggregation (Corollary 1), so every node with an
active neighbour learns the *smallest* active neighbour id — its BFS parent
``π(u)`` — and its distance ``δ(u)``.  After at most D+1 phases every
reachable node is labelled; a per-phase Aggregate-and-Broadcast detects
global termination (and keeps phases synchronized, which is where the
log n factor comes from).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ncc.graph_input import InputGraph
from ..primitives.functions import MAX, MIN
from ..registry import register_algorithm
from ..runtime import NCCRuntime
from .broadcast_trees import BroadcastTrees, build_broadcast_trees, neighborhood_multi_aggregate


@dataclass
class BFSResult:
    """Distances and predecessors of the BFS tree rooted at ``source``."""

    source: int
    #: δ(u): hop distance from the source; None = unreachable.
    dist: list[int | None]
    #: π(u): the smallest-id predecessor on a shortest path; None for the
    #: source and unreachable nodes.
    parent: list[int | None]
    phases: int
    rounds: int


class BFSAlgorithm:
    """Distributed BFS tree construction."""

    def __init__(
        self,
        rt: NCCRuntime,
        graph: InputGraph,
        *,
        broadcast_trees: BroadcastTrees | None = None,
    ):
        if graph.n != rt.n:
            raise ValueError("graph and runtime disagree on n")
        self.rt = rt
        self.graph = graph
        self._bt = broadcast_trees

    def run(self, source: int) -> BFSResult:
        rt, g = self.rt, self.graph
        if not 0 <= source < g.n:
            raise ValueError(f"source {source} outside [0, {g.n})")
        start_round = rt.net.round_index
        with rt.net.phase("bfs"):
            bt = self._bt if self._bt is not None else build_broadcast_trees(rt, g)
            self._bt = bt

            dist: list[int | None] = [None] * g.n
            parent: list[int | None] = [None] * g.n
            dist[source] = 0
            frontier = [source]
            phases = 0
            while frontier:
                phases += 1
                received = neighborhood_multi_aggregate(
                    rt,
                    bt,
                    {u: u for u in frontier},
                    MIN,
                    kind="bfs:frontier",
                )
                new_frontier = []
                for v, smallest in received.items():
                    if dist[v] is None:
                        dist[v] = phases
                        parent[v] = smallest
                        new_frontier.append(v)
                # Termination / synchronization: did anyone get reached?
                reached_any = rt.aggregate_and_broadcast(
                    {v: 1 for v in new_frontier}, MAX, kind="bfs:sync"
                )
                frontier = new_frontier
                if not reached_any:
                    break
        return BFSResult(
            source=source,
            dist=dist,
            parent=parent,
            phases=phases,
            rounds=rt.net.round_index - start_round,
        )


# ----------------------------------------------------------------------
# Registry entry (Table 1 row T1-BFS)
# ----------------------------------------------------------------------
def _check(g: InputGraph, result: BFSResult, params: dict) -> bool:
    from ..baselines.sequential import bfs_tree

    expected, _ = bfs_tree(g, result.source)
    return result.dist == expected


def _describe(g: InputGraph, result: BFSResult, rt: NCCRuntime, params: dict) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, with_diameter=True, a_known=params["a"])
    row.update(rounds=result.rounds, phases=result.phases)
    return row


@register_algorithm(
    "bfs",
    aliases=("BFS", "bfs-tree"),
    summary="BFS tree over broadcast trees (frontier multicasts)",
    bound="O((a + D + log n) log n)",
    table1_key="BFS",
    default_scenario="forest-union",
    requires=("connected",),
    check=_check,
    describe=_describe,
)
def _run(rt: NCCRuntime, g: InputGraph, *, source: int = 0) -> BFSResult:
    return BFSAlgorithm(rt, g).run(source)
