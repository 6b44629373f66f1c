"""Maximal Independent Set in O((a + log n) log n) rounds (Section 5.2).

The algorithm of Métivier, Robson, Saheb-Djahromi and Zemmari [48] on top
of Corollary 1: every active node draws a random value and multicasts it to
its neighbourhood with MIN-aggregation; a node whose own value undercuts
everything it received joins the MIS; a second Multi-Aggregation lets MIS
entrants knock out their neighbours; an Aggregate-and-Broadcast decides
whether anyone is still active.  O(log n) phases w.h.p. [48].

Random values are integers in [0, n³) with the node id as tie-breaker —
equivalent to the paper's reals r(u) ∈ [0,1] but exactly representable in
O(log n) bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError
from ..ncc.graph_input import InputGraph
from ..primitives.functions import MAX, min_by_key
from ..registry import register_algorithm
from ..runtime import NCCRuntime
from .broadcast_trees import BroadcastTrees, build_broadcast_trees, neighborhood_multi_aggregate

_MIN_PAIR = min_by_key("MIN_RANK")


@dataclass
class MISResult:
    """The computed maximal independent set."""

    members: set[int]
    phases: int
    rounds: int


class MISAlgorithm:
    """Distributed MIS via Métivier et al. over broadcast trees."""

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

    def run(self, max_phases: int | None = None) -> MISResult:
        rt, g = self.rt, self.graph
        n = g.n
        start_round = rt.net.round_index
        limit = max_phases if max_phases is not None else 8 * max(1, rt.log2n) + 16
        tag = rt.shared.fresh_tag("mis")

        with rt.net.phase("mis"):
            bt = self._bt if self._bt is not None else build_broadcast_trees(rt, g)
            self._bt = bt

            in_mis: set[int] = set()
            active = set(range(n))
            phases = 0
            while active:
                if phases >= limit:
                    raise ProtocolError(f"MIS did not converge within {limit} phases")
                phases += 1

                # 1. draw + multicast random ranks; MIN over active senders.
                ranks = {
                    u: (rt.shared.node_randbelow(u, (tag, phases), n**3), u)
                    for u in active
                }
                received = neighborhood_multi_aggregate(
                    rt, bt, ranks, _MIN_PAIR, kind="mis:ranks"
                )
                joined = set()
                for u in active:
                    best_nb = received.get(u)
                    if best_nb is None or ranks[u] < best_nb:
                        joined.add(u)
                in_mis |= joined

                # 2. MIS entrants knock out their neighbourhoods.
                knocked = neighborhood_multi_aggregate(
                    rt, bt, {u: 1 for u in joined}, MAX, kind="mis:knockout"
                )
                active -= joined
                active -= {v for v in knocked if v in active}

                # 3. global termination check.
                anyone = rt.aggregate_and_broadcast(
                    {u: 1 for u in active}, MAX, kind="mis:sync"
                )
                if not anyone:
                    break

        return MISResult(
            members=in_mis,
            phases=phases,
            rounds=rt.net.round_index - start_round,
        )


# ----------------------------------------------------------------------
# Registry entry (Table 1 row T1-MIS)
# ----------------------------------------------------------------------
def _check(g: InputGraph, result: MISResult, params: dict) -> bool:
    from ..baselines.sequential import is_maximal_independent_set

    return is_maximal_independent_set(g, result.members)


def _describe(g: InputGraph, result: MISResult, rt: NCCRuntime, params: dict) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, a_known=params["a"])
    row.update(rounds=result.rounds, phases=result.phases, mis_size=len(result.members))
    return row


@register_algorithm(
    "mis",
    aliases=("MIS", "maximal-independent-set"),
    summary="maximal independent set (Luby over broadcast trees)",
    bound="O((a + log n) log n)",
    table1_key="MIS",
    default_scenario="forest-union",
    check=_check,
    describe=_describe,
)
def _run(rt: NCCRuntime, g: InputGraph) -> MISResult:
    return MISAlgorithm(rt, g).run()
