"""Maximal Matching in O((a + log n) log n) rounds (Section 5.3).

Israeli–Itai [31] over the broadcast trees, with the paper's annotated
Multi-Aggregation twist: every unmatched node multicasts its identifier;
when a leaf ``l(id(u), v)`` re-keys the packet for member ``v`` it annotates
it with a uniform random value, and MIN-combining keeps the annotation-
minimal packet — so every node with an unmatched neighbour receives one
*uniformly random* unmatched neighbour (its "choice").

One phase then proceeds exactly as in [31]:

1. every unmatched node v learns a uniform random unmatched neighbour
   c(v) (the annotated Multi-Aggregation);
2. nodes chosen by several neighbours accept exactly one (an Aggregation
   with MIN over chooser ids) and notify it directly — the surviving
   (choice, acceptance) pairs form node-disjoint paths and cycles;
3. every path/cycle node picks one of its ≤ 2 incident path edges at
   random and proposes directly; mutual proposals join the matching;
4. an Aggregate-and-Broadcast checks whether any unmatched node still has
   an unmatched neighbour.

O(log n) phases suffice w.h.p. (Corollary 3.5 of [31] + Chernoff).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError
from ..ncc.graph_input import InputGraph, canonical_edge
from ..ncc.message import payloads_of
from ..primitives.aggregation import AggregationProblem
from ..primitives.direct import send_direct
from ..primitives.functions import MAX, MIN, min_by_key
from ..registry import register_algorithm
from ..runtime import NCCRuntime
from .broadcast_trees import BroadcastTrees, build_broadcast_trees, neighborhood_multi_aggregate

_MIN_ANNOTATED = min_by_key("MIN_ANNOTATED")


@dataclass
class MatchingResult:
    """The computed maximal matching."""

    edges: set[tuple[int, int]]
    phases: int
    rounds: int


class MatchingAlgorithm:
    """Distributed maximal matching via Israeli–Itai over broadcast trees."""

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

    def run(self, max_phases: int | None = None) -> MatchingResult:
        rt, g = self.rt, self.graph
        n = g.n
        start_round = rt.net.round_index
        limit = max_phases if max_phases is not None else 8 * max(1, rt.log2n) + 16
        tag = rt.shared.fresh_tag("matching")

        with rt.net.phase("matching"):
            bt = self._bt if self._bt is not None else build_broadcast_trees(rt, g)
            self._bt = bt

            matched: set[int] = set()
            matching: set[tuple[int, int]] = set()
            phases = 0
            while True:
                if phases >= limit:
                    raise ProtocolError(
                        f"matching did not converge within {limit} phases"
                    )
                phases += 1
                unmatched = [u for u in range(n) if u not in matched]

                # ---- 1. uniform random unmatched neighbour via annotated
                # Multi-Aggregation (the leaf draws the annotation).  The
                # paper annotates with a real r ∈ [0,1]; 2·log n random bits
                # give the same uniform choice within the message budget
                # (annotation collisions fall back to smaller payload and
                # are O(d²/n²)-rare).
                def annotate(leaf_rng, group, member, payload):
                    return (leaf_rng.randrange(n * n), payload)

                received = neighborhood_multi_aggregate(
                    rt,
                    bt,
                    {u: u for u in unmatched},
                    _MIN_ANNOTATED,
                    annotate=annotate,
                    kind="matching:choice",
                )
                choice = {
                    v: received[v][1]
                    for v in unmatched
                    if v in received
                }

                # Termination: an unmatched node received a packet iff it
                # has an unmatched neighbour.
                anyone = rt.aggregate_and_broadcast(
                    {v: 1 for v in choice}, MAX, kind="matching:sync"
                )
                if not anyone:
                    break

                # ---- 2. acceptance: chosen nodes accept their smallest
                # chooser (one Aggregation), then notify the chooser.
                memberships = {v: {c: v for c in [choice[v]]} for v in choice}
                targets = {choice[v]: choice[v] for v in choice}
                outcome = rt.aggregation(
                    AggregationProblem(
                        memberships=memberships,
                        targets=targets,
                        fn=MIN,
                        ell2_bound=1,
                    ),
                    tag=(tag, "accept", phases),
                    kind="matching:accept",
                )
                accepted_of = dict(outcome.values)  # w -> accepted chooser

                inbox = send_direct(
                    rt.net,
                    [
                        (w, a, ("acc", w))
                        for w, a in accepted_of.items()
                        if a != w
                    ],
                    kind="matching:accept-notify",
                )
                accepted_by: dict[int, int] = {}  # chooser v -> its choice w
                for v, msgs in inbox.items():
                    for _tag, w in payloads_of(msgs):
                        accepted_by[v] = w

                # ---- 3. each path/cycle node picks one incident path edge;
                # mutual picks join the matching.
                partners: dict[int, list[int]] = {}
                for v, w in accepted_by.items():
                    partners.setdefault(v, []).append(w)
                for w, a in accepted_of.items():
                    partners.setdefault(w, []).append(a)
                picks: dict[int, int] = {}
                for v, cands in partners.items():
                    cands = sorted(set(cands))
                    picks[v] = cands[rt.shared.node_randbelow(v, (tag, "pick", phases), len(cands))]
                inbox = send_direct(
                    rt.net,
                    [(v, w, ("pick", v)) for v, w in picks.items()],
                    kind="matching:pick",
                )
                for v, msgs in inbox.items():
                    for _tag, w in payloads_of(msgs):
                        if picks.get(v) == w and v not in matched and w not in matched:
                            matching.add(canonical_edge(v, w))
                            matched.add(v)
                            matched.add(w)

        return MatchingResult(
            edges=matching,
            phases=phases,
            rounds=rt.net.round_index - start_round,
        )


# ----------------------------------------------------------------------
# Registry entry (Table 1 row T1-MM)
# ----------------------------------------------------------------------
def _check(g: InputGraph, result: MatchingResult, params: dict) -> bool:
    from ..baselines.sequential import is_maximal_matching

    return is_maximal_matching(g, result.edges)


def _describe(
    g: InputGraph, result: MatchingResult, rt: NCCRuntime, params: dict
) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, a_known=params["a"])
    row.update(
        rounds=result.rounds, phases=result.phases, matching_size=len(result.edges)
    )
    return row


@register_algorithm(
    "matching",
    aliases=("MM", "maximal-matching"),
    summary="maximal matching (MIS reduction over broadcast trees)",
    bound="O((a + log n) log n)",
    table1_key="MM",
    default_scenario="forest-union",
    check=_check,
    describe=_describe,
)
def _run(rt: NCCRuntime, g: InputGraph) -> MatchingResult:
    return MatchingAlgorithm(rt, g).run()
