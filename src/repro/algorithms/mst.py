"""Minimum Spanning Tree in O(log⁴ n) rounds (Section 3, Theorem 3.2).

Boruvka with Heads/Tails clustering:

1. every component's leader flips a coin and multicasts it;
2. FindMin (sketch binary search, :mod:`~repro.algorithms.findmin`) gives
   the leader its component's lightest outgoing edge {u, v};
3. the leader multicasts {u, v}; the inside endpoint ``u`` joins multicast
   group ``A_{id(v)}`` and learns, via a fresh tree setup + multicast,
   the coin and leader of ``v``'s component;
4. if C flipped Tails and C' Heads, ``u`` records {u, v} as an MST edge
   and reports C'’s leader to its own leader, which multicasts the new
   leader to the whole component;
5. component multicast trees are rebuilt for the merged components.

Repeats until no component has an outgoing edge (detected by an
Aggregate-and-Broadcast), so disconnected inputs yield the minimum spanning
forest.  Ties are broken by edge identifier — FindMin searches the combined
key (w, id), making all weights effectively distinct (the classical
tie-breaking that guarantees a unique MSF).

Only the inside endpoint of each MST edge knows the edge is in the MST,
exactly as the paper promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ProtocolError
from ..ncc.graph_input import InputGraph, canonical_edge
from ..primitives.direct import send_direct
from ..primitives.functions import MAX
from ..registry import register_algorithm
from ..runtime import NCCRuntime
from .findmin import find_lightest_edges, make_sketcher

HEADS, TAILS = 1, 0


@dataclass
class MSTResult:
    """Output of the distributed MST computation."""

    #: The MSF edges, canonical orientation.
    edges: set[tuple[int, int]]
    #: Σ weights of the edges.
    weight: int
    #: Boruvka phases executed.
    phases: int
    #: Total NCC rounds consumed by this run.
    rounds: int
    #: edges known per inside endpoint: u -> list of MST edges u discovered.
    known_by: dict[int, list[tuple[int, int]]] = field(default_factory=dict)


class MSTAlgorithm:
    """Distributed MST/MSF on a weighted input graph."""

    def __init__(self, rt: NCCRuntime, graph: InputGraph):
        if graph.n != rt.n:
            raise ValueError("graph and runtime disagree on n")
        self.rt = rt
        self.graph = graph

    # ------------------------------------------------------------------
    def run(self, max_phases: int | None = None) -> MSTResult:
        rt, g = self.rt, self.graph
        n = g.n
        start_round = rt.net.round_index
        tag = rt.shared.fresh_tag("mst")

        mst_edges: set[tuple[int, int]] = set()
        known_by: dict[int, list[tuple[int, int]]] = {}
        active = set(range(n))  # leaders of components that may still merge
        finished_all: set[int] = set()  # leaders with no outgoing edges
        phases = 0
        limit = max_phases if max_phases is not None else 4 * max(1, rt.log2n) + 16

        with rt.net.phase("mst"):
            sketcher = make_sketcher(rt, g, tag=tag)
            leader_of = list(range(n))  # every node its own component
            comp_trees = self._build_component_trees(leader_of)
            while True:
                # Global termination check: does any component still have an
                # outgoing edge candidate?  (1 = "my component was active and
                # found an edge last phase"; first phase always proceeds.)
                if not active:
                    break
                if phases >= limit:
                    raise ProtocolError(
                        f"MST did not converge within {limit} phases"
                    )
                phases += 1

                # ---- 1. coin flips, multicast to components.
                coins: dict[int, int] = {}
                for c in active:
                    coins[c] = rt.shared.node_randbelow(c, (tag, "coin", phases), 2)
                packets = {c: coins[c] for c in active if c in comp_trees.root}
                if packets:
                    rt.multicast(
                        comp_trees,
                        packets,
                        {c: c for c in packets},
                        ell_bound=1,
                        tag=rt.shared.fresh_tag("mst-coin"),
                        kind="mst:coin",
                    )
                # (Every component member now knows its component's coin.)

                # ---- 2. FindMin per component.
                outcome = find_lightest_edges(
                    rt, g, leader_of, comp_trees, sketcher, active, kind="mst:findmin"
                )
                lightest = outcome.lightest

                # Components without outgoing edges are done for good: they
                # have no edges to the outside, so nothing ever merges into
                # them either.
                finished = active - set(lightest)
                finished_all |= finished
                active -= finished

                # Tell everyone whether anything is left to merge.
                any_left = rt.aggregate_and_broadcast(
                    {c: 1 for c in lightest}, MAX, kind="mst:termination"
                )
                if not any_left:
                    break

                # ---- 3. leaders multicast their lightest edge.
                packets = {
                    c: (w, a, b)
                    for c, (w, a, b) in lightest.items()
                    if c in comp_trees.root
                }
                if packets:
                    rt.multicast(
                        comp_trees,
                        packets,
                        {c: c for c in packets},
                        ell_bound=1,
                        tag=rt.shared.fresh_tag("mst-edge"),
                        kind="mst:edge",
                    )

                # Inside endpoint per component (the node that will probe the
                # other side).  Exactly one endpoint lies in the component.
                probe_of: dict[int, tuple[int, int]] = {}  # leader -> (u, v)
                for c, (w, a, b) in lightest.items():
                    if leader_of[a] == c and leader_of[b] == c:
                        raise ProtocolError(
                            f"FindMin returned internal edge ({a},{b}) for {c}"
                        )
                    u, v = (a, b) if leader_of[a] == c else (b, a)
                    probe_of[c] = (u, v)

                # ---- 3b. probes join A_{id(v)}; fresh trees + multicast of
                # (coin, leader) from every probed node v.
                memberships = {u: [("nb", v)] for c, (u, v) in probe_of.items()}
                nb_trees = rt.multicast_setup(
                    memberships,
                    tag=rt.shared.fresh_tag("mst-nb"),
                    kind="mst:neighbor-setup",
                )
                nb_packets = {}
                nb_sources = {}
                for grp in nb_trees.root:
                    _, v = grp
                    # v's component has the outgoing edge {u, v} too, so it
                    # is still active and flipped a coin this phase.
                    nb_packets[grp] = (coins[leader_of[v]], leader_of[v])
                    nb_sources[grp] = v
                nb_out = rt.multicast(
                    nb_trees,
                    nb_packets,
                    nb_sources,
                    ell_bound=1,
                    tag=rt.shared.fresh_tag("mst-nbmc"),
                    kind="mst:neighbor-coin",
                )

                # ---- 4. Tails-meets-Heads: record MST edge, report to leader.
                reports: list[tuple[int, int, int]] = []  # (u -> leader c, new leader)
                for c, (u, v) in probe_of.items():
                    if coins[c] != TAILS:
                        continue
                    got = nb_out.at(u).get(("nb", v))
                    if got is None:
                        raise ProtocolError(f"probe {u} missed neighbour-coin of {v}")
                    v_coin, v_leader = got
                    if v_coin == HEADS:
                        e = canonical_edge(u, v)
                        mst_edges.add(e)
                        known_by.setdefault(u, []).append(e)
                        reports.append((u, c, v_leader))

                new_leader_of_comp: dict[int, int] = {}
                inbox = send_direct(
                    rt.net,
                    [(u, c, ("NL", v_leader)) for u, c, v_leader in reports if u != c],
                    kind="mst:report",
                )
                for c, msgs in inbox.items():
                    for m in msgs:
                        new_leader_of_comp[c] = m.payload[1]
                for u, c, v_leader in reports:
                    if u == c:  # the probe endpoint is its own leader
                        new_leader_of_comp[c] = v_leader

                # ---- 5. leaders multicast the new leader; nodes update.
                packets = {
                    c: nl
                    for c, nl in new_leader_of_comp.items()
                    if c in comp_trees.root
                }
                if packets:
                    rt.multicast(
                        comp_trees,
                        packets,
                        {c: c for c in packets},
                        ell_bound=1,
                        tag=rt.shared.fresh_tag("mst-newleader"),
                        kind="mst:new-leader",
                    )
                # A Tails component re-points at a Heads component whose own
                # leader did not change this phase, so one hop suffices.
                for u in range(n):
                    c = leader_of[u]
                    if c in new_leader_of_comp:
                        leader_of[u] = new_leader_of_comp[c]
                active = {leader_of[u] for u in range(n)} - finished_all

                # ---- 6. rebuild component multicast trees.
                comp_trees = self._build_component_trees(leader_of)

        rounds = rt.net.round_index - start_round
        weight = sum(g.weight(u, v) for u, v in mst_edges)
        return MSTResult(
            edges=mst_edges,
            weight=weight,
            phases=phases,
            rounds=rounds,
            known_by=known_by,
        )

    # ------------------------------------------------------------------
    def _build_component_trees(self, leader_of: list[int]):
        rt = self.rt
        memberships = {
            u: [leader_of[u]] for u in range(rt.n) if leader_of[u] != u
        }
        return rt.multicast_setup(
            memberships,
            tag=rt.shared.fresh_tag("mst-comptrees"),
            kind="mst:tree-rebuild",
        )


# ----------------------------------------------------------------------
# Registry entry (Table 1 row T1-MST)
# ----------------------------------------------------------------------
def _check(g: InputGraph, result: MSTResult, params: dict) -> bool:
    from ..baselines.sequential import kruskal_msf

    return result.edges == kruskal_msf(g)


def _describe(g: InputGraph, result: MSTResult, rt: NCCRuntime, params: dict) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, a_known=params["a"])
    row.update(rounds=result.rounds, phases=result.phases, W=g.max_weight())
    return row


@register_algorithm(
    "mst",
    aliases=("MST", "minimum-spanning-tree"),
    summary="weighted MST/MSF via Boruvka + FindMin sketches",
    bound="O(log^4 n)",
    table1_key="MST",
    default_scenario="forest-union-random-weights",
    requires=("weights",),
    check=_check,
    describe=_describe,
)
def _run(rt: NCCRuntime, g: InputGraph) -> MSTResult:
    return MSTAlgorithm(rt, g).run()
