"""Connected components / spanning forest in the NCC.

Not a separate result in the paper, but the natural first consequence of
the Section 3 machinery (the paper's MST "can be obtained simply by
converting" to connectivity, cf. the k-machine discussion of [51]): run
Boruvka with Heads/Tails clustering where FindMin searches the *unweighted*
key space — any outgoing edge works, so the weight field of the search key
collapses and each phase costs O(log n) fewer sketch iterations than MST.

Outputs a component label per node (the minimum identifier in its
component, established with one extra Aggregate-and-Broadcast per
component tree at the end) and a spanning forest known edge-wise to inside
endpoints, exactly like the MST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ProtocolError
from ..ncc.graph_input import InputGraph, canonical_edge
from ..primitives.direct import send_direct
from ..primitives.functions import MAX, MIN
from ..registry import register_algorithm
from ..runtime import NCCRuntime
from .findmin import EdgeSketcher, find_lightest_edges
from .mst import HEADS, TAILS


@dataclass
class ComponentsResult:
    """Connected components and a spanning forest."""

    #: label[u] — the smallest node id in u's component.
    labels: list[int]
    #: spanning forest edges (canonical orientation).
    forest: set[tuple[int, int]]
    phases: int
    rounds: int
    component_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.component_count = len(set(self.labels))

    def members(self, label: int) -> list[int]:
        return [u for u, l in enumerate(self.labels) if l == label]


class ConnectedComponentsAlgorithm:
    """Boruvka-style component labeling over the FindMin machinery."""

    def __init__(self, rt: NCCRuntime, graph: InputGraph):
        if graph.n != rt.n:
            raise ValueError("graph and runtime disagree on n")
        self.rt = rt
        self.graph = graph

    def run(self, max_phases: int | None = None) -> ComponentsResult:
        rt, g = self.rt, self.graph
        n = g.n
        start_round = rt.net.round_index
        tag = rt.shared.fresh_tag("components")
        forest: set[tuple[int, int]] = set()
        phases = 0
        limit = max_phases if max_phases is not None else 4 * max(1, rt.log2n) + 16

        with rt.net.phase("components"):
            # Unweighted search keys: identical machinery, the weight field
            # degenerates to the constant 1.
            trials = 4 * rt.log2n
            hashes = rt.shared.hash_family((tag, "sketch"), trials, 2)
            sketcher = EdgeSketcher(g, hashes)

            leader_of = list(range(n))
            comp_trees = self._build_trees(leader_of)
            active = set(range(n))
            finished: set[int] = set()

            while active:
                if phases >= limit:
                    raise ProtocolError(
                        f"components did not converge within {limit} phases"
                    )
                phases += 1

                coins = {
                    c: rt.shared.node_randbelow(c, (tag, "coin", phases), 2)
                    for c in active
                }
                packets = {c: coins[c] for c in active if c in comp_trees.root}
                if packets:
                    rt.multicast(
                        comp_trees,
                        packets,
                        {c: c for c in packets},
                        ell_bound=1,
                        tag=rt.shared.fresh_tag("cc-coin"),
                        kind="components:coin",
                    )

                outcome = find_lightest_edges(
                    rt, g, leader_of, comp_trees, sketcher, active,
                    kind="components:findany",
                )
                outgoing = outcome.lightest
                finished |= active - set(outgoing)
                active -= active - set(outgoing)
                if not rt.aggregate_and_broadcast(
                    {c: 1 for c in outgoing}, MAX, kind="components:sync"
                ):
                    break

                packets = {
                    c: (a, b) for c, (_w, a, b) in outgoing.items() if c in comp_trees.root
                }
                if packets:
                    rt.multicast(
                        comp_trees,
                        packets,
                        {c: c for c in packets},
                        ell_bound=1,
                        tag=rt.shared.fresh_tag("cc-edge"),
                        kind="components:edge",
                    )

                probe_of = {}
                for c, (_w, a, b) in outgoing.items():
                    u, v = (a, b) if leader_of[a] == c else (b, a)
                    probe_of[c] = (u, v)
                nb_trees = rt.multicast_setup(
                    {u: [("nb", v)] for u, v in probe_of.values()},
                    tag=rt.shared.fresh_tag("cc-nb"),
                    kind="components:neighbor-setup",
                )
                nb_packets = {
                    grp: (coins[leader_of[grp[1]]], leader_of[grp[1]])
                    for grp in nb_trees.root
                }
                nb_out = rt.multicast(
                    nb_trees,
                    nb_packets,
                    {grp: grp[1] for grp in nb_packets},
                    ell_bound=1,
                    tag=rt.shared.fresh_tag("cc-nbmc"),
                    kind="components:neighbor-coin",
                )

                reports = []
                for c, (u, v) in probe_of.items():
                    if coins[c] != TAILS:
                        continue
                    got = nb_out.at(u).get(("nb", v))
                    if got is None:
                        raise ProtocolError(f"probe {u} missed coin of {v}")
                    v_coin, v_leader = got
                    if v_coin == HEADS:
                        forest.add(canonical_edge(u, v))
                        reports.append((u, c, v_leader))

                new_leader = {}
                inbox = send_direct(
                    rt.net,
                    [(u, c, ("NL", nl)) for u, c, nl in reports if u != c],
                    kind="components:report",
                )
                for c, msgs in inbox.items():
                    for m in msgs:
                        new_leader[c] = m.payload[1]
                for u, c, nl in reports:
                    if u == c:
                        new_leader[c] = nl

                packets = {c: nl for c, nl in new_leader.items() if c in comp_trees.root}
                if packets:
                    rt.multicast(
                        comp_trees,
                        packets,
                        {c: c for c in packets},
                        ell_bound=1,
                        tag=rt.shared.fresh_tag("cc-newleader"),
                        kind="components:new-leader",
                    )
                for u in range(n):
                    if leader_of[u] in new_leader:
                        leader_of[u] = new_leader[leader_of[u]]
                active = {leader_of[u] for u in range(n)} - finished
                comp_trees = self._build_trees(leader_of)

            # Final labeling: each component aggregates its minimum id to
            # the leader and multicasts it back (one Aggregation + one
            # Multicast over the final trees).
            from ..primitives.aggregation import AggregationProblem

            problem = AggregationProblem(
                memberships={u: {leader_of[u]: u} for u in range(n)},
                targets={c: c for c in set(leader_of)},
                fn=MIN,
                ell2_bound=1,
            )
            mins = rt.aggregation(
                problem, tag=rt.shared.fresh_tag("cc-minid"), kind="components:label"
            )
            packets = {
                c: mins.values[c] for c in set(leader_of) if c in comp_trees.root
            }
            label_out = rt.multicast(
                comp_trees,
                packets,
                {c: c for c in packets},
                ell_bound=1,
                tag=rt.shared.fresh_tag("cc-label"),
                kind="components:label",
            ) if packets else None
            labels = [0] * n
            for u in range(n):
                c = leader_of[u]
                if u == c:
                    labels[u] = mins.values[c]
                else:
                    assert label_out is not None
                    labels[u] = label_out.at(u)[c]

        return ComponentsResult(
            labels=labels,
            forest=forest,
            phases=phases,
            rounds=rt.net.round_index - start_round,
        )

    def _build_trees(self, leader_of: list[int]):
        rt = self.rt
        memberships = {u: [leader_of[u]] for u in range(rt.n) if leader_of[u] != u}
        return rt.multicast_setup(
            memberships,
            tag=rt.shared.fresh_tag("cc-trees"),
            kind="components:tree-rebuild",
        )


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------
def _union_find_labels(n: int, edges) -> list[int]:
    """Min-id component label per node under the given edge set."""
    labels = list(range(n))

    def find(u: int) -> int:
        while labels[u] != u:
            labels[u] = labels[labels[u]]
            u = labels[u]
        return u

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            labels[max(ru, rv)] = min(ru, rv)
    return [find(u) for u in range(n)]


def _check(g: InputGraph, result: ComponentsResult, params: dict) -> bool:
    expected = _union_find_labels(g.n, g.edges())
    if result.labels != expected:
        return False
    # The forest must be genuine graph edges forming the same partition with
    # n - c edges (which forces acyclicity).
    if len(result.forest) != g.n - result.component_count:
        return False
    if not all(g.has_edge(u, v) for u, v in result.forest):
        return False
    return _union_find_labels(g.n, result.forest) == expected


def _describe(
    g: InputGraph, result: ComponentsResult, rt: NCCRuntime, params: dict
) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, a_known=params["a"])
    row.update(
        rounds=result.rounds,
        phases=result.phases,
        components=result.component_count,
    )
    return row


@register_algorithm(
    "components",
    aliases=("CC", "connected-components"),
    summary="connected components / spanning forest (unweighted Boruvka)",
    bound="O(log^3 n)",
    default_scenario="forest-union",
    check=_check,
    describe=_describe,
)
def _run(rt: NCCRuntime, g: InputGraph) -> ComponentsResult:
    return ConnectedComponentsAlgorithm(rt, g).run()
