"""Computing an O(a)-orientation (Section 4, Theorem 4.12).

Nash-Williams-style peeling: in each phase, nodes whose *remaining* degree
``dᵢ(u)`` is at most twice the remaining average degree ``d̄ᵢ`` become
*active*, learn the direction of every incident edge, and leave the graph
(all their remaining edges point away from them).  Since ``d̄ᵢ ≤ 2a``, each
active node gets outdegree ≤ ``2 d̄ᵢ ≤ 4a``, and at least half the
remaining nodes leave per phase, giving O(log n) phases (Lemma 4.1).

Each phase has three stages (Section 4.2):

* **Stage 1** — every non-inactive node computes ``dᵢ(u)`` (an Aggregation
  where each inactive node adds 1 toward each of its out-neighbours) and the
  nodes compute ``d̄ᵢ`` with an Aggregate-and-Broadcast.
* **Stage 2** — active nodes identify their inactive neighbours via the
  Identification Algorithm (s = c hash functions, q = 4ecd*log n trials);
  the ≤ log n unrecovered red edges per node (Lemma 4.4) are fixed in a
  second step: high-degree unsuccessful nodes (U_high) broadcast their ids
  (gather to node 0 + pipelined broadcast) and get pinged directly by all
  active/waiting neighbours; low-degree ones (U_low) announce themselves to
  their inactive neighbours over multicast trees and run a finer
  identification (s = c log n, q = 4ec log² n).
* **Stage 3** — active nodes discover which red-edge endpoints are active:
  both endpoints of an edge hash it to a rendezvous node ``h(id(e))`` and a
  round ``r(id(e))``; the rendezvous answers when it sees the edge twice.
  Directions follow: inactive→active edges are inbound, active–active by
  identifier, active→waiting outbound.

The level structure (``level[u]`` = phase in which u left) is exactly what
the O(a)-coloring consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ProtocolError
from ..ncc.graph_input import InputGraph
from ..ncc.message import BatchBuilder, payloads_of
from ..primitives.aggregation import AggregationProblem
from ..primitives.direct import spread_exchange
from ..primitives.functions import MAX, SUM, tuple_of
from ..registry import register_algorithm
from ..runtime import NCCRuntime
from .identification import identification_family, run_identification

_SUM2 = tuple_of(SUM, SUM)


@dataclass
class Orientation:
    """The computed orientation plus the peeling level structure."""

    out_neighbors: list[tuple[int, ...]]
    in_neighbors: list[tuple[int, ...]]
    #: phase index (1-based) in which each node became inactive.
    level: list[int]
    phases: int
    rounds: int

    @property
    def max_outdegree(self) -> int:
        return max((len(o) for o in self.out_neighbors), default=0)

    def outdegree(self, u: int) -> int:
        return len(self.out_neighbors[u])

    def same_level_neighbors(self, u: int) -> list[int]:
        lu = self.level[u]
        return [v for v in self.out_neighbors[u] + self.in_neighbors[u] if self.level[v] == lu]

    def arcs(self) -> list[tuple[int, int]]:
        """All directed edges u -> v."""
        return [(u, v) for u in range(len(self.out_neighbors)) for v in self.out_neighbors[u]]


class OrientationAlgorithm:
    """Distributed O(a)-orientation of the input graph."""

    def __init__(self, rt: NCCRuntime, graph: InputGraph):
        if graph.n != rt.n:
            raise ValueError("graph and runtime disagree on n")
        self.rt = rt
        self.graph = graph

    # ------------------------------------------------------------------
    def run(self, max_phases: int | None = None) -> Orientation:
        rt, g = self.rt, self.graph
        n = g.n
        start_round = rt.net.round_index
        tag = rt.shared.fresh_tag("orientation")
        log2n = rt.log2n
        c = rt.config.identification_s_constant
        qc = rt.config.identification_q_constant

        inactive = [False] * n
        level = [0] * n
        out_nb: list[list[int]] = [[] for _ in range(n)]
        in_nb: list[list[int]] = [[] for _ in range(n)]
        d_star = 0  # max over phases of max active remaining degree
        phases = 0
        limit = max_phases if max_phases is not None else 4 * max(1, log2n) + 16

        with rt.net.phase("orientation"):
            while not all(inactive):
                if phases >= limit:
                    raise ProtocolError(
                        f"orientation did not converge within {limit} phases"
                    )
                phases += 1

                # ===== Stage 1: remaining degrees and the average ========
                di = self._stage1_degrees(inactive, out_nb, tag, phases)
                live = [u for u in range(n) if not inactive[u]]
                positive = [u for u in live if di[u] > 0]
                pair = rt.aggregate_and_broadcast(
                    {u: (di[u], 1) for u in positive}, _SUM2, kind="orientation:avg"
                )
                if pair is None:
                    # Every remaining node has remaining degree 0: they all
                    # leave with inbound-only edges.
                    for u in live:
                        inactive[u] = True
                        level[u] = phases
                    break
                avg = pair[0] / pair[1]
                active = [u for u in positive if di[u] <= 2 * avg]
                zero_degree = [u for u in live if di[u] == 0]
                for u in zero_degree:
                    # All incident edges were already directed toward u.
                    inactive[u] = True
                    level[u] = phases
                if not active:
                    raise ProtocolError("no node became active; d̄ᵢ inconsistent")

                # d*_i — known to all via Aggregate-and-Broadcast.
                d_star_i = rt.aggregate_and_broadcast(
                    {u: di[u] for u in active}, MAX, kind="orientation:dstar"
                )
                d_star = max(d_star, int(d_star_i))

                # ===== Stage 2: identify inactive neighbours =============
                inactive_nb = self._stage2_identify(
                    active, inactive, out_nb, di, d_star, c, qc, tag, phases
                )

                # ===== Stage 3: split red endpoints into active/waiting ==
                active_set = set(active)
                red_of = {
                    u: [v for v in g.neighbors(u) if v not in inactive_nb[u]]
                    for u in active
                }
                active_red = self._stage3_active_probe(
                    active, red_of, max(1, int(d_star_i)), tag, phases
                )

                # ===== Orient and retire this phase's active nodes =======
                for u in active:
                    for v in g.neighbors(u):
                        if v in inactive_nb[u]:
                            # v left earlier: edge was directed v -> u.
                            in_nb[u].append(v)
                        elif v in active_red[u]:
                            # both active: direct by identifier.
                            if u < v:
                                out_nb[u].append(v)
                            else:
                                in_nb[u].append(v)
                        else:
                            # v waiting: active -> waiting.
                            out_nb[u].append(v)
                    inactive[u] = True
                    level[u] = phases

        # Nodes that left with remaining degree 0 have inbound-only edges
        # whose inactive endpoints never told them explicitly — they conclude
        # it locally (every edge must have been directed away from a node
        # that left strictly earlier).
        for u in range(n):
            known = set(out_nb[u]) | set(in_nb[u])
            for v in g.neighbors(u):
                if v not in known:
                    in_nb[u].append(v)

        return Orientation(
            out_neighbors=[tuple(sorted(o)) for o in out_nb],
            in_neighbors=[tuple(sorted(i)) for i in in_nb],
            level=level,
            phases=phases,
            rounds=rt.net.round_index - start_round,
        )

    # ------------------------------------------------------------------
    def _stage1_degrees(
        self,
        inactive: list[bool],
        out_nb: list[list[int]],
        tag: object,
        phase: int,
    ) -> list[int]:
        """dᵢ(u) = d(u) − (#inactive neighbours), via one Aggregation."""
        rt, g = self.rt, self.graph
        memberships: dict[int, dict[int, int]] = {}
        targets: dict[int, int] = {}
        for v in range(g.n):
            if inactive[v] and out_nb[v]:
                memberships[v] = {w: 1 for w in out_nb[v]}
                for w in out_nb[v]:
                    targets[w] = w
        outcome = rt.aggregation(
            AggregationProblem(
                memberships=memberships,
                targets=targets,
                fn=SUM,
                ell2_bound=1,
            ),
            tag=(tag, "deg", phase),
            kind="orientation:degrees",
        )
        di = [0] * g.n
        for u in range(g.n):
            if not inactive[u]:
                di[u] = g.degree(u) - outcome.values.get(u, 0)
        return di

    # ------------------------------------------------------------------
    def _stage2_identify(
        self,
        active: list[int],
        inactive: list[bool],
        out_nb: list[list[int]],
        di: list[int],
        d_star: int,
        c: int,
        qc: int,
        tag: object,
        phase: int,
    ) -> dict[int, set[int]]:
        """Every active node learns its set of inactive neighbours."""
        rt, g = self.rt, self.graph
        n = g.n
        log2n = rt.log2n

        # ---- Step 1: coarse identification (s = c, q = 4ecd*log n).
        q1 = max(4 * c, math.ceil(4 * math.e * qc * max(1, d_star) * log2n))
        fam1 = identification_family(rt, c, q1, tag=(tag, "fam1", phase))
        potential = {
            v: [w for w in out_nb[v]] for v in range(n) if inactive[v] and out_nb[v]
        }
        candidates = {u: list(g.neighbors(u)) for u in active}
        step1 = run_identification(
            rt, g, active, candidates, potential, fam1, kind="orientation:ident1"
        )

        inactive_nb: dict[int, set[int]] = {}
        for u in active:
            reds = set(step1.red_neighbors.get(u, ()))
            if u not in step1.unsuccessful:
                inactive_nb[u] = set(g.neighbors(u)) - reds

        unsuccessful = sorted(step1.unsuccessful)
        # Split by removed degree (Section 4.2): high if d(u) - dᵢ(u) >
        # n / log n.
        threshold = n / max(1, log2n)
        u_high = [u for u in unsuccessful if (g.degree(u) - di[u]) > threshold]
        u_low = [u for u in unsuccessful if (g.degree(u) - di[u]) <= threshold]

        # ---- Step 2a: U_high — gather ids at node 0, broadcast, then every
        # active-or-waiting node pings its U_high neighbours directly in a
        # random round of a max(d*, |U_high|) window.
        gathered = rt.gather_to_root({u: u for u in u_high}, kind="orientation:uhigh-gather")
        rt.pipelined_broadcast(gathered, kind="orientation:uhigh-bcast")
        if u_high:
            uhigh_set = set(u_high)
            window = max(1, d_star, len(u_high))
            sends = []
            for w in range(n):
                if inactive[w]:
                    continue
                for v in g.neighbors(w):
                    if v in uhigh_set and v != w:
                        sends.append((w, v, ("ping", w)))
            rng = rt.shared.node_rng(0, (tag, "uhigh-window", phase))
            inbox = spread_exchange(
                rt.net, sends, window, rng=rng, kind="orientation:uhigh-ping"
            )
            for v in u_high:
                pings = {p[1] for p in payloads_of(inbox.get(v, ()))}
                # Active/waiting neighbours pinged; the rest are inactive.
                inactive_nb[v] = {
                    w for w in g.neighbors(v) if w not in pings
                }

        # ---- Step 2b: U_low — announce over multicast trees, then a finer
        # identification (s = c log n, q = 4ec log² n) against the narrowed
        # potential sets.
        # Every inactive node joins the group of each of its out-neighbours.
        injections = {
            v: [(("ul", w), v) for w in out_nb[v]]
            for v in range(n)
            if inactive[v] and out_nb[v]
        }
        ul_trees = rt.multicast_setup_delegated(
            injections, tag=(tag, "ul-trees", phase), kind="orientation:ulow-setup"
        )
        packets = {("ul", v): 1 for v in u_low if ("ul", v) in ul_trees.root}
        announced: dict[int, list[int]] = {}
        if packets:
            out = rt.multicast(
                ul_trees,
                packets,
                {grp: grp[1] for grp in packets},
                ell_bound=max(1, d_star),
                tag=(tag, "ul-mc", phase),
                kind="orientation:ulow-announce",
            )
            for w, got in out.received.items():
                announced[w] = [grp[1] for grp in got]
        if u_low:
            s2 = max(4, c * log2n)
            q2 = max(4 * s2, math.ceil(4 * math.e * qc * log2n * log2n))
            fam2 = identification_family(rt, s2, q2, tag=(tag, "fam2", phase))
            # Playing node w narrowed its potential set to the U_low
            # out-neighbours it heard from.
            potential2 = dict(announced)
            candidates2 = {
                u: [
                    v
                    for v in g.neighbors(u)
                    if v not in set(step1.red_neighbors.get(u, ()))
                ]
                for u in u_low
            }
            step2 = run_identification(
                rt, g, u_low, candidates2, potential2, fam2, kind="orientation:ident2"
            )
            for u in u_low:
                if u in step2.unsuccessful:
                    raise ProtocolError(
                        f"node {u} failed both identification steps (phase {phase})"
                    )
                reds = set(step1.red_neighbors.get(u, ())) | set(
                    step2.red_neighbors.get(u, ())
                )
                inactive_nb[u] = set(g.neighbors(u)) - reds
        return inactive_nb

    # ------------------------------------------------------------------
    def _stage3_active_probe(
        self,
        active: list[int],
        red_of: dict[int, list[int]],
        d_star_i: int,
        tag: object,
        phase: int,
    ) -> dict[int, set[int]]:
        """Rendezvous hashing: both endpoints of an active-active edge send
        its identifier to h(id(e)) in round r(id(e)); a rendezvous node that
        sees an edge twice in one round responds to both endpoints *in the
        next round* (so responses stay spread out exactly like the paper's
        "immediately responds").  Returns per active node the red endpoints
        that are active."""
        rt, g = self.rt, self.graph
        net = rt.net
        nonce = rt.shared.next_nonce()
        h_node = rt.shared.hash_function(("stage3-node",), rt.n)
        h_round = rt.shared.hash_function(("stage3-round", d_star_i), max(1, d_star_i))
        salt = rt.shared.salted_key

        window = max(1, d_star_i)
        schedule: list[list[tuple[int, int, int]]] = [[] for _ in range(window)]
        for u in active:
            for v in red_of.get(u, ()):
                eid = g.edge_id(u, v)
                key = salt(nonce, eid)
                schedule[h_round(key)].append((u, h_node(key), eid))

        active_red: dict[int, set[int]] = {u: set() for u in active}
        pending_responses: list[tuple[int, int, int]] = []
        for r in range(window + 1):
            out = BatchBuilder(kind="orientation:rendezvous")
            for src, dst, eid in pending_responses:
                out.add(src, dst, ("act", eid), kind="orientation:rendezvous-ack")
            pending_responses = []
            if r < window:
                for src, dst, eid in schedule[r]:
                    out.add(src, dst, ("e", eid, src))
            inbox = net.exchange(out)
            for node, received in inbox.items():
                matches: dict[int, int] = {}
                for payload in payloads_of(received):
                    if payload[0] != "e":
                        # A response: node is an endpoint learning that the
                        # edge's other endpoint is active too.
                        eid = payload[1]
                        a, b = g.arc_of_id(eid)
                        other = b if a == node else a
                        if node in active_red:
                            active_red[node].add(other)
                        continue
                    _, eid, _sender = payload
                    matches[eid] = matches.get(eid, 0) + 1
                for eid, count in matches.items():
                    if count >= 2:
                        a, b = g.arc_of_id(eid)
                        pending_responses.append((node, a, eid))
                        pending_responses.append((node, b, eid))
        # The last pass (r = window) sent no edge ids, so it left no
        # pending response.
        return active_red


# ----------------------------------------------------------------------
# Registry entry
# ----------------------------------------------------------------------
def _check(g: InputGraph, result: Orientation, params: dict) -> bool:
    # Structural validity: every input edge is directed exactly once and the
    # in/out adjacency views agree.
    arcs = result.arcs()
    if len(arcs) != g.m or len(set(arcs)) != g.m:
        return False
    from ..ncc.graph_input import canonical_edge

    if {canonical_edge(u, v) for u, v in arcs} != set(g.edges()):
        return False
    return all(u in result.in_neighbors[v] for u, v in arcs)


def _describe(g: InputGraph, result: Orientation, rt: NCCRuntime, params: dict) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, a_known=params["a"])
    row.update(
        rounds=result.rounds,
        phases=result.phases,
        max_outdegree=result.max_outdegree,
    )
    return row


@register_algorithm(
    "orientation",
    aliases=("orient", "o(a)-orientation"),
    summary="O(a)-orientation via Nash-Williams peeling",
    bound="O((a + log n) log n)",
    default_scenario="forest-union",
    check=_check,
    describe=_describe,
)
def _run(rt: NCCRuntime, g: InputGraph) -> Orientation:
    return OrientationAlgorithm(rt, g).run()
