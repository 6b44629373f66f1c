"""O(a)-coloring in O((a + log n) log^{3/2} n) rounds (Section 5.4).

Barenboim–Elkin level processing + the Color-Random algorithm of Kothapalli
et al. [42]:

* the O(a)-orientation partitions nodes into levels L₁..L_T (the phase in
  which each node left); levels are colored highest-first, so when level ℓ
  is processed all its higher-level neighbours (a subset of each node's ≤ â
  out-neighbours) hold permanent colors;
* palettes start as [2(1+ε)â] and shrink as neighbours finalize, so at
  least (1+ε)â candidates always remain;
* in each repetition every uncolored node of the level picks a random
  palette color and multicasts it to its in-neighbours over trees for
  A_{id(u)} = N_in(u) (each node joined the groups of its ≤ â
  out-neighbours, Theorem 2.4); a node keeps its pick iff no out-neighbour
  of the same level picked the same color (the tail of every oriented
  same-level edge defers — one endpoint always detects a conflict);
* finalized nodes announce the color to their in-neighbours (Multicast)
  and out-neighbours (an Aggregation into groups (id(v), color)); everyone
  prunes their palettes;
* an Aggregate-and-Broadcast loops the level until it is fully colored —
  O(√log n) repetitions w.h.p. [42].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ProtocolError
from ..ncc.graph_input import InputGraph
from ..primitives.aggregation import AggregationProblem
from ..primitives.functions import MAX, SUM
from ..registry import register_algorithm
from ..runtime import NCCRuntime
from .orientation import Orientation, OrientationAlgorithm


@dataclass
class ColoringResult:
    """The computed coloring."""

    colors: dict[int, int]
    palette_size: int
    a_hat: int
    phases: int
    repetitions: int
    rounds: int

    def colors_used(self) -> int:
        return len(set(self.colors.values()))


class ColoringAlgorithm:
    """Distributed O(a)-coloring over the orientation's level structure."""

    def __init__(
        self,
        rt: NCCRuntime,
        graph: InputGraph,
        *,
        orientation: Orientation | None = None,
    ):
        if graph.n != rt.n:
            raise ValueError("graph and runtime disagree on n")
        self.rt = rt
        self.graph = graph
        self._orientation = orientation

    def run(self, max_repetitions_per_level: int | None = None) -> ColoringResult:
        rt, g = self.rt, self.graph
        n = g.n
        start_round = rt.net.round_index
        tag = rt.shared.fresh_tag("coloring")
        eps = rt.config.coloring_epsilon

        with rt.net.phase("coloring"):
            ori = (
                self._orientation
                if self._orientation is not None
                else OrientationAlgorithm(rt, g).run()
            )
            self._orientation = ori

            # â = max over u of max(d_L(u), d_out(u)), via A&B.
            local_max = {
                u: max(len(ori.same_level_neighbors(u)), ori.outdegree(u))
                for u in range(n)
            }
            a_hat = rt.aggregate_and_broadcast(local_max, MAX, kind="coloring:ahat")
            a_hat = int(a_hat or 0)
            palette_size = max(1, math.ceil(2 * (1 + eps) * max(1, a_hat)))

            # Multicast trees for A_{id(u)} = N_in(u), source u: every node
            # joins the group of each of its out-neighbours.
            memberships = {
                v: list(ori.out_neighbors[v])
                for v in range(n)
                if ori.out_neighbors[v]
            }
            trees = rt.multicast_setup(
                memberships, tag=(tag, "trees"), kind="coloring:tree-setup"
            )

            palettes: dict[int, set[int]] = {
                u: set(range(palette_size)) for u in range(n)
            }
            colors: dict[int, int] = {}
            levels = sorted(set(ori.level), reverse=True)
            limit = (
                max_repetitions_per_level
                if max_repetitions_per_level is not None
                else 8 * max(1, math.isqrt(rt.log2n)) + 24
            )
            repetitions = 0
            for lvl in levels:
                uncolored = [u for u in range(n) if ori.level[u] == lvl]
                reps_here = 0
                while uncolored:
                    if reps_here >= limit:
                        raise ProtocolError(
                            f"level {lvl} not colored within {limit} repetitions"
                        )
                    reps_here += 1
                    repetitions += 1

                    # ---- tentative picks, multicast to in-neighbours.
                    pick: dict[int, int] = {}
                    for u in uncolored:
                        pal = sorted(palettes[u])
                        if not pal:
                            raise ProtocolError(f"palette of {u} ran dry")
                        pick[u] = pal[rt.shared.node_randbelow(u, (tag, lvl, reps_here), len(pal))]
                    packets = {u: pick[u] for u in uncolored if u in trees.root}
                    heard: dict[int, dict] = {}
                    if packets:
                        out = rt.multicast(
                            trees,
                            packets,
                            {u: u for u in packets},
                            ell_bound=max(1, ori.max_outdegree),
                            tag=(tag, "tentative", lvl, reps_here),
                            kind="coloring:tentative",
                        )
                        heard = out.received

                    # u keeps its pick iff it did not hear its own color
                    # from a same-level out-neighbour.
                    uncolored_set = set(uncolored)
                    finalized: list[int] = []
                    for u in uncolored:
                        conflict = False
                        for v, cv in heard.get(u, {}).items():
                            if (
                                v in uncolored_set
                                and v in set(ori.out_neighbors[u])
                                and cv == pick[u]
                            ):
                                conflict = True
                                break
                        if not conflict:
                            finalized.append(u)

                    # ---- announce permanents: multicast to in-neighbours …
                    final_packets = {
                        u: ("F", pick[u]) for u in finalized if u in trees.root
                    }
                    final_heard: dict[int, dict] = {}
                    if final_packets:
                        out = rt.multicast(
                            trees,
                            final_packets,
                            {u: u for u in final_packets},
                            ell_bound=max(1, ori.max_outdegree),
                            tag=(tag, "final", lvl, reps_here),
                            kind="coloring:final",
                        )
                        final_heard = out.received

                    # … and aggregate to out-neighbours: u joins groups
                    # (id(v), c_u) for v ∈ N_out(u).
                    memberships2: dict[int, dict[tuple[int, int], int]] = {}
                    targets2: dict[tuple[int, int], int] = {}
                    for u in finalized:
                        entry = {}
                        for v in ori.out_neighbors[u]:
                            entry[(v, pick[u])] = 1
                            targets2[(v, pick[u])] = v
                        if entry:
                            memberships2[u] = entry
                    taken_at: dict[int, set[int]] = {}
                    if memberships2:
                        outcome = rt.aggregation(
                            AggregationProblem(
                                memberships=memberships2,
                                targets=targets2,
                                fn=SUM,
                                ell2_bound=palette_size,
                            ),
                            tag=(tag, "announce", lvl, reps_here),
                            kind="coloring:announce",
                        )
                        for (v, c), _cnt in outcome.values.items():
                            taken_at.setdefault(v, set()).add(c)

                    # ---- palette pruning from both announcement channels.
                    for u in finalized:
                        colors[u] = pick[u]
                    for w, got in final_heard.items():
                        for v, payload in got.items():
                            if payload and payload[0] == "F":
                                palettes[w].discard(payload[1])
                    for v, taken in taken_at.items():
                        palettes[v] -= taken

                    uncolored = [u for u in uncolored if u not in colors]

                    # ---- synchronize: is this level done?
                    rt.aggregate_and_broadcast(
                        {u: 1 for u in uncolored}, MAX, kind="coloring:sync"
                    )

        return ColoringResult(
            colors=colors,
            palette_size=palette_size,
            a_hat=a_hat,
            phases=len(levels),
            repetitions=repetitions,
            rounds=rt.net.round_index - start_round,
        )


# ----------------------------------------------------------------------
# Registry entry (Table 1 row T1-COL)
# ----------------------------------------------------------------------
def _check(g: InputGraph, result: ColoringResult, params: dict) -> bool:
    from ..baselines.sequential import is_proper_coloring

    return (
        is_proper_coloring(g, result.colors)
        and result.colors_used() <= result.palette_size
    )


def _describe(
    g: InputGraph, result: ColoringResult, rt: NCCRuntime, params: dict
) -> dict:
    from ..registry import describe_workload

    row = describe_workload(g, a_known=params["a"])
    row.update(
        rounds=result.rounds,
        repetitions=result.repetitions,
        colors_used=result.colors_used(),
        palette=result.palette_size,
    )
    return row


@register_algorithm(
    "coloring",
    aliases=("COL", "col", "o(a)-coloring"),
    summary="O(a)-coloring over the orientation's level structure",
    bound="O((a + log n) log^{3/2} n)",
    table1_key="COL",
    default_scenario="forest-union",
    check=_check,
    describe=_describe,
)
def _run(rt: NCCRuntime, g: InputGraph) -> ColoringResult:
    return ColoringAlgorithm(rt, g).run()
