"""Naive NCC algorithms: direct neighbour communication, no butterfly.

These baselines answer the ablation question "why does the paper bother
with orientation + multicast trees?": a node with degree ∆ can talk to its
neighbours directly, but only O(log n) per round, so naive per-phase costs
scale with ``⌈∆ / capacity⌉`` instead of ``a/log n + log n``.

The implementations stay inside the model (they respect capacity by
batching over rounds) and produce correct outputs — they are *slow*, not
wrong, which is exactly the comparison the benchmarks print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ncc.graph_input import InputGraph
from ..ncc.message import Message
from ..runtime import NCCRuntime


def _batched_neighbor_exchange(
    rt: NCCRuntime,
    graph: InputGraph,
    payload_of,
    senders,
    *,
    kind: str,
) -> dict[int, list[tuple[int, object]]]:
    """Every sender delivers ``payload_of(u)`` to all its neighbours
    directly over a window of ``Θ(⌈∆/capacity⌉)`` rounds.

    The window is sized by the graph's *global maximum degree* because both
    sides of the exchange are degree-bound: a sender emits deg(u) messages,
    and a receiver takes in up to deg(v).  Each message picks a uniformly
    random round, which keeps per-round loads at O(capacity + log n) w.h.p.
    — this ⌈∆/log n⌉ window is exactly the cost the paper's multicast-tree
    machinery avoids.  Returns per-node (neighbour, payload) lists.
    """
    cap = rt.net.capacity
    window = max(1, math.ceil(2 * graph.max_degree / cap))
    received: dict[int, list[tuple[int, object]]] = {}
    schedule: dict[int, list[Message]] = {r: [] for r in range(window)}
    salt = rt.net.round_index
    for u in senders:
        payload = payload_of(u)
        nbrs = graph.neighbors(u)
        rounds = rt.shared.node_randbelow_many(u, (kind, "spread", salt), window, len(nbrs))
        for v, r in zip(nbrs, rounds):
            schedule[r].append(Message(u, v, payload, kind=kind))
    for r in range(window):
        inbox = rt.net.exchange(schedule[r])
        for v, msgs in inbox.items():
            for m in msgs:
                received.setdefault(v, []).append((m.src, m.payload))
    return received


@dataclass
class NaiveResult:
    rounds: int
    output: object


def naive_bfs(rt: NCCRuntime, graph: InputGraph, source: int) -> NaiveResult:
    """Frontier flooding with direct sends; per phase Θ(⌈∆/log n⌉) rounds."""
    start = rt.net.round_index
    dist: list[int | None] = [None] * graph.n
    parent: list[int | None] = [None] * graph.n
    dist[source] = 0
    frontier = [source]
    with rt.net.phase("naive-bfs"):
        while frontier:
            received = _batched_neighbor_exchange(
                rt, graph, lambda u: u, frontier, kind="naive-bfs"
            )
            nxt = []
            for v, arrivals in received.items():
                if dist[v] is None:
                    best = min(src for src, _ in arrivals)
                    dist[v] = dist[best] + 1  # type: ignore[operator]
                    parent[v] = best
                    nxt.append(v)
            frontier = nxt
    return NaiveResult(rt.net.round_index - start, (dist, parent))


def naive_mis(rt: NCCRuntime, graph: InputGraph, *, seed_tag: str = "naive-mis") -> NaiveResult:
    """Métivier et al. with direct neighbour messages (no multicast trees)."""
    start = rt.net.round_index
    n = graph.n
    in_mis: set[int] = set()
    active = set(range(n))
    with rt.net.phase("naive-mis"):
        rnd = 0
        while active:
            rnd += 1
            values = {
                u: rt.shared.node_randbelow(u, (seed_tag, rnd), n**3)
                for u in active
            }
            received = _batched_neighbor_exchange(
                rt, graph, lambda u: values[u], active, kind="naive-mis"
            )
            joined = set()
            for u in active:
                wins = True
                for src, val in received.get(u, []):
                    if src in active and (val, src) < (values[u], u):
                        wins = False
                        break
                if wins:
                    joined.add(u)
            received2 = _batched_neighbor_exchange(
                rt, graph, lambda u: "JOIN", joined, kind="naive-mis-join"
            )
            in_mis |= joined
            removed = joined | {
                v for v, arr in received2.items() if any(p == "JOIN" for _, p in arr)
            }
            active -= removed
    return NaiveResult(rt.net.round_index - start, in_mis)


def naive_broadcast_tree_setup_rounds(rt: NCCRuntime, graph: InputGraph) -> int:
    """Round cost of the naive broadcast-tree setup of Section 5's intro:
    every node joins the multicast group of *every* neighbour directly, so
    ℓ = ∆ and the setup costs O(d̄ + ∆/log n + log n) — executed for real
    so the ablation benchmark measures, not estimates."""
    start = rt.net.round_index
    memberships = {u: list(graph.neighbors(u)) for u in range(graph.n)}
    rt.multicast_setup(
        memberships,
        tag=rt.shared.fresh_tag("naive-bt"),
        kind="naive-broadcast-setup",
    )
    return rt.net.round_index - start
