"""Independent graph oracles for the tests, in plain Python.

Each one computes its answer by a different method than the library code
it checks (union-find, Prim, relaxation to a fixed point, exhaustive
search), so the suite needs no third-party graph library.
"""

from __future__ import annotations

import heapq
from functools import cache

from repro import InputGraph


def union_find_components(n: int, edges) -> tuple[set[frozenset[int]], bool]:
    """The components of nodes ``0..n-1`` under ``edges``, and whether the
    edges form a forest (no edge joined two nodes already connected)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    acyclic = True
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            acyclic = False
        else:
            parent[ru] = rv
    comps: dict[int, set[int]] = {}
    for x in range(n):
        comps.setdefault(find(x), set()).add(x)
    return {frozenset(c) for c in comps.values()}, acyclic


def prim_msf(g: InputGraph) -> set[tuple[int, int]]:
    """A minimum spanning forest grown by Prim's algorithm from every
    component's smallest node (edges as sorted pairs)."""
    seen = [False] * g.n
    forest: set[tuple[int, int]] = set()
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        heap = [(g.weight(root, v), root, v) for v in g.neighbors(root)]
        heapq.heapify(heap)
        while heap:
            _, u, v = heapq.heappop(heap)
            if seen[v]:
                continue
            seen[v] = True
            forest.add((min(u, v), max(u, v)))
            for x in g.neighbors(v):
                if not seen[x]:
                    heapq.heappush(heap, (g.weight(v, x), v, x))
    return forest


def relaxation_distances(g: InputGraph, source: int) -> dict[int, int]:
    """Hop distances from ``source``: relax every edge in both directions
    until nothing changes (Bellman-Ford with unit weights)."""
    dist = {source: 0}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges():
            for a, b in ((u, v), (v, u)):
                if a in dist and dist[a] + 1 < dist.get(b, g.n):
                    dist[b] = dist[a] + 1
                    changed = True
    return dist


def maximum_matching_size(g: InputGraph) -> int:
    """The size of a maximum matching, by exhaustive search over node
    subsets (at most 2**12 states)."""
    if g.n > 12:
        raise ValueError("the exhaustive matching oracle takes at most 12 nodes")

    @cache
    def best(free: int) -> int:
        if not free:
            return 0
        u = (free & -free).bit_length() - 1
        rest = free & ~(1 << u)
        size = best(rest)  # u stays unmatched
        for v in g.neighbors(u):
            if rest >> v & 1:
                size = max(size, 1 + best(rest & ~(1 << v)))
        return size

    return best((1 << g.n) - 1)
