"""Input-graph generators with controlled arboricity / diameter / degree.

All generators return :class:`~repro.ncc.graph_input.InputGraph` and are
deterministic in their seed.  Seeds are plain ints with an explicit
default of 0 — passing ``seed=None`` is a :class:`TypeError` (it used to
silently alias to seed 0, so "unseeded" callers got identical graphs
while looking random).  Families used by the experiments:

* ``forest_union`` — union of ``k`` random spanning forests: arboricity ≤ k
  (the Nash-Williams witness is the construction itself), the workhorse for
  sweeping ``a``;
* ``grid`` — planar, a ≤ 3, diameter Θ(√n) (BFS's D-dependence);
* ``random_tree`` / ``path`` / ``cycle`` / ``star`` — a = 1 extremes;
  the star maximizes ∆ at minimum arboricity (the broadcast-tree ablation);
* ``gnp`` / ``random_connected`` — Erdős–Rényi with optional connectivity
  repair;
* ``preferential_attachment`` — heavy-tailed degrees at arboricity ≤ m0;
* ``hypercube`` — log-degree, log-diameter reference topology;
* ``complete`` — the a = Θ(n) stress case.
"""

from __future__ import annotations

import random

from ..ncc.graph_input import EdgeT, InputGraph
from ..rng import seeded_rng


def _rng(seed: int) -> random.Random:
    """A seeded RNG from an *explicit* int seed.

    ``None`` is rejected rather than aliased: every generator is meant to
    be reproducible from its arguments, and a silent ``None -> 0`` made
    unseeded call sites look random while always producing the same graph.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(
            f"generator seed must be an explicit int (default 0), got {seed!r}"
        )
    return seeded_rng(seed)


def path(n: int) -> InputGraph:
    """The path 0-1-…-(n−1): a tree with diameter n−1."""
    return InputGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> InputGraph:
    """The n-cycle: arboricity 2 (for n ≥ 3), diameter ⌊n/2⌋."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return InputGraph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> InputGraph:
    """Star with center 0: arboricity 1, maximum degree n−1.

    The canonical separator of ``a`` from ``∆`` (Section 5's motivating
    example for orientation-based broadcast trees).
    """
    return InputGraph(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> InputGraph:
    """K_n: arboricity ⌈n/2⌉ — the high-arboricity stress case."""
    return InputGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_tree(n: int, seed: int = 0) -> InputGraph:
    """Uniform random recursive tree (each node attaches to a random
    predecessor): arboricity 1."""
    rng = _rng(seed)
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return InputGraph(n, edges)


def grid(rows: int, cols: int) -> InputGraph:
    """rows × cols grid: planar (a ≤ 3), diameter rows + cols − 2."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    n = rows * cols
    edges: list[EdgeT] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return InputGraph(n, edges)


def hypercube(dim: int) -> InputGraph:
    """The dim-dimensional hypercube on 2^dim nodes."""
    n = 1 << dim
    edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < u ^ (1 << b)]
    return InputGraph(n, edges)


def gnp(n: int, p: float, seed: int = 0) -> InputGraph:
    """Erdős–Rényi G(n, p)."""
    rng = _rng(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return InputGraph(n, edges)


def random_connected(
    n: int, extra_edge_prob: float = 0.02, seed: int = 0
) -> InputGraph:
    """A random spanning tree plus G(n, p) extras: always connected."""
    rng = _rng(seed)
    edges: set[EdgeT] = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add((i, j))
    return InputGraph(n, sorted(edges))


def forest_union(n: int, k: int, seed: int = 0) -> InputGraph:
    """Union of ``k`` independent random spanning forests: arboricity ≤ k.

    Each forest is a uniform random recursive tree over a random node
    permutation, so the union is connected (every forest alone spans) and
    dense enough that the greedy arboricity estimate is usually exactly k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = _rng(seed)
    edges: set[EdgeT] = set()
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(1, n):
            a, b = perm[i], perm[rng.randrange(i)]
            edges.add((a, b) if a < b else (b, a))
    return InputGraph(n, sorted(edges))


def caterpillar(spine: int, legs_per_node: int) -> InputGraph:
    """A spine path with ``legs_per_node`` pendant leaves per spine node:
    a tree mixing path diameter with star-like degrees."""
    n = spine * (1 + legs_per_node)
    edges: list[EdgeT] = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            edges.append((s, nxt))
            nxt += 1
    return InputGraph(n, edges)


def preferential_attachment(n: int, m0: int, seed: int = 0) -> InputGraph:
    """Barabási–Albert-style: each new node attaches to ``m0`` existing
    nodes sampled proportionally to degree.  Arboricity ≤ m0 + 1 (each node
    contributes m0 edges to later orientation)."""
    if m0 < 1:
        raise ValueError("m0 must be >= 1")
    if n <= m0:
        return complete(max(1, n))
    rng = _rng(seed)
    edges: set[EdgeT] = set()
    targets_pool: list[int] = list(range(m0))
    for i in range(m0, n):
        chosen: set[int] = set()
        while len(chosen) < min(m0, i):
            chosen.add(targets_pool[rng.randrange(len(targets_pool))] if targets_pool else rng.randrange(i))
        for j in chosen:
            edges.add((j, i))
            targets_pool.append(j)
            targets_pool.append(i)
    return InputGraph(n, sorted(edges))


def random_bipartite(
    left: int, right: int, p: float, seed: int = 0
) -> InputGraph:
    """Random bipartite graph: left nodes 0..left−1, right nodes
    left..left+right−1.  Bipartite graphs are 2-colorable but can have any
    arboricity — a useful contrast to the a-controlled families."""
    rng = _rng(seed)
    edges = [
        (i, left + j)
        for i in range(left)
        for j in range(right)
        if rng.random() < p
    ]
    return InputGraph(left + right, edges)


def ring_of_chords(n: int, chords_per_node: int, seed: int = 0) -> InputGraph:
    """A cycle plus random chords: an expander-like family with diameter
    O(log n) w.h.p. and arboricity ≤ chords_per_node + 2."""
    if n < 3:
        raise ValueError("ring_of_chords needs n >= 3")
    rng = _rng(seed)
    edges: set[EdgeT] = set()
    for i in range(n):
        a, b = i, (i + 1) % n
        edges.add((a, b) if a < b else (b, a))
    for i in range(n):
        for _ in range(chords_per_node):
            j = rng.randrange(n)
            if j != i:
                edges.add((i, j) if i < j else (j, i))
    return InputGraph(n, sorted(edges))


def series_parallel(n: int, seed: int = 0) -> InputGraph:
    """A random series-parallel graph (treewidth ≤ 2, arboricity ≤ 2):
    grown by repeatedly subdividing or duplicating a random existing edge.

    Series-parallel graphs are one of the bounded-treewidth families the
    paper cites as having bounded arboricity [16]."""
    if n < 2:
        raise ValueError("series_parallel needs n >= 2")
    rng = _rng(seed)
    edges: list[EdgeT] = [(0, 1)]
    multi: list[tuple[int, int]] = [(0, 1)]  # parallel copies allowed here
    nxt = 2
    while nxt < n:
        u, v = multi[rng.randrange(len(multi))]
        if rng.random() < 0.5:
            # series: subdivide (u,v) with the new node
            multi.append((u, nxt))
            multi.append((nxt, v))
        else:
            # parallel-ish: attach the new node across the edge
            multi.append((u, nxt))
            multi.append((v, nxt))
        nxt += 1
    simple = {(min(a, b), max(a, b)) for a, b in multi}
    return InputGraph(n, sorted(simple))


def disjoint_cliques(n: int, clique_size: int) -> InputGraph:
    """⌈n/clique_size⌉ disjoint cliques: a disconnected input exercising
    minimum spanning *forest* behaviour."""
    edges: list[EdgeT] = []
    for base in range(0, n, clique_size):
        members = range(base, min(base + clique_size, n))
        edges.extend(
            (i, j) for i in members for j in members if i < j
        )
    return InputGraph(n, edges)
