"""The input graph G of the graph problems (Section 1.1).

``G = (V, E)`` shares its node set with the Node-Capacitated Clique; each
node initially knows only which identifiers are its neighbours (and, for
MST, the weights of its incident edges — both endpoints of an edge know its
weight).  :class:`InputGraph` is the immutable container algorithms read
their *local* knowledge from; the convention throughout the code base is
that per-node logic only consults ``neighbors(u)`` / ``weight(u, v)`` for
its own ``u``.

Edge/arc identifiers follow the paper: ``id(u, v) = id(u) ∘ id(v)`` —
concatenation of the two node identifiers — realized as
``(u << idbits) | v`` plus one to keep identifiers non-zero (a zero
identifier would be XOR-invisible in sketches).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

from ..errors import InputGraphError

EdgeT = tuple[int, int]


def canonical_edge(u: int, v: int) -> EdgeT:
    """The undirected edge key with endpoints sorted."""
    return (u, v) if u <= v else (v, u)


class InputGraph:
    """An undirected input graph on the NCC's node set.

    Parameters
    ----------
    n:
        Number of nodes (same as the clique's).
    edges:
        Iterable of ``(u, v)`` pairs, 0-based ids, no self-loops.  Duplicates
        collapse to one edge.
    weights:
        Optional mapping from canonical edges to positive integer weights in
        ``{1..W}`` (Section 3 assumes integral weights, W = poly(n)).
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[EdgeT],
        weights: Mapping[EdgeT, int] | None = None,
    ):
        if n < 1:
            raise InputGraphError("n must be >= 1")
        self.n = int(n)
        adj: list[set[int]] = [set() for _ in range(self.n)]
        edge_set: set[EdgeT] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InputGraphError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputGraphError(f"edge ({u},{v}) outside node range [0,{self.n})")
            e = canonical_edge(u, v)
            if e in edge_set:
                continue
            edge_set.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        self._edges: tuple[EdgeT, ...] = tuple(sorted(edge_set))
        self._weights: dict[EdgeT, int] | None = None
        if weights is not None:
            w: dict[EdgeT, int] = {}
            for (u, v), wt in weights.items():
                e = canonical_edge(int(u), int(v))
                if e not in edge_set:
                    raise InputGraphError(f"weight given for non-edge {e}")
                if not isinstance(wt, int) or wt < 1:
                    raise InputGraphError(f"weight of {e} must be a positive integer")
                w[e] = wt
            missing = edge_set - set(w)
            if missing:
                raise InputGraphError(f"{len(missing)} edges missing weights")
            self._weights = w
        # id(u,v) = u ∘ v needs ceil(log2 n) bits per endpoint.
        self.idbits = max(1, math.ceil(math.log2(max(2, self.n))))

    @classmethod
    def from_canonical_arrays(
        cls,
        n: int,
        edges: Iterable[EdgeT],
        weights: Iterable[int] | None = None,
    ) -> "InputGraph":
        """Rebuild a graph from already-canonical columns, skipping
        validation and dedup.

        The trusted fast path of the persistent sweep pool
        (:mod:`repro.api.pool`): the parent process publishes a validated
        graph's ``edges()`` (sorted canonical pairs) and aligned weight
        column through shared memory, and workers reconstruct the graph
        without re-running the generator or the ``__init__`` edge checks.
        ``edges`` must be exactly what :meth:`edges` returned — sorted,
        endpoint-ordered, duplicate-free, in ``[0, n)`` — and ``weights``
        (when given) positive ints aligned with it.  Feeding anything else
        silently builds a corrupt graph; this is an internal transport
        constructor, not an input API.  The result is observably
        indistinguishable from the originally validated instance.
        """
        self = cls.__new__(cls)
        self.n = int(n)
        adj: list[list[int]] = [[] for _ in range(self.n)]
        edge_tuples = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edge_tuples:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(neigh)) for neigh in adj)
        self._edges = edge_tuples
        self._weights = (
            {e: int(w) for e, w in zip(edge_tuples, weights)}
            if weights is not None
            else None
        )
        self.idbits = max(1, math.ceil(math.log2(max(2, self.n))))
        return self

    # ------------------------------------------------------------------
    # Global views (used by generators/oracles, not by per-node logic)
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def edges(self) -> tuple[EdgeT, ...]:
        return self._edges

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def is_weighted(self) -> bool:
        return self._weights is not None

    def max_weight(self) -> int:
        if not self._weights:
            return 1
        return max(self._weights.values())

    # ------------------------------------------------------------------
    # Per-node local knowledge
    # ------------------------------------------------------------------
    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted neighbour identifiers of ``u`` (its initial knowledge)."""
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in set(self._adj[u]) if self.degree(u) <= self.degree(v) else u in set(self._adj[v])

    def weight(self, u: int, v: int) -> int:
        """Weight of the edge {u,v}; both endpoints know it (Section 3)."""
        if self._weights is None:
            return 1
        try:
            return self._weights[canonical_edge(u, v)]
        except KeyError:
            raise InputGraphError(f"({u},{v}) is not an edge") from None

    # ------------------------------------------------------------------
    # Identifiers (Section 3 / 4.1 conventions)
    # ------------------------------------------------------------------
    def arc_id(self, u: int, v: int) -> int:
        """Directed-arc identifier id(u,v) = id(u) ∘ id(v), shifted to be
        non-zero so XOR sketches cannot hide it."""
        return ((u << self.idbits) | v) + 1

    def arc_of_id(self, arc_id: int) -> tuple[int, int]:
        """Inverse of :meth:`arc_id`."""
        raw = arc_id - 1
        u = raw >> self.idbits
        v = raw & ((1 << self.idbits) - 1)
        return (u, v)

    def edge_id(self, u: int, v: int) -> int:
        """Undirected edge identifier id(e) with endpoints sorted
        (Stage 3 of Section 4.2 uses id(u) ∘ id(v) for id(u) < id(v))."""
        a, b = canonical_edge(u, v)
        return self.arc_id(a, b)

    def __iter__(self) -> Iterator[EdgeT]:
        return iter(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        w = "weighted" if self.is_weighted() else "unweighted"
        return f"InputGraph(n={self.n}, m={self.m}, {w})"
