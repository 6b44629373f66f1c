"""Trial-table peeling: the decoder of the Identification Algorithm.

Section 4.1 lets a learning node ``u`` recover the identifiers of its *red*
edges (edges to non-playing neighbours) from per-trial aggregates.  For each
trial ``t`` the node knows

* ``X(t)``  — XOR of the identifiers of *all* candidate edges in trial ``t``
  (computable locally), and ``x(t)`` — their count;
* ``X'(t)`` — XOR of the identifiers of the *blue* (playing) edges in trial
  ``t`` and ``x'(t)`` — their count (received via the Aggregation primitive).

Whenever ``x(t) = x'(t) + 1`` exactly one red edge participates in trial
``t`` alone among red edges, so its identifier is ``X(t) ⊕ X'(t)``.  Peeling
it out of every trial it participates in may expose further singleton trials
— the same peeling process that decodes an Invertible Bloom Lookup Table.
Lemma 4.2 bounds the probability that peeling stalls with ≥ k red edges
unrecovered.

This module implements the data structure and the peeling loop once, shared
by the distributed algorithm (which fills it from network aggregates) and by
unit tests (which fill it directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .kwise import KWiseHash


def trials_of(edge_id: int, hashes: Sequence[KWiseHash]) -> set[int]:
    """The set of trials an edge participates in: {h_j(e) : j} (Section 4.1)."""
    return {h(edge_id) for h in hashes}


@dataclass
class PeelResult:
    """Outcome of a peeling run."""

    identified: list[int] = field(default_factory=list)
    #: True when every trial balanced out exactly (x(t) == x'(t) and the
    #: XORs matched); False means some red edges could not be identified.
    complete: bool = False


class TrialTable:
    """Per-trial (XOR, count) accumulators with IBLT-style peeling.

    The *local* side is filled with every candidate edge of the learning
    node; the *remote* side is filled from the aggregated contributions of
    playing neighbours.  ``peel`` then extracts the difference (the red
    edges).

    Only the trials a write touched are stored (a trial nobody wrote is
    all zeros), so a table costs O(touched trials), not O(q): a learner
    with a few dozen candidate edges touches a few dozen of the q trials.
    """

    __slots__ = ("q", "hashes", "_xor", "_cnt", "_remote_xor", "_remote_cnt")

    def __init__(self, q: int, hashes: Sequence[KWiseHash]):
        if q < 1:
            raise ValueError("q must be >= 1")
        for h in hashes:
            if h.range_size != q:
                raise ValueError("hash range_size must equal q")
        self.q = q
        self.hashes = tuple(hashes)
        # trial -> value, for the trials some write touched.  The local
        # pair and the remote pair each share one key set.
        self._xor: dict[int, int] = {}
        self._cnt: dict[int, int] = {}
        self._remote_xor: dict[int, int] = {}
        self._remote_cnt: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Filling
    # ------------------------------------------------------------------
    def add_local(self, edge_id: int) -> None:
        """Register a candidate edge (computed locally by the learner)."""
        xor, cnt = self._xor, self._cnt
        for t in trials_of(edge_id, self.hashes):
            xor[t] = xor.get(t, 0) ^ edge_id
            cnt[t] = cnt.get(t, 0) + 1

    def add_local_many(self, edge_ids: Iterable[int]) -> None:
        for e in edge_ids:
            self.add_local(e)

    def set_remote(self, trial: int, xor_value: int, count: int) -> None:
        """Install the aggregate (X'(t), x'(t)) received for one trial."""
        if not 0 <= trial < self.q:
            raise IndexError(trial)
        self._remote_xor[trial] = xor_value
        self._remote_cnt[trial] = count

    def accumulate_remote(self, trial: int, xor_value: int, count: int) -> None:
        """Fold one playing neighbour's contribution into trial ``trial``.

        Mirrors the distributive aggregate f((X1,c1),(X2,c2)) =
        (X1⊕X2, c1+c2) used in the in-network aggregation.
        """
        if not 0 <= trial < self.q:
            raise IndexError(trial)
        self._remote_xor[trial] = self._remote_xor.get(trial, 0) ^ xor_value
        self._remote_cnt[trial] = self._remote_cnt.get(trial, 0) + count

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def peel(self, max_iterations: int | None = None) -> PeelResult:
        """Recover red-edge identifiers by repeated singleton extraction.

        Follows Section 4.1 verbatim: find a trial ``t`` with
        ``x(t) = x'(t) + 1``, output ``X(t) ⊕ X'(t)``, remove that edge from
        every trial it participates in, repeat.  Stops when no singleton
        trial remains.

        Runs in O(touched + peeled): an untouched trial is all zeros, so
        it is neither a singleton nor unbalanced until a peel modifies
        it.  The worklist is seeded with the touched singletons in
        ascending trial order, and ``complete`` checks the touched trials
        plus every trial a peel modified (a mis-decoded identifier may
        land outside the touched set).
        """
        rxor, rcnt = self._remote_xor, self._remote_cnt
        # Working copies over the touched trials; peeling adds the trials
        # it modifies, so at the end their keys are every trial that may
        # be non-zero.
        touched = sorted(self._cnt.keys() | rcnt.keys())
        cnt = {t: self._cnt.get(t, 0) for t in touched}
        xor = {t: self._xor.get(t, 0) for t in touched}
        result = PeelResult()
        limit = max_iterations if max_iterations is not None else self.q * 64 + 64
        # Worklist of candidate singleton trials.
        pending = [t for t in touched if cnt[t] == rcnt.get(t, 0) + 1]
        seen_ids: set[int] = set()
        iterations = 0
        while pending and iterations < limit:
            iterations += 1
            t = pending.pop()
            if cnt[t] != rcnt.get(t, 0) + 1:
                continue  # stale entry
            edge_id = xor[t] ^ rxor.get(t, 0)
            if edge_id == 0 or edge_id in seen_ids:
                # A zero identifier here means the trial's XOR collapsed —
                # cannot happen with valid (non-zero) edge identifiers unless
                # the table was filled inconsistently.  Treat as stall.
                break
            seen_ids.add(edge_id)
            result.identified.append(edge_id)
            for t2 in trials_of(edge_id, self.hashes):
                c = cnt.get(t2, 0) - 1
                cnt[t2] = c
                xor[t2] = xor.get(t2, 0) ^ edge_id
                if c == rcnt.get(t2, 0) + 1:
                    pending.append(t2)
        result.complete = all(c == rcnt.get(t, 0) and xor[t] == rxor.get(t, 0) for t, c in cnt.items())
        return result

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    def local_count(self, trial: int) -> int:
        return self._cnt.get(trial, 0)


def simulate_identification(
    candidate_edges: Sequence[int],
    blue_edges: Sequence[int],
    hashes: Sequence[KWiseHash],
    q: int,
) -> PeelResult:
    """Reference (non-distributed) run of the identification decoder.

    ``candidate_edges`` are all edges the learner considers possible;
    ``blue_edges ⊆ candidate_edges`` are those whose other endpoint is
    playing.  Returns the red edges recovered by peeling.  Used by unit and
    property tests as the oracle the distributed path must match.
    """
    table = TrialTable(q, hashes)
    table.add_local_many(candidate_edges)
    for e in blue_edges:
        for t in trials_of(e, hashes):
            table.accumulate_remote(t, e, 1)
    return table.peel()
