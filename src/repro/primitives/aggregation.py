"""The Aggregation Algorithm (Theorem 2.3, Appendix B.2).

Problem: aggregation groups ``A₁..A_N ⊆ V`` with targets ``t₁..t_N``; every
member ``u ∈ Aᵢ`` holds an input ``s_{u,i}``; target ``tᵢ`` must learn
``f({s_{u,i} : u ∈ Aᵢ})`` for a distributive ``f``.

Three phases, each ended by a synchronization barrier:

1. *Preprocessing* — every node turns its inputs into packets ``(i, s)``
   and sends them, in batches of ``⌈log n⌉`` per round, to uniformly random
   level-0 butterfly nodes (Lemma B.1).
2. *Combining* — the random-rank protocol routes all packets of group ``i``
   to the intermediate target ``h(i)`` on level ``d``, merging colliding
   same-group packets with ``f`` (Theorem B.2 / Lemma B.6).
3. *Postprocessing* — each intermediate target forwards its result to the
   real target ``tᵢ`` in a round chosen uniformly from
   ``{1..⌈ℓ̂₂/log n⌉}`` (Lemma B.7).

Running time O(L/n + (ℓ₁+ℓ̂₂)/log n + log n) w.h.p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

import numpy as _np

from ..butterfly.routing import CombiningRouter
from ..butterfly.topology import ButterflyGrid
from ..ncc.message import (
    BatchBuilder,
    InboxBatch,
    gather_typed_spans,
    payloads_of,
    typed_payloads_enabled,
)
from ..ncc.network import NCCNetwork
from ..rng import SharedRandomness
from .aggregate_broadcast import barrier
from .functions import Aggregate

GroupT = Hashable

#: Wire dtypes of the typed aggregation flow.  Each sizes exactly like its
#: object-path tuple counterpart (1-char tag = short string = 4 bits; int
#: fields size by binary length), so typed and object runs account
#: identical bits.
INJECT_DTYPE = _np.dtype([("tag", "U1"), ("col", "i8"), ("g", "i8"), ("val", "i8")])
RESULT_DTYPE = _np.dtype([("tag", "U1"), ("g", "i8"), ("val", "i8")])


def _typed_applicable(
    net: NCCNetwork, bf: ButterflyGrid, problem: AggregationProblem
) -> bool:
    """Whether this instance can run the fully typed flow.

    Requires the process-wide typed default, a ufunc-backed
    aggregate, lightweight sync (token traffic would mix object messages
    into the typed builders), a non-degenerate butterfly, and an instance
    whose groups/values are plain ints safely inside int64 (for SUM the
    whole run's worst-case partial sum must fit, so the check bounds the
    total absolute mass).  Anything else keeps the object path — the
    documented fallback contract.
    """
    if (
        not typed_payloads_enabled()
        or problem.fn.ufunc is None
        or bf.d <= 0
        or not net.config.extras.get("lightweight_sync", False)
    ):
        return False
    lo, hi = -(1 << 62), 1 << 62
    abs_sum = 0
    for groups in problem.memberships.values():
        for g, value in groups.items():
            if type(g) is not int or type(value) is not int:
                return False
            if not (lo < g < hi) or not (lo < value < hi):
                return False
            abs_sum += value if value >= 0 else -value
    if problem.fn.ufunc is _np.add and abs_sum >= hi:
        return False
    return True


@dataclass
class AggregationProblem:
    """One instance of the Aggregation Problem.

    ``memberships[u]`` maps each group ``u`` belongs to, to ``u``'s input
    value for that group; ``targets[g]`` is the node that must learn the
    aggregate of group ``g``.  Every group with a member must have a target.
    """

    memberships: Mapping[int, Mapping[GroupT, Any]]
    targets: Mapping[GroupT, int]
    fn: Aggregate
    #: ℓ̂₂ — upper bound on groups-per-target known to all nodes; computed
    #: from the instance when omitted.
    ell2_bound: int | None = None

    def global_load(self) -> int:
        """L = Σ|Aᵢ| — the total number of packets."""
        return sum(len(m) for m in self.memberships.values())

    def ell1(self) -> int:
        """ℓ₁ — max groups one node is a member of."""
        return max((len(m) for m in self.memberships.values()), default=0)

    def ell2(self) -> int:
        """ℓ₂ — max groups one node is the target of."""
        per_target: dict[int, int] = {}
        for g, t in self.targets.items():
            per_target[t] = per_target.get(t, 0) + 1
        return max(per_target.values(), default=0)

    def validate(self) -> None:
        for u, groups in self.memberships.items():
            for g in groups:
                if g not in self.targets:
                    raise ValueError(f"group {g!r} (member {u}) has no target")


@dataclass
class AggregationOutcome:
    """Result of one aggregation run."""

    #: Aggregate per group, as delivered to the group's target.
    values: dict[GroupT, Any]
    #: Per-target view: target node -> {group: value}.
    by_target: dict[int, dict[GroupT, Any]] = field(default_factory=dict)
    rounds: int = 0


def run_aggregation(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    problem: AggregationProblem,
    *,
    tag: object = None,
    kind: str = "aggregation",
) -> AggregationOutcome:
    """Execute the Aggregation Algorithm; see module docstring."""
    problem.validate()
    start = net.round_index
    if tag is None:
        tag = shared.fresh_tag("aggregation")
    with net.phase(kind):
        # One globally agreed rank/target function, salted per invocation
        # (the paper's hash functions are set up once, beforehand).
        nonce = shared.next_nonce()
        rank = shared.rank_function()
        target_col = shared.target_function(bf.columns)
        salt = shared.salted_key

        def key_of(g: GroupT) -> int:
            return salt(nonce, _group_key(g))

        # The run's target-column table: the router's group tables and the
        # delivery schedule read one entry per group, hashed once.
        tcols: dict[GroupT, int] = {}

        def tcol_of(g: GroupT) -> int:
            c = tcols.get(g)
            if c is None:
                c = tcols[g] = target_col(key_of(g))
            return c

        use_typed = _typed_applicable(net, bf, problem)
        router = CombiningRouter(
            net,
            bf,
            rank_of=lambda g: rank(key_of(g)),
            target_col_of=tcol_of,
            combine=problem.fn.combine,
            ufunc=problem.fn.ufunc,
            kind=kind,
        )

        # ----- Preprocessing: batched injection to random level-0 nodes.
        _inject(net, bf, shared, problem, router, tag=tag, kind=kind, typed=use_typed)
        barrier(net, bf)

        # ----- Combining.
        res = router.run()
        barrier(net, bf)

        # ----- Postprocessing: deliver to real targets in random rounds,
        # one row of (sender, target, group, value) columns per window
        # round.  A window of one round draws nothing.
        ell2 = problem.ell2_bound if problem.ell2_bound is not None else problem.ell2()
        window = max(1, math.ceil(ell2 / max(1, net.log2n)))
        rows = [([], [], [], []) for _ in range(window)]
        for g, value in res.results.items():
            src = tcol_of(g)  # host of (d, h(g))
            r = shared.node_randbelow(src, (tag, "deliver", _group_key(g)), window)
            row = rows[r]
            row[0].append(src)
            row[1].append(problem.targets[g])
            row[2].append(g)
            row[3].append(value)
        outcome = AggregationOutcome(values={}, rounds=0)
        for srcs, dsts, gs, vals in rows:
            # A round without traffic submits ``()``, the same empty round
            # at no builder cost: most rounds of a wide window carry nothing.
            out: BatchBuilder | tuple = ()
            if srcs and use_typed:
                out = BatchBuilder(kind=kind, dtype=RESULT_DTYPE)
                payload = _np.empty(len(srcs), dtype=RESULT_DTYPE)
                payload["tag"] = "R"
                payload["g"] = gs
                payload["val"] = vals
                out.add_arrays(srcs, dsts, payload)
            elif srcs:
                out = BatchBuilder(kind=kind)
                for src, t, g, value in zip(srcs, dsts, gs, vals):
                    out.add(src, t, ("R", g, value))
            inbox = net.exchange(out)
            for t, msgs in inbox.items():
                arr = msgs.payload_array() if type(msgs) is InboxBatch else None
                if arr is not None:
                    by_t = outcome.by_target.setdefault(t, {})
                    for g, value in zip(arr["g"].tolist(), arr["val"].tolist()):
                        outcome.values[g] = value
                        by_t[g] = value
                else:
                    for _tag, g, value in payloads_of(msgs):
                        outcome.values[g] = value
                        outcome.by_target.setdefault(t, {})[g] = value
        barrier(net, bf)

    outcome.rounds = net.round_index - start
    return outcome


def _inject(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    problem: AggregationProblem,
    router: CombiningRouter,
    *,
    tag: object,
    kind: str,
    typed: bool,
) -> None:
    """The preprocessing phase: every member sends each of its packets to a
    random level-0 node, ``net.config.batch_size(n)`` packets per round, and
    every delivered packet is injected into ``router``.

    Each injection round is one row of (sender, column, group, value)
    columns, filled with one extend per node; the host of level-0 column
    ``col`` is NCC node ``col``, so the destination column doubles as the
    payload's ``col`` field.  The typed flow ships a row as one typed
    column, the object flow as ``("I", ...)`` tuples.  Returning frees the
    rows, builders and delivered rounds (all but the payload columns the
    router stashed) before the router allocates its own: kept alive through
    the combining phase, they doubled its memory peak.
    """
    batch = net.config.batch_size(net.n)
    rows: list[tuple[list, list, list, list]] = []
    for u, groups in problem.memberships.items():
        gs = sorted(groups, key=repr)
        cols = shared.node_randbelow_many(u, (tag, "inject"), bf.columns, len(gs))
        for r, lo in enumerate(range(0, len(gs), batch)):
            if r == len(rows):
                rows.append(([], [], [], []))
            row = rows[r]
            chunk = gs[lo : lo + batch]
            row[0].extend([u] * len(chunk))
            row[1].extend(cols[lo : lo + batch])
            row[2].extend(chunk)
            row[3].extend(map(groups.__getitem__, chunk))
    for srcs, cols, gs, vals in rows:
        if typed:
            out = BatchBuilder(kind=kind, dtype=INJECT_DTYPE)
            payload = _np.empty(len(srcs), dtype=INJECT_DTYPE)
            payload["tag"] = "I"
            payload["col"] = cols
            payload["g"] = gs
            payload["val"] = vals
            out.add_arrays(srcs, cols, payload)
        else:
            out = BatchBuilder(kind=kind)
            for u, col, g, value in zip(srcs, cols, gs, vals):
                out.add(u, col, ("I", col, g, value))
        inbox = net.exchange(out)
        gathered = gather_typed_spans(inbox)
        if gathered is not None:
            # The whole round in one call.  The router's stash then lists
            # receivers by ascending host, not by first arrival; neither the
            # typed kernel nor the object fallback depends on that order.
            arr = gathered[1]
            router.inject_array(arr["col"], arr["g"], arr["val"])
            continue
        for msgs in inbox.values():
            arr = msgs.payload_array() if type(msgs) is InboxBatch else None
            if arr is not None:
                router.inject_array(arr["col"], arr["g"], arr["val"])
            elif typed:
                # Reference engine (or a degraded round) delivered boxed
                # tuples; lower them back to columns so both engines drive
                # the identical typed kernel.
                pls = payloads_of(msgs)
                router.inject_array(
                    [p[1] for p in pls],
                    [p[2] for p in pls],
                    [p[3] for p in pls],
                )
            else:
                for _tag, col, g, value in payloads_of(msgs):
                    router.inject(col, g, value)


def _group_key(g: GroupT) -> int:
    """Stable integer key for hashing structured group identifiers."""
    if isinstance(g, int):
        return g
    if isinstance(g, tuple):
        key = 0
        for part in g:
            key = key * 1_000_003 + (_group_key(part) + 1)
        return key
    if isinstance(g, str):
        acc = 0
        for ch in g:
            acc = acc * 131 + ord(ch)
        return acc
    raise TypeError(f"unsupported group identifier type {type(g).__name__}")
