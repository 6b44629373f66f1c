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
from typing import Any, Callable, Hashable, Mapping

import numpy as _np

from ..butterfly.routing import CombiningRouter, RoutingResult
from ..butterfly.topology import ButterflyGrid
from ..ncc.message import (
    BatchBuilder,
    InboxBatch,
    gather_typed_arrivals,
    gather_typed_spans,
    payloads_of,
    typed_round_pays,
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
#: Groups and values of the typed flow lie strictly inside (−2^62, 2^62).
_TYPED_LIMIT = 1 << 62

#: The injection rows: one (senders, columns, groups, values) row per round.
Rows = list[tuple[Any, Any, Any, Any]]


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
            self.check_member(u, groups)

    def check_member(self, u: int, groups: Mapping[GroupT, Any]) -> None:
        """Raise ``ValueError`` for the first of member ``u``'s groups that
        has no target."""
        if groups.keys() <= self.targets.keys():
            return
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
    """Execute the Aggregation Algorithm; see module docstring.

    Before any round or phase entry, one pass over the memberships
    (:func:`_front_end`) checks that every group has a target (else
    ``ValueError``), draws each packet's level-0 column and fills the
    injection rows.  Size picks the flow: an instance of fewer than
    :data:`~repro.ncc.message.SMALL_ROUND_CUTOFF` packets runs the object
    flow, where it costs less; a larger one is admitted to the typed
    flow from the rows (:func:`_typed_rows`), which are freed before the
    router runs.  In the typed flow the router takes its rank and target
    tables from one column hash
    (:meth:`~repro.hashing.kwise.KWiseHash.column` over
    :meth:`~repro.rng.SharedRandomness.salted_residues`) and hands back
    result columns, from which the delivery window is built and read as
    whole columns (:func:`_deliver`).

    Both flows keep one result order: the router returns the groups
    ascending, and each delivery round lists its senders ascending, each
    sender's results in group order.  So on every engine, in every
    enforcement mode, the two flows submit the same rounds and record
    the same outcome, and ``values`` and ``by_target`` list the groups in
    the order a receiver-by-receiver read of each delivery round meets
    them.
    """
    if tag is None:
        tag = shared.fresh_tag("aggregation")
    rows = _front_end(net, bf, shared, problem, tag)
    typed_rows = _typed_rows(net, bf, problem, rows)
    use_typed = typed_rows is not None
    if use_typed:
        rows = typed_rows
    start = net.round_index
    with net.phase(kind):
        # One globally agreed rank/target function, salted per invocation
        # (the paper's hash functions are set up once, beforehand).
        nonce = shared.next_nonce()
        rank = shared.rank_function()
        target_col = shared.target_function(bf.columns)
        salt = shared.salted_key

        def key_of(g: GroupT) -> int:
            return salt(nonce, _group_key(g))

        # The run's target-column table: the object loop and the object
        # flow's delivery read one entry per group, hashed once.
        tcols: dict[GroupT, int] = {}

        def tcol_of(g: GroupT) -> int:
            c = tcols.get(g)
            if c is None:
                c = tcols[g] = target_col(key_of(g))
            return c

        def tables_of(groups: Any) -> tuple[Any, Any]:
            # Int groups are their own keys (_group_key).
            x = shared.salted_residues(nonce, groups)
            return rank.column(x), target_col.column(x)

        router = CombiningRouter(
            net,
            bf,
            rank_of=lambda g: rank(key_of(g)),
            target_col_of=tcol_of,
            combine=problem.fn.combine,
            ufunc=problem.fn.ufunc,
            tables_of=tables_of,
            kind=kind,
        )

        # ----- Preprocessing: batched injection to random level-0 nodes.
        # It consumes the rows: held through the combining phase, they
        # would raise the run's memory peak.
        _inject(net, router, rows, kind=kind, typed=use_typed)
        barrier(net, bf)

        # ----- Combining.
        res = router.run()
        barrier(net, bf)

        # ----- Postprocessing: deliver to real targets in random rounds.
        ell2 = problem.ell2_bound if problem.ell2_bound is not None else problem.ell2()
        window = max(1, math.ceil(ell2 / max(1, net.log2n)))
        outcome = AggregationOutcome(values={}, rounds=0)
        _deliver(
            net,
            shared,
            problem,
            res,
            outcome,
            window=window,
            tag=tag,
            kind=kind,
            typed=use_typed,
            tcol_of=tcol_of,
        )
        barrier(net, bf)

    outcome.rounds = net.round_index - start
    return outcome


def _front_end(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    problem: AggregationProblem,
    tag: object,
) -> Rows:
    """The one pass over the memberships, before any round: the injection
    rows of the preprocessing phase.

    For every member in turn it checks that each of its groups has a
    target (:meth:`AggregationProblem.check_member`), draws a random level-0
    column for each of its packets, in ``repr`` order of its groups, and
    sends them ``net.config.batch_size(n)`` per round.  Round ``r`` is
    row ``r`` of (sender, column, group, value) lists, filled with one
    extend per member; the host of level-0 column ``col`` is NCC node
    ``col``, so the destination column doubles as the payload's ``col``.
    """
    batch = net.config.batch_size(net.n)
    columns = bf.columns
    check = problem.check_member
    draw = shared.node_randbelow_many
    first: tuple[list, list, list, list] = ([], [], [], [])
    rows: Rows = [first]
    srcs, cols, gs, vals = first
    for u, groups in problem.memberships.items():
        check(u, groups)
        order = sorted(groups, key=repr)
        k = len(order)
        drawn = draw(u, (tag, "inject"), columns, k)
        if k <= batch:  # one round: the common case
            srcs += [u] * k
            cols += drawn
            gs += order
            vals += map(groups.__getitem__, order)
            continue
        for r, lo in enumerate(range(0, k, batch)):
            if r == len(rows):
                rows.append(([], [], [], []))
            row = rows[r]
            chunk = order[lo : lo + batch]
            row[0].extend([u] * len(chunk))
            row[1].extend(drawn[lo : lo + batch])
            row[2].extend(chunk)
            row[3].extend(map(groups.__getitem__, chunk))
    return rows if srcs else []


def _typed_rows(
    net: NCCNetwork, bf: ButterflyGrid, problem: AggregationProblem, rows: Rows
) -> Rows | None:
    """The injection rows as numpy columns, if this instance can run the
    fully typed flow; else ``None``.

    Size comes first, before anything is converted: the instance must
    pass :func:`~repro.ncc.message.typed_round_pays` on its packet count
    (typed payloads on, at least ``SMALL_ROUND_CUTOFF`` = 128 packets).
    Below that the object flow is the cheaper one, since the typed flow's
    numpy fixed costs outweigh its per-packet savings.  Then it requires
    a ufunc-backed aggregate, lightweight sync (token traffic would mix
    object messages into the typed builders), a non-degenerate butterfly,
    and an instance whose groups/values are plain ints strictly inside
    (−2^62, 2^62) (for SUM the whole run's worst-case partial sum must
    fit, so the total absolute mass must stay below 2^62).  Anything else
    keeps the object path — the documented fallback contract.  The
    choice is invisible in the outcome: both flows keep one result order
    (see :func:`run_aggregation`).  The rows hold every packet, so the
    check reads them, column by column, instead of the instance; the
    mass is summed exactly, in two int64 halves.  The list rows are
    dropped once converted: the injection phase then holds no Python
    object per packet.
    """
    if (
        not typed_round_pays(sum(len(row[0]) for row in rows))
        or problem.fn.ufunc is None
        or bf.d <= 0
        or not net.config.extras.get("lightweight_sync", False)
    ):
        return None
    typed = []
    mass = 0
    for srcs, cols, gs, vals in rows:
        # type() is int excludes bool, float, IntEnum and numpy scalars.
        if list(map(type, gs)).count(int) != len(gs):
            return None
        if list(map(type, vals)).count(int) != len(vals):
            return None
        try:
            garr = _np.array(gs, dtype=_np.int64)
            varr = _np.array(vals, dtype=_np.int64)
        except OverflowError:
            return None
        for arr in (garr, varr):
            if int(arr.min()) <= -_TYPED_LIMIT or int(arr.max()) >= _TYPED_LIMIT:
                return None
        if problem.fn.ufunc is _np.add:
            a = _np.abs(varr)  # below 2^62: each half sums exactly in int64
            mass += (int((a >> 31).sum()) << 31) + int((a & 0x7FFF_FFFF).sum())
        typed.append((_np.asarray(srcs), _np.array(cols, dtype=_np.int64), garr, varr))
    if mass >= _TYPED_LIMIT:
        return None
    return typed


def _inject(
    net: NCCNetwork,
    router: CombiningRouter,
    rows: Rows,
    *,
    kind: str,
    typed: bool,
) -> None:
    """The preprocessing phase: one round per injection row (see
    :func:`_front_end`), every delivered packet injected into ``router``.

    The typed flow ships a row (already numpy columns, see
    :func:`_typed_rows`) as one typed column, the object flow as
    ``("I", ...)`` tuples.  ``rows`` is consumed: the builder takes over a
    round's columns (sorted by sender, or the row's own arrays and payload
    column when its senders already ascend), so this frame drops its
    references to them before the exchange delivers a copy.  Each round's
    builder and delivered inbox are dropped before the next round (all
    but the payload columns the router stashed).
    """
    while rows:
        srcs, cols, gs, vals = rows.pop(0)
        if typed:
            out = BatchBuilder(kind=kind, dtype=INJECT_DTYPE)
            payload = _np.empty(len(cols), dtype=INJECT_DTYPE)
            payload["tag"] = "I"
            payload["col"] = cols
            payload["g"] = gs
            payload["val"] = vals
            out.add_arrays(srcs, cols, payload)
            del payload
        else:
            out = BatchBuilder(kind=kind)
            for u, col, g, value in zip(srcs, cols, gs, vals):
                out.add(u, col, ("I", col, g, value))
        del srcs, cols, gs, vals
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


def _deliver(
    net: NCCNetwork,
    shared: SharedRandomness,
    problem: AggregationProblem,
    res: RoutingResult,
    outcome: AggregationOutcome,
    *,
    window: int,
    tag: object,
    kind: str,
    typed: bool,
    tcol_of: Callable[[GroupT], int],
) -> None:
    """The postprocessing phase: the host of each result's level-d node
    ``(d, h(g))`` sends it to the group's target in a round drawn from
    the ``window`` (a window of one round draws nothing).

    The typed kernel's result columns give the group, value and sender
    columns whole; the object loop's results give them group by group.
    Both list the groups ascending, and both forms of a round list its
    senders ascending, each sender's results in group order (the typed
    builder's ``add_arrays`` groups its senders stably; the object form
    sorts its picks by sender), so the two flows submit the same rounds
    and an overloaded round drops the same results under DROP.  A typed
    round is built from column slices and, on the batched engine, read
    whole (:func:`gather_typed_arrivals`); any other round is read
    receiver by receiver.  Both reads record the groups in the same
    order.
    """
    if res.columns is not None:
        gcol, vcol, scol = res.columns
        glist = gcol.tolist()
    else:
        glist = list(res.results)
        gcol, vcol = glist, list(res.results.values())
        scol = [tcol_of(g) for g in glist]
    dcol = list(map(problem.targets.__getitem__, glist))
    if window == 1:
        picks = [range(len(glist))]
    else:
        picks = [[] for _ in range(window)]
        hosts = scol.tolist() if isinstance(scol, _np.ndarray) else scol
        for i, (src, g) in enumerate(zip(hosts, glist)):
            r = shared.node_randbelow(src, (tag, "deliver", _group_key(g)), window)
            picks[r].append(i)
    columns = (gcol, vcol, scol, dcol)
    if typed:
        columns = tuple(map(_np.asarray, columns))
    for pick in picks:
        # A round without traffic submits ``()``, the same empty round
        # at no builder cost: most rounds of a wide window carry nothing.
        out: BatchBuilder | tuple = ()
        if len(pick) and typed:
            gs, vals, srcs, dsts = (
                columns if len(pick) == len(glist) else (c.take(pick) for c in columns)
            )
            out = BatchBuilder(kind=kind, dtype=RESULT_DTYPE)
            payload = _np.empty(len(pick), dtype=RESULT_DTYPE)
            payload["tag"] = "R"
            payload["g"] = gs
            payload["val"] = vals
            out.add_arrays(srcs, dsts, payload)
        elif len(pick):
            out = BatchBuilder(kind=kind)
            for i in sorted(pick, key=scol.__getitem__):
                out.add(scol[i], dcol[i], ("R", glist[i], vcol[i]))
        _record(net.exchange(out), outcome)


def _record(inbox: Any, outcome: AggregationOutcome) -> None:
    """Record one delivered round in ``outcome``, receivers in
    first-arrival order, each one's messages in submission order."""
    values, by_target = outcome.values, outcome.by_target
    arrivals = gather_typed_arrivals(inbox)
    if arrivals is not None:
        hosts, arr = arrivals
        gs, vals = arr["g"].tolist(), arr["val"].tolist()
        values.update(zip(gs, vals))
        for t, g, value in zip(hosts.tolist(), gs, vals):
            by_t = by_target.get(t)
            if by_t is None:
                by_target[t] = {g: value}
            else:
                by_t[g] = value
        return
    for t, msgs in inbox.items():
        arr = msgs.payload_array() if type(msgs) is InboxBatch else None
        if arr is not None:
            pairs = zip(arr["g"].tolist(), arr["val"].tolist())
        else:
            pairs = ((g, value) for _tag, g, value in payloads_of(msgs))
        by_t = by_target.setdefault(t, {})
        for g, value in pairs:
            values[g] = value
            by_t[g] = value


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
