"""Capacity-respecting direct (clique-edge) exchanges.

Several steps of the paper bypass the butterfly and use the clique edges
directly, always spreading the sends over a fixed window of rounds with
randomly (or hash-)chosen round indices so that per-round loads stay at
O(log n) w.h.p. — e.g. Stage 3 of the orientation algorithm, the U_high
red-edge deliveries, and the leaf→member deliveries of the multicast.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as _np

from ..ncc.message import BatchBuilder, InboxBatch, Message, merge_round_inboxes
from ..ncc.network import NCCNetwork

SendT = tuple[int, int, Any]  # (src, dst, payload)

#: Per-sender send queue as parallel columns: src -> (dsts, payloads).
ColumnsT = Mapping[int, tuple[list[int], list[Any]]]


def send_direct(
    net: NCCNetwork,
    sends: Iterable[SendT],
    *,
    kind: str = "direct",
    dtype: Any = None,
) -> Mapping[int, list[Message] | InboxBatch]:
    """One round of direct messages; returns the inboxes.

    Sends are grouped per sender into lazy columnar submissions so the
    batched round engine can account and deliver them without
    constructing ``Message`` objects; sender order
    (first occurrence) and per-sender message order match what a flat
    message list would produce, so the round is engine- and
    representation-independent.

    A caller whose payloads all match a declared numpy ``dtype`` (an int64
    scalar or a flat struct of int/str/bool/float fields) may pass it: the
    round then ships as typed columns — no per-payload Python objects on
    the wire, identical accounted bits.  It does so only when that round
    equals the object one: its senders first appear in ascending order
    (the order ``add_arrays`` groups them in) and the dtype holds every
    payload exactly (see :func:`_exact_column`).  Any other round ships
    the object path silently (the fallback contract).
    """
    out = BatchBuilder(kind=kind, dtype=dtype)
    if out._dtype is not None:
        sends = list(sends)
        srcs = [s[0] for s in sends]
        first = list(dict.fromkeys(srcs))
        values = None
        if first == sorted(first):
            values = _exact_column([s[2] for s in sends], out._dtype)
        if values is not None:
            out.add_arrays(srcs, [s[1] for s in sends], values)
            return net.exchange(out)
        out = BatchBuilder(kind=kind)
    for src, dst, payload in sends:
        out.add(src, dst, payload)
    return net.exchange(out)


def _exact_column(payloads: list[Any], dtype: Any) -> Any:
    """``payloads`` as one ``dtype`` column, or ``None`` unless the column
    boxes back to them exactly: equal in value and in Python type, part by
    part.  numpy converts with an unsafe cast (1.5 -> 1 and True -> 1 in an
    int field, "ab" -> "a" in a ``U1`` field), which would change what the
    receivers read and the bits the round is charged."""
    if not payloads:
        return None
    try:
        column = _np.array(payloads, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return None
    for boxed, payload in zip(column.tolist(), payloads):
        if type(boxed) is not type(payload) or boxed != payload:
            return None
        if type(boxed) is tuple and list(map(type, boxed)) != list(map(type, payload)):
            return None
    return column


def send_chunked(
    net: NCCNetwork,
    per_source: ColumnsT,
    chunk: int,
    *,
    kind: str = "direct",
) -> Iterator[Mapping[int, list[Message] | InboxBatch]]:
    """Drain per-sender column queues at ``chunk`` messages per round.

    Every sender advances through its queue in lockstep (round ``r`` sends
    slice ``[r*chunk : (r+1)*chunk]``), the pattern the paper uses whenever
    sources hand off more packets than the capacity allows (multicast and
    multi-aggregation root handoffs, final keyed deliveries).  At least one
    round always elapses, even with no traffic.  Yields each round's
    inboxes; rounds are submitted as object columns (the column slices go
    straight into the builder, no ``Message`` objects).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    rounds_needed = max(
        (math.ceil(len(dsts) / chunk) for dsts, _ in per_source.values()),
        default=0,
    )
    rounds_needed = max(1, rounds_needed)
    for r in range(rounds_needed):
        lo, hi = r * chunk, (r + 1) * chunk
        out = BatchBuilder(kind=kind)
        for src, (dsts, payloads) in per_source.items():
            if lo < len(dsts):
                out.add_many(src, dsts[lo:hi], payloads[lo:hi])
        yield net.exchange(out)


def spread_exchange(
    net: NCCNetwork,
    sends: Iterable[SendT],
    window: int,
    *,
    round_of: Callable[[int, SendT], int] | None = None,
    rng=None,
    kind: str = "direct-spread",
) -> dict[int, list[Message] | InboxBatch]:
    """Send messages spread over ``window`` rounds; merge all inboxes.

    ``round_of(index, send)`` may pin a message to a specific round in
    ``[0, window)`` (the paper's hash-selected rounds, e.g. ``r(id(e))`` in
    Stage 3); otherwise rounds are chosen uniformly via ``rng`` (falling
    back to a deterministic stripe).  The window always elapses fully —
    these are fixed-length protocol sub-phases.  The merged inboxes stay
    lazy when the engine delivered column views (concatenating columns,
    not messages).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    # A round gets a builder only once it gets traffic; the others submit
    # ``()``, the same empty round at no construction cost.
    schedule: list[BatchBuilder | tuple] = [()] * window
    for idx, send in enumerate(sends):
        src, dst, payload = send
        if round_of is not None:
            r = round_of(idx, send) % window
        elif rng is not None:
            r = rng.randrange(window)
        else:
            r = idx % window
        if not schedule[r]:
            schedule[r] = BatchBuilder(kind=kind)
        schedule[r].add(src, dst, payload)
    merged: dict[int, list[Message] | InboxBatch] = {}
    for r in range(window):
        merge_round_inboxes(merged, net.exchange(schedule[r]))
    return merged


def batched_window(count: int, batch: int) -> int:
    """Rounds needed to send ``count`` messages at ``batch`` per round."""
    return max(1, math.ceil(count / max(1, batch)))
