"""Aggregate-and-Broadcast (Theorem 2.2), barriers, and pipelined broadcasts.

Appendix B.1: inputs funnel along the unique butterfly paths to the root
``(d, 0)`` (combining en route), then the result floods back up the binary
broadcast tree to every level-0 node and finally to the non-emulating
partner nodes.  Exactly ``2d + 2`` rounds, every round a real exchange.

The same path system gives two more tools used throughout the paper:

* :func:`barrier` — the synchronization pattern of Appendix B.1 ("every node
  delays its participation …"): an Aggregate-and-Broadcast of completion
  tokens.  Algorithms call it between phases, so its rounds are charged.
* :func:`pipelined_broadcast` — node 0 broadcasts ``k`` messages pipelined
  through the broadcast tree in ``d + k + 1`` rounds (used for shared-hash
  agreement and the U_high identifier broadcast of Section 4.2).
* :func:`gather_to_root` — route items from their owners to node 0 with
  smallest-first contention (the U_high gather), ``O(k + log n)`` rounds.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping

import numpy as _np

from ..butterfly.topology import ButterflyGrid
from ..ncc.message import BatchBuilder, payloads_of, typed_round_pays
from ..ncc.network import NCCNetwork
from .functions import Aggregate

#: Wire dtype of a bulk hash-agreement round (:func:`_broadcast_uniform`).
#: Sizes exactly like the object path's ``("B", item)`` tuples (1-char tag =
#: short string = 4 bits), so both wires account identical bits.
BCAST_DTYPE = _np.dtype([("tag", "U1"), ("item", "i8")])


def aggregate_and_broadcast(
    net: NCCNetwork,
    bf: ButterflyGrid,
    inputs: Mapping[int, Any],
    fn: Aggregate,
    *,
    kind: str = "agg-bcast",
) -> Any:
    """All nodes learn ``fn(inputs.values())`` in ``2d + 2`` rounds.

    ``inputs`` maps member nodes of the set ``A`` to their input value;
    nodes outside the mapping contribute nothing.  Returns the aggregate
    (``None`` when ``inputs`` is empty — every node learns "no input").
    """
    d = bf.d
    cols = bf.columns

    # Round 1: non-emulating nodes hand their value to their partner.
    out = BatchBuilder(kind=kind)
    for u, v in inputs.items():
        if not bf.emulates(u):
            out.add(u, u - cols, ("P", v))
    inbox = net.exchange(out)

    # Values now live at level-0 butterfly nodes.
    acc: dict[int, Any] = {}  # column -> partial aggregate (current level)
    for u, v in inputs.items():
        if bf.emulates(u):
            acc[u] = fn(acc[u], v) if u in acc else v
    for host, received in inbox.items():
        for payload in payloads_of(received):
            v = payload[1]
            acc[host] = fn(acc[host], v) if host in acc else v

    # Aggregation phase: d rounds, level i -> i+1, fixing bit i to 0.
    for level in range(d):
        bit = 1 << level
        out = BatchBuilder(kind=kind)
        nxt: dict[int, Any] = {}
        for col, v in acc.items():
            target = col & ~bit
            if target == col:
                nxt[col] = fn(nxt[col], v) if col in nxt else v
            else:
                out.add(col, target, ("A", v))
        inbox = net.exchange(out)
        for host, received in inbox.items():
            for payload in payloads_of(received):
                v = payload[1]
                nxt[host] = fn(nxt[host], v) if host in nxt else v
        acc = nxt

    result = acc.get(0)

    # Broadcast phase: d rounds, level i+1 -> i; holders at level i+1 are
    # the columns with bits 0..i zero.  Broadcast happens even for an empty
    # aggregate: nodes must learn "no input" to stay synchronized (the
    # barrier relies on this).
    holders = [0]
    for level in range(d - 1, -1, -1):
        bit = 1 << level
        out = BatchBuilder(kind=kind)
        for col in holders:
            out.add(col, col | bit, ("B", result))
        net.exchange(out)
        holders = holders + [col | bit for col in holders]

    # Final round: level-0 nodes inform their non-emulating partners.
    out = BatchBuilder(kind=kind)
    for col in range(cols):
        partner = bf.partner_of_column(col)
        if partner is not None:
            out.add(col, partner, ("B", result))
    net.exchange(out)

    return result


def barrier(net: NCCNetwork, bf: ButterflyGrid, *, kind: str = "barrier") -> None:
    """Synchronize all nodes (Appendix B.1's token A&B); ``2d + 2`` rounds.

    With ``lightweight_sync`` set in the config extras the rounds elapse
    without materializing the messages (identical round count).
    """
    if net.config.extras.get("lightweight_sync", False):
        net.idle_rounds(2 * bf.d + 2)
        return
    from .functions import MAX

    aggregate_and_broadcast(
        net, bf, {u: 1 for u in range(net.n)}, MAX, kind=kind
    )


def pipelined_broadcast(
    net: NCCNetwork,
    bf: ButterflyGrid,
    items: Iterable[Any],
    *,
    src: int = 0,
    kind: str = "pipelined-bcast",
    collect: bool = True,
) -> dict[int, list[Any]]:
    """Broadcast ``items`` from node ``src`` to all nodes, pipelined.

    Section 4.2: items are "broadcast … in a pipelined fashion in a binary
    tree, which is implicitly given in the network" — node ``u``'s children
    are ``2u+1`` and ``2u+2``.  Each tree edge carries ``capacity/2`` items
    per round, so every node sends ≤ capacity and receives ≤ capacity/2
    messages per round, and ``k`` items reach everyone in
    ``O(log n + k/log n)`` rounds.

    Returns the items received per node (in order), for caller convenience;
    ``collect=False`` skips building that O(n·k) structure (an empty dict
    is returned) for callers that only broadcast for the rounds/traffic —
    the shared-hash agreement charge.  Network traffic is identical either
    way.
    """
    item_list = list(items)
    n = net.n
    if src == 0 and n > 1 and item_list:
        first = item_list[0]
        if all(it is first for it in item_list):
            # Identical items (the agreement broadcasts send [h] * k): the
            # per-node FIFO schedule collapses to one counter per tree
            # depth — same rounds, same senders in the same order, same
            # per-edge batches, without n deques or per-item inbox scans.
            return _broadcast_uniform(
                net, item_list, kind=kind, collect=collect
            )
    received: dict[int, list[Any]] = {u: [] for u in range(n)} if collect else {}
    if collect:
        received[src] = list(item_list)
    if n == 1 or not item_list:
        return received

    # Stage 0: if src is not node 0, ship the items to the tree root first,
    # batched at the capacity limit.
    if src != 0:
        cap = net.capacity
        idx = 0
        while idx < len(item_list):
            batch = item_list[idx : idx + cap]
            idx += cap
            out = BatchBuilder(kind=kind)
            out.add_many(src, (0,) * len(batch), [("S", it) for it in batch])
            net.exchange(out)
        received[0] = list(item_list)

    rate = max(1, net.capacity // 2)
    fifos: dict[int, deque] = {0: deque(item_list)}
    while fifos:
        out = BatchBuilder(kind=kind)
        for u in list(fifos):
            q = fifos[u]
            take = min(rate, len(q))
            batch = [q.popleft() for _ in range(take)]
            if not q:
                del fifos[u]
            # One wrapped column serves both children (the builder copies
            # nothing — payload refs are shared on the wire model too).
            wrapped = [("B", it) for it in batch]
            for child in (2 * u + 1, 2 * u + 2):
                if child < n:
                    out.add_many(u, (child,) * take, wrapped)
        if not out:
            break
        inbox = net.exchange(out)
        for v, rec in inbox.items():
            for payload in payloads_of(rec):
                item = payload[1]
                if collect and v != src:
                    received[v].append(item)
                if 2 * v + 1 < n:
                    fifos.setdefault(v, deque()).append(item)

    return received


def _broadcast_uniform(
    net: NCCNetwork,
    item_list: list,
    *,
    kind: str,
    collect: bool,
) -> dict[int, list[Any]]:
    """Closed-form pipelined broadcast of ``k`` identical items from node 0.

    Every internal node at binary-tree depth ``d`` has the same queue
    length every round (each parent ships the same batch size to both
    children), and the generic loop's sender order is ascending node id —
    the fifo dict stays sorted because each round's (re)insertions are the
    ascending senders' ascending child pairs, covering disjoint increasing
    id ranges.  So one depth-indexed counter dict replays the exact
    traffic: same rounds, same flat message order, same batch sizes and
    payload values.  Pinned differentially against the generic loop in
    ``tests/test_aggregate_broadcast.py`` (both wires).

    A round's message count has a closed form (each active depth's batch
    times its tree edges), so the wire is picked per round: an int item
    inside int64 range ships a bulk round (``typed_round_pays``) as one
    typed ``BCAST_DTYPE`` column, built whole with numpy; any other round
    ships ``("B", item)`` tuples sender by sender.  Both forms list the
    senders ascending with each sender's left-child batch first, so they
    submit the identical round.
    """
    n = net.n
    k = len(item_list)
    item = item_list[0]
    rate = max(1, net.capacity // 2)
    last_internal = (n - 2) // 2  # deepest node with a child in range
    maxd = (last_internal + 1).bit_length() - 1
    typed_item = type(item) is int and -(1 << 63) <= item < 1 << 63
    qd: dict[int, int] = {0: k}  # tree depth -> queue length (uniform)
    while qd:
        # (depth, take, first node, last node) per active depth, ascending.
        spans = [
            (d, min(rate, qd[d]), (1 << d) - 1, min((1 << (d + 1)) - 2, last_internal))
            for d in sorted(qd)
        ]
        # Only the last internal node can miss its right child (2u + 2 = n).
        count = sum(
            take * (2 * (hi - lo + 1) - (2 * hi + 2 >= n))
            for _, take, lo, hi in spans
        )
        if typed_item and typed_round_pays(count):
            out = BatchBuilder(kind=kind, dtype=BCAST_DTYPE)
            srcs, dsts = [], []
            for _, take, lo, hi in spans:
                us = _np.arange(lo, hi + 1)
                # Each sender's left-child batch, then its right-child one.
                kids = (2 * us[:, None] + (1, 2)).ravel()
                srcs.append(_np.repeat(us, 2 * take))
                dsts.append(_np.repeat(kids, take))
            dst = _np.concatenate(dsts)
            keep = dst < n
            payload = _np.empty(count, dtype=BCAST_DTYPE)
            payload["tag"] = "B"
            payload["item"] = item
            out.add_arrays(_np.concatenate(srcs)[keep], dst[keep], payload)
        else:
            out = BatchBuilder(kind=kind)
            for _, take, lo, hi in spans:
                wrapped = [("B", item)] * take
                for u in range(lo, hi + 1):
                    out.add_many(u, (2 * u + 1,) * take, wrapped)
                    if 2 * u + 2 < n:
                        out.add_many(u, (2 * u + 2,) * take, wrapped)
        net.exchange(out)
        for d, take, _, _ in spans:
            qd[d] -= take
            if not qd[d]:
                del qd[d]
            if d + 1 <= maxd:
                qd[d + 1] = qd.get(d + 1, 0) + take
    if not collect:
        return {}
    received = {u: [item] * k for u in range(n)}
    received[0] = list(item_list)
    return received


def gather_to_root(
    net: NCCNetwork,
    bf: ButterflyGrid,
    items: Mapping[int, Any],
    *,
    kind: str = "gather",
) -> list[Any]:
    """Route one item per owning node to node 0, smallest-id first.

    Section 4.2 (U_high): "every node u ∈ U_high sends its identifier to the
    node v with identifier 0; … whenever multiple identifiers contend to use
    the same edge in the same round, the smallest identifier is sent first."
    Items route along the butterfly path system toward column 0 without
    combining.  Returns the items in the order node 0 received them
    (ties broken by owner id).
    """
    from ..butterfly.routing import CombiningRouter

    if net.n == 1:
        return [items[0]] if 0 in items else []

    # Non-emulating owners hand their item to the partner column first.
    cols = bf.columns
    out = BatchBuilder(kind=kind)
    for u, v in items.items():
        if not bf.emulates(u):
            out.add(u, u - cols, ("H", u, v))
    inbox = net.exchange(out)
    injected: list[tuple[int, int, Any]] = [
        (u, u, v) for u, v in items.items() if bf.emulates(u)
    ]
    for host, rec in inbox.items():
        for _tag, owner, v in payloads_of(rec):
            injected.append((host, owner, v))

    router = CombiningRouter(
        net,
        bf,
        rank_of=lambda g: g,  # smallest owner id wins contention
        target_col_of=lambda g: 0,
        combine=lambda a, b: a,  # groups are unique; never fires
        kind=kind,
    )
    for col, owner, v in injected:
        router.inject(col, owner, v)
    res = router.run()
    return [res.results[owner] for owner in sorted(res.results)]
