"""The Multicast Algorithm (Theorem 2.5, Appendix B.4).

Given multicast trees (Theorem 2.4) with congestion ``C``, every source
``sᵢ`` delivers its packet ``pᵢ`` to all members of ``Aᵢ``:

1. ``sᵢ`` sends ``pᵢ`` directly to the host of the tree root ``h(i)``;
2. the *Spreading Phase* floods copies down the recorded tree edges with
   rank-based contention (reverse of the combining protocol);
3. every leaf ``l(i, u)`` forwards ``pᵢ`` to its member ``u`` in a round
   chosen uniformly from ``{1..⌈ℓ̂/log n⌉}``.

Time O(C + ℓ̂/log n + log n) w.h.p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

import numpy as _np

from ..butterfly.routing import MulticastRouter, TreeSet
from ..butterfly.topology import ButterflyGrid
from ..ncc.message import (
    BatchBuilder,
    InboxBatch,
    payloads_of,
    typed_payloads_enabled,
    typed_round_pays,
)
from ..ncc.network import NCCNetwork
from ..rng import SharedRandomness
from .aggregate_broadcast import barrier
from .aggregation import _group_key
from .direct import send_chunked

GroupT = Hashable

#: Wire dtype of the root-handoff ("M") and leaf-delivery ("L") packets.
#: Sizes exactly like the object-path ``(tag, g, payload)`` tuples (1-char
#: tag = short string = 4 bits), so typed and object runs account identical
#: wire bits.
MCAST_DTYPE = _np.dtype([("tag", "U1"), ("g", "i8"), ("val", "i8")])


@dataclass
class MulticastOutcome:
    """Per-node received payloads: ``received[u][g] = p_g``."""

    received: dict[int, dict[GroupT, Any]] = field(default_factory=dict)
    rounds: int = 0

    def at(self, node: int) -> dict[GroupT, Any]:
        return self.received.get(node, {})


def run_multicast(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    trees: TreeSet,
    packets: Mapping[GroupT, Any],
    sources: Mapping[GroupT, int],
    *,
    ell_bound: int | None = None,
    tag: object = None,
    kind: str = "multicast",
) -> MulticastOutcome:
    """Multicast each group's packet to all tree members.

    ``packets[g]`` is group ``g``'s payload; ``sources[g]`` the node that
    holds it.  ``ell_bound`` is the ℓ̂ the nodes are assumed to know
    (max memberships per node); computed from the trees when omitted.
    Only groups present in ``packets`` are multicast — the trees may serve
    many rounds of an algorithm with shrinking active sets.
    """
    if tag is None:
        tag = shared.fresh_tag("multicast")
    start = net.round_index
    outcome = MulticastOutcome()
    with net.phase(kind):
        nonce = shared.next_nonce()
        _rank = shared.rank_function()
        salt = shared.salted_key

        def rank(key: int) -> int:
            return _rank(salt(nonce, key))

        # ---- Sources hand packets to the tree-root hosts.  The paper's
        # simplified variant has one group per source (a single round); the
        # extension it mentions — nodes sourcing multiple multicasts — just
        # batches these sends at the capacity limit.
        #
        # An instance whose groups and payloads are all plain int64-range
        # ints may ride the typed wire in every stage (handoff here,
        # spreading inside the router, leaf delivery below), but each round
        # does so only when it is a bulk one (typed_round_pays); small
        # rounds and any other instance keep the object tuples.  Both forms
        # submit identical rounds, so the choice changes no observable.
        lim = 1 << 62
        use_typed = typed_payloads_enabled() and all(
            type(g) is int and type(p) is int and -lim < g < lim and -lim < p < lim
            for g, p in packets.items()
        )
        per_source: dict[int, tuple[list[int], list[Any]]] = {}
        for g, payload in packets.items():
            root = trees.root.get(g)
            if root is None:
                raise KeyError(f"no multicast tree for group {g!r}")
            src = sources[g]
            c = per_source.get(src)
            if c is None:
                per_source[src] = c = ([], [])
            c[0].append(bf.host(root))
            c[1].append(("M", g, payload))
        # The handoff's first round is its largest, and both forms send its
        # senders in first-occurrence order.
        first_round = sum(min(len(c[0]), net.capacity) for c in per_source.values())
        typed_handoff = use_typed and typed_round_pays(first_round)
        root_packets: dict[GroupT, Any] = {}
        for inbox in send_chunked(
            net,
            per_source,
            net.capacity,
            kind=kind,
            dtype=MCAST_DTYPE if typed_handoff else None,
        ):
            for received in inbox.values():
                arr = (
                    received.payload_array()
                    if type(received) is InboxBatch
                    else None
                )
                if arr is not None:
                    for g, payload in zip(
                        arr["g"].tolist(), arr["val"].tolist()
                    ):
                        root_packets[g] = payload
                else:
                    for _tag, g, payload in payloads_of(received):
                        root_packets[g] = payload

        # ---- Spreading phase down the recorded trees.
        router = MulticastRouter(
            net, bf, trees, rank_of=lambda g: rank(_group_key(g)), kind=kind
        )
        res = router.run(root_packets)
        barrier(net, bf)

        # ---- Leaf -> member delivery in a random-round window.
        if ell_bound is None:
            ell_bound = trees.member_load()
        window = max(1, math.ceil(max(1, ell_bound) / max(1, net.log2n)))
        # One row of (sender, member, group, payload) columns per window
        # round.  Columns are visited in ascending order, so every row lists
        # its senders ascending, as a typed add_arrays groups them; the
        # round draws are keyed per (leaf, group, member), not per call,
        # and a window of one round draws nothing.
        rows: list[tuple[list, list, list, list]] = [
            ([], [], [], []) for _ in range(window)
        ]
        for col in sorted(res.results):
            host = col  # level-0 column col is hosted by NCC node col
            for g, payload in res.results[col].items():
                for member in trees.leaf_members.get(g, {}).get(col, ()):
                    row = rows[shared.node_randbelow(host, (tag, "leaf", _group_key(g), member), window)]
                    row[0].append(host)
                    row[1].append(member)
                    row[2].append(g)
                    row[3].append(payload)
        for srcs, dsts, gs, vals in rows:
            out: BatchBuilder | tuple = ()
            if use_typed and typed_round_pays(len(srcs)):
                out = BatchBuilder(kind=kind, dtype=MCAST_DTYPE)
                payload_arr = _np.empty(len(srcs), dtype=MCAST_DTYPE)
                payload_arr["tag"] = "L"
                payload_arr["g"] = gs
                payload_arr["val"] = vals
                out.add_arrays(srcs, dsts, payload_arr)
            elif srcs:
                out = BatchBuilder(kind=kind)
                out_add = out.add
                for src, dst, g, payload in zip(srcs, dsts, gs, vals):
                    out_add(src, dst, ("L", g, payload))
            inbox = net.exchange(out)
            for u, received in inbox.items():
                arr = (
                    received.payload_array()
                    if type(received) is InboxBatch
                    else None
                )
                if arr is not None:
                    got = outcome.received.setdefault(u, {})
                    for g, payload in zip(
                        arr["g"].tolist(), arr["val"].tolist()
                    ):
                        got[g] = payload
                else:
                    for _tag, g, payload in payloads_of(received):
                        outcome.received.setdefault(u, {})[g] = payload
        barrier(net, bf)

    outcome.rounds = net.round_index - start
    return outcome
