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

from ..butterfly.routing import MulticastRouter, TreeSet
from ..butterfly.topology import ButterflyGrid
from ..ncc.message import BatchBuilder, payloads_of
from ..ncc.network import NCCNetwork
from ..rng import SharedRandomness
from .aggregate_broadcast import barrier
from .aggregation import _group_key
from .direct import send_chunked

GroupT = Hashable


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
        # batches these sends at the capacity limit.  Every stage (this
        # handoff, the spreading rounds, the leaf rounds) ships object
        # tuples; ROADMAP item 3(a) says when a typed wire would pay.
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
        root_packets: dict[GroupT, Any] = {}
        for inbox in send_chunked(net, per_source, net.capacity, kind=kind):
            for received in inbox.values():
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
        # One builder per window round that gets traffic; the others submit
        # ``()``.  Columns are visited in ascending order, so every round
        # lists its senders ascending; the round draws are keyed per (leaf,
        # group, member), not per call, and a window of one round draws
        # nothing.
        schedule: list[BatchBuilder | tuple] = [()] * window
        for col in sorted(res.results):
            host = col  # level-0 column col is hosted by NCC node col
            for g, payload in res.results[col].items():
                for member in trees.leaf_members.get(g, {}).get(col, ()):
                    r = shared.node_randbelow(host, (tag, "leaf", _group_key(g), member), window)
                    if not schedule[r]:
                        schedule[r] = BatchBuilder(kind=kind)
                    schedule[r].add(host, member, ("L", g, payload))
        for out in schedule:
            for u, received in net.exchange(out).items():
                got = outcome.received.setdefault(u, {})
                for _tag, g, payload in payloads_of(received):
                    got[g] = payload
        barrier(net, bf)

    outcome.rounds = net.round_index - start
    return outcome
