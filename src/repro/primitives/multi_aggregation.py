"""The Multi-Aggregation Algorithm (Theorem 2.6, Appendix B.5).

Every source multicasts its packet down its tree; each leaf ``l(i, u)``
re-keys the received packet to its member: ``pᵢ → (id(u), pᵢ)``; the
re-keyed packets are scattered to random level-0 nodes and then aggregated
— with the distributive ``f`` — toward ``h(id(u))``, whence the combined
value ``f({pᵢ : u ∈ Aᵢ})`` is delivered to ``u``.

Time O(C + log n) w.h.p. (Corollary 1 instantiates this with the broadcast
trees: O(Σ_{u∈S} d(u)/n + log n)).

The ``annotate`` hook implements the paper's one modification (Section
5.3): the matching algorithm lets each leaf annotate the re-keyed packet
with a uniform random value so that MIN-combining selects a uniformly
random unmatched neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

from ..butterfly.routing import CombiningRouter, MulticastRouter, TreeSet
from ..butterfly.topology import ButterflyGrid
from ..ncc.message import BatchBuilder, payloads_of
from ..ncc.network import NCCNetwork
from ..rng import SharedRandomness, randbelow_many
from .aggregate_broadcast import barrier
from .aggregation import _group_key
from .direct import send_chunked
from .functions import Aggregate

GroupT = Hashable
AnnotateT = Callable[["object", GroupT, int, Any], Any]


@dataclass
class MultiAggregationOutcome:
    """``values[u] = f({p_i : u ∈ A_i}))`` for every reached node u.

    With a ``result_key`` (the keyed extension of Appendix B.5),
    ``keyed[u][k] = f({p_i : u ∈ A_i, result_key(i) = k})`` instead and
    ``values`` is left empty.
    """

    values: dict[int, Any] = field(default_factory=dict)
    keyed: dict[int, dict[Any, Any]] = field(default_factory=dict)
    rounds: int = 0


def run_multi_aggregation(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    trees: TreeSet,
    packets: Mapping[GroupT, Any],
    sources: Mapping[GroupT, int],
    fn: Aggregate,
    *,
    annotate: AnnotateT | None = None,
    result_key: Callable[[GroupT], Any] | None = None,
    tag: object = None,
    kind: str = "multi-aggregation",
) -> MultiAggregationOutcome:
    """Run Multi-Aggregation over pre-built multicast trees.

    Only sources present in ``packets`` participate (the active set S of
    Corollary 1).  When ``annotate`` is given, each leaf transforms the
    re-keyed value via ``annotate(leaf_rng, group, member, payload)`` before
    aggregation.  When ``result_key`` is given (the keyed extension the
    paper sketches in Appendix B.5: "to receive aggregates corresponding to
    distinct aggregations"), packets of groups with different keys stay
    separate: member ``u`` receives one aggregate per key in
    ``outcome.keyed[u]``, delivered in capacity-respecting batches.
    """
    if tag is None:
        tag = shared.fresh_tag("multi-aggregation")
    start = net.round_index
    outcome = MultiAggregationOutcome()
    with net.phase(kind):
        nonce_spread = shared.next_nonce()
        nonce_agg = shared.next_nonce()
        _rank = shared.rank_function()
        _target = shared.target_function(bf.columns)
        salt = shared.salted_key

        def spread_rank(key: int) -> int:
            return _rank(salt(nonce_spread, key))

        def agg_rank(key: int) -> int:
            return _rank(salt(nonce_agg, key))

        def target_col(key: int) -> int:
            return _target(salt(nonce_agg, key))

        # ---- Sources hand packets to tree-root hosts, batched at the
        # capacity limit (supports the multi-source extension of App. B.5).
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

        # ---- Spreading phase.
        mrouter = MulticastRouter(
            net, bf, trees, rank_of=lambda g: spread_rank(_group_key(g)), kind=kind
        )
        res = mrouter.run(root_packets)
        barrier(net, bf)

        # ---- Leaf re-keying + scatter to random level-0 nodes.  Router
        # groups are the member id, or (member, key) in keyed mode.
        def group_key_of(rg: Any) -> int:
            if result_key is None:
                return rg
            return _group_key(rg)

        router = CombiningRouter(
            net,
            bf,
            rank_of=lambda rg: agg_rank(group_key_of(rg)),
            target_col_of=lambda rg: target_col(group_key_of(rg)),
            combine=fn.combine,
            kind=kind,
        )
        batch = net.config.batch_size(net.n)
        pending: list[BatchBuilder] = []
        for col, payloads in sorted(res.results.items()):
            host = col
            leaf_rng = shared.node_rng(host, (tag, "leaf"))
            rekeyed: list[tuple[Any, Any]] = []
            for g, payload in sorted(payloads.items(), key=lambda kv: repr(kv[0])):
                for member in trees.leaf_members.get(g, {}).get(col, ()):
                    value = (
                        annotate(leaf_rng, g, member, payload)
                        if annotate is not None
                        else payload
                    )
                    rgroup = member if result_key is None else (member, result_key(g))
                    rekeyed.append((rgroup, value))
            # The scatter is the stream's last use (after any annotation).
            dests = randbelow_many(leaf_rng, bf.columns, len(rekeyed))
            for j, ((rgroup, value), dest) in enumerate(zip(rekeyed, dests)):
                r = j // batch
                while len(pending) <= r:
                    pending.append(BatchBuilder(kind=kind))
                pending[r].add(host, dest, ("S", dest, rgroup, value))
        for round_msgs in pending:
            inbox = net.exchange(round_msgs)
            for ms in inbox.values():
                for _tag, col2, rgroup, value in payloads_of(ms):
                    router.inject(col2, rgroup, value)
        barrier(net, bf)

        # ---- Aggregation toward h(·) and final delivery (batched: in
        # keyed mode one member may receive several aggregates).
        agg_res = router.run()
        barrier(net, bf)
        per_root: dict[int, tuple[list[int], list[Any]]] = {}
        for rgroup, value in agg_res.results.items():
            member = rgroup if result_key is None else rgroup[0]
            src = target_col(group_key_of(rgroup))  # host of (d, h(·))
            c = per_root.get(src)
            if c is None:
                per_root[src] = c = ([], [])
            c[0].append(member)
            c[1].append(("R", rgroup, value))
        for inbox in send_chunked(net, per_root, net.capacity, kind=kind):
            for u, ms in inbox.items():
                for _tag, rgroup, value in payloads_of(ms):
                    if result_key is None:
                        outcome.values[u] = value
                    else:
                        outcome.keyed.setdefault(u, {})[rgroup[1]] = value
        barrier(net, bf)

    outcome.rounds = net.round_index - start
    return outcome
