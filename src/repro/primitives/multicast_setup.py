"""The Multicast Tree Setup Algorithm (Theorem 2.4, Appendix B.3).

Multicast groups ``A₁..A_N`` with sources ``s₁..s_N`` (each node source of
at most one group).  Every member ``u ∈ Aᵢ`` injects an empty packet at a
uniformly random level-0 butterfly node — that node becomes ``u``'s leaf
``l(i, u)`` — and the packets of group ``i`` are aggregated toward the root
``h(i)`` on level ``d`` with an arbitrary aggregate.  The edges the packets
traverse *are* the multicast tree ``Tᵢ``.

Time O(L/n + ℓ/log n + log n); tree congestion O(L/n + log n), w.h.p.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from ..butterfly.routing import CombiningRouter, TreeSet
from ..butterfly.topology import BFNode, ButterflyGrid
from ..ncc.message import BatchBuilder, payloads_of
from ..ncc.network import NCCNetwork
from ..rng import SharedRandomness
from .aggregate_broadcast import barrier
from .aggregation import _group_key

GroupT = Hashable


def setup_multicast_trees(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    memberships: Mapping[int, Iterable[GroupT]],
    *,
    tag: object = None,
    kind: str = "multicast-setup",
) -> TreeSet:
    """Build multicast trees for the given group memberships.

    ``memberships[u]`` lists the groups node ``u`` joins.  The injected
    packets carry the member identifier so leaves record whom they serve
    (the final-delivery map of the Multicast Algorithm).

    A node may join a group on *behalf of a neighbour* (Section 5's
    broadcast-tree construction); pass entries ``(group, member)`` via
    :func:`setup_multicast_trees_delegated` in that case.
    """
    delegated = {
        u: [(g, u) for g in groups] for u, groups in memberships.items()
    }
    return setup_multicast_trees_delegated(
        net, bf, shared, delegated, tag=tag, kind=kind
    )


def setup_multicast_trees_delegated(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    injections: Mapping[int, Iterable[tuple[GroupT, int]]],
    *,
    tag: object = None,
    kind: str = "multicast-setup",
) -> TreeSet:
    """Tree setup where node ``u`` may inject ``(group, member)`` packets
    for members other than itself.

    This is exactly the trick of Lemma 5.1: with an O(a)-orientation, the
    tail of each edge injects *both* endpoint memberships, so every node
    injects O(a) packets regardless of its degree.
    """
    if tag is None:
        tag = shared.fresh_tag("multicast-setup")
    start = net.round_index
    with net.phase(kind):
        nonce = shared.next_nonce()
        rank = shared.rank_function()
        target_col = shared.target_function(bf.columns)
        salt = shared.salted_key

        def key_of(g: GroupT, _cache: dict = {}) -> int:
            k = _cache.get(g)
            if k is None:
                k = _cache[g] = salt(nonce, _group_key(g))
            return k

        router = CombiningRouter(
            net,
            bf,
            rank_of=lambda g: rank(key_of(g)),
            target_col_of=lambda g: target_col(key_of(g)),
            combine=lambda a, b: a,  # arbitrary aggregate (Appendix B.3)
            record_trees=True,
            kind=kind,
        )
        trees = router.trees
        assert trees is not None

        batch = net.config.batch_size(net.n)
        pending: list[BatchBuilder] = []
        for u, pairs in injections.items():
            ordered = sorted(pairs, key=lambda p: (repr(p[0]), p[1]))
            cols = shared.node_randbelow_many(u, (tag, "inject"), bf.columns, len(ordered))
            for j, ((g, member), col) in enumerate(zip(ordered, cols)):
                r = j // batch
                while len(pending) <= r:
                    pending.append(BatchBuilder(kind=kind))
                pending[r].add(u, col, ("J", col, g, member))
        for round_msgs in pending:
            inbox = net.exchange(round_msgs)
            for msgs in inbox.values():
                for _tag, col, g, member in payloads_of(msgs):
                    router.inject(col, g, member)
                    trees.add_leaf_member(g, col, member)
        barrier(net, bf)

        res = router.run()
        # Roots: ensure every group's root is set even if the group is a
        # singleton whose packet started at its root column.
        for g in res.results:
            trees.set_root(g, BFNode(bf.d, target_col(key_of(g))))
        barrier(net, bf)

    trees.setup_rounds = net.round_index - start  # type: ignore[attr-defined]
    return trees
