"""Random-rank routing on the emulated butterfly (Appendix B.2).

Two engines:

* :class:`CombiningRouter` — the *Combining Phase* of the Aggregation
  Algorithm: packets injected at level-0 nodes travel the unique butterfly
  path toward their group's target ``(d, h(group))``; packets of one group
  that meet at a butterfly node are merged with the distributive aggregate;
  when packets of different groups contend for one edge, the smallest
  ``(rank, group)`` wins and the rest are delayed (Theorem B.2's protocol).
  Optionally records the traversed edges per group — those edge sets *are*
  the multicast trees of Theorem 2.4.

* :class:`MulticastRouter` — the *Spreading Phase* of the Multicast
  Algorithm: packets start at tree roots on level ``d`` and flow toward
  level 0 along recorded tree edges, copied at branching nodes, with the
  same rank-based contention rule.

Termination is detected exactly as in the paper: once a node has forwarded
everything and received a token over each inbound edge it emits tokens on
its outbound edges; the run is complete when the far level holds all tokens.
With ``NCCConfig.extras['lightweight_sync'] = True`` the token wave is
charged as idle rounds instead of materializing token messages (identical
round counts, fewer simulated message objects — used by large benchmarks).

Straight butterfly edges connect nodes of one column and therefore stay
inside one NCC node: they elapse a butterfly round but send no NCC message.
Cross edges become real messages through :class:`~repro.ncc.network.NCCNetwork`,
submitted columnar per host via :class:`~repro.ncc.message.BatchBuilder`.
The combining router's typed kernel ships ``DATA_DTYPE`` columns whenever
its packets were injected typed (the aggregation flow decides that by the
instance's size); its object loop and the multicast router ship object
tuples.  Every form lists a round's senders in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Hashable

import numpy as _np

from ..errors import ProtocolError
from ..ncc.message import BatchBuilder, InboxBatch, gather_typed_spans
from ..ncc.network import NCCNetwork
from .topology import BFNode, ButterflyGrid

GroupT = Hashable  # must additionally be orderable; ints / tuples of ints

#: The wire dtype of routed data packets.  Field-for-field it sizes exactly
#: like the object path's ``("D", level, group, value)`` tuples (the 1-char
#: tag is a short string: 4 bits), so typed and object runs account
#: identical wire bits.
DATA_DTYPE = _np.dtype([("tag", "U1"), ("lvl", "i8"), ("g", "i8"), ("val", "i8")])


@dataclass
class TreeSet:
    """Multicast trees recorded by a combining run (Theorem 2.4).

    ``children[g][b]`` lists the level-(b.level − 1) nodes that node ``b``
    forwards group ``g``'s packets to during a multicast; ``root[g]`` is the
    level-d tree root ``(d, h(g))``; ``leaf_members[g][column]`` lists the
    group members whose packets were injected at level-0 ``column`` (their
    designated leaves ``l(g, u)``).
    """

    children: dict[GroupT, dict[BFNode, list[BFNode]]] = field(default_factory=dict)
    root: dict[GroupT, BFNode] = field(default_factory=dict)
    leaf_members: dict[GroupT, dict[int, list[int]]] = field(default_factory=dict)
    nodes_touched: dict[GroupT, set[BFNode]] = field(default_factory=dict)

    def add_edge(self, group: GroupT, parent: BFNode, child: BFNode) -> None:
        kids = self.children.setdefault(group, {}).setdefault(parent, [])
        if child not in kids:
            kids.append(child)
        touched = self.nodes_touched.setdefault(group, set())
        touched.add(parent)
        touched.add(child)

    def set_root(self, group: GroupT, root: BFNode) -> None:
        self.root[group] = root
        self.nodes_touched.setdefault(group, set()).add(root)

    def add_leaf_member(self, group: GroupT, column: int, member: int) -> None:
        self.leaf_members.setdefault(group, {}).setdefault(column, []).append(member)
        self.nodes_touched.setdefault(group, set()).add(BFNode(0, column))

    def congestion(self) -> int:
        """Max number of trees sharing one butterfly node (Theorem 2.4)."""
        load: dict[BFNode, int] = {}
        for touched in self.nodes_touched.values():
            for b in touched:
                load[b] = load.get(b, 0) + 1
        return max(load.values(), default=0)

    def groups(self) -> list[GroupT]:
        return list(self.root)

    def member_load(self) -> int:
        """ℓ = max members of one tree mapped to one leaf-serving node."""
        per_member: dict[int, int] = {}
        for leafmap in self.leaf_members.values():
            for members in leafmap.values():
                for u in members:
                    per_member[u] = per_member.get(u, 0) + 1
        return max(per_member.values(), default=0)


class RoutingResult:
    """Outcome of one routing run.

    ``results`` maps each group to its combined value.  The typed kernel
    hands back ``columns`` instead: int64 ``(groups, values, target
    columns)``, each group with the level-d column its result sits at; its
    ``results`` are boxed from them on first read.  A combining run lists
    its groups in ascending order either way.
    """

    __slots__ = ("rounds", "trees", "columns", "_results")

    def __init__(
        self,
        rounds: int,
        results: dict[GroupT, Any] | None = None,
        trees: TreeSet | None = None,
        *,
        columns: tuple[Any, Any, Any] | None = None,
    ):
        self.rounds = rounds
        self.trees = trees
        self.columns = columns
        self._results = results

    @property
    def results(self) -> dict[GroupT, Any]:
        if self._results is None:
            groups, values, _ = self.columns
            self._results = dict(zip(groups.tolist(), values.tolist(), strict=True))
        return self._results


def _lightweight(net: NCCNetwork) -> bool:
    return bool(net.config.extras.get("lightweight_sync", False))


def _by_group(results: dict[GroupT, Any]) -> dict[GroupT, Any]:
    """The object loop's results in ascending group order, the order the
    typed kernel returns them in, whatever order they arrived in."""
    return {g: results[g] for g in sorted(results)}


class CombiningRouter:
    """Downward (level 0 → level d) combining router.

    Parameters
    ----------
    rank_of:
        ``ρ(group)`` — the packet rank; same-group packets always share a
        rank, and contention prefers smaller ``(rank, group)``.
    target_col_of:
        ``h(group)`` — the column of the level-d intermediate target.
    combine:
        The distributive aggregate: merges two packet values of one group.
    ufunc:
        Optional numpy ufunc computing the same reduction as ``combine``
        over int64 columns.  With it, packets injected through
        :meth:`inject_array` route on the fully typed kernel
        (:meth:`_run_typed`): pending packets live in parallel
        ``(key, priority, value)`` int64 arrays, one packed-key argsort
        per round both collapses collisions (``reduceat``) and picks each
        edge's winner, and wire traffic is a structured-dtype column — a
        clean round touches no Python per packet.
    tables_of:
        Optional column form of ``rank_of`` and ``target_col_of`` for the
        typed kernel: given the run's distinct group ids (an ascending
        int64 column), their ranks and target columns as two int64
        columns.  The kernel calls it once per run; without it, it calls
        the per-group callables once per group.
    record_trees:
        Record traversed edges into a :class:`TreeSet` (Multicast Tree Setup).
    kind:
        Label stamped on the NCC messages (statistics only).
    """

    def __init__(
        self,
        net: NCCNetwork,
        bf: ButterflyGrid,
        *,
        rank_of: Callable[[GroupT], int],
        target_col_of: Callable[[GroupT], int],
        combine: Callable[[Any, Any], Any],
        ufunc: Any = None,
        tables_of: Callable[[Any], tuple[Any, Any]] | None = None,
        record_trees: bool = False,
        kind: str = "combining",
    ):
        self.net = net
        self.bf = bf
        self.rank_of = rank_of
        self.target_col_of = target_col_of
        self.tables_of = tables_of
        self.combine = combine
        self.ufunc = ufunc
        self.kind = kind
        self._token_kind = kind + ":token"
        self.trees = TreeSet() if record_trees else None
        self._queues: dict[BFNode, dict[GroupT, Any]] = {}
        self._typed_cols: tuple[list, list, list] | None = None
        self._ran = False

    # ------------------------------------------------------------------
    def inject(self, column: int, group: GroupT, value: Any) -> None:
        """Place a packet at level-0 node ``(0, column)`` (pre-run)."""
        if self._ran:
            raise ProtocolError("router already ran")
        if not 0 <= column < self.bf.columns:
            raise ValueError(f"column {column} outside [0,{self.bf.columns})")
        node = BFNode(0, column)
        q = self._queues.setdefault(node, {})
        if group in q:
            q[group] = self.combine(q[group], value)
        else:
            q[group] = value
        if self.trees is not None:
            self.trees.set_root(group, BFNode(self.bf.d, self.target_col_of(group)))
            self.trees.nodes_touched.setdefault(group, set()).add(node)

    def inject_array(self, columns: Any, groups: Any, values: Any) -> None:
        """Place typed packets at level-0 nodes (pre-run, column form).

        ``columns``/``groups``/``values`` are parallel int columns (int64
        groups and values).  Packets stay in arrays end-to-end when the
        typed kernel applies; otherwise they are boxed into the object
        queues at :meth:`run` — the object-fallback contract.  Only the
        order of one node's packets reaches either path (the kernel sorts
        by packed key, the object loop visits nodes sorted), so a caller
        may inject a delivered round whole, its receivers in any order.
        """
        if self._ran:
            raise ProtocolError("router already ran")
        carr = _np.asarray(columns, dtype=_np.int64)
        garr = _np.asarray(groups, dtype=_np.int64)
        varr = _np.asarray(values, dtype=_np.int64)
        if not (len(carr) == len(garr) == len(varr)):
            raise ValueError("inject_array requires parallel columns of equal length")
        if len(carr) == 0:
            return
        if int(carr.min()) < 0 or int(carr.max()) >= self.bf.columns:
            raise ValueError(
                f"column outside [0,{self.bf.columns}) in typed injection"
            )
        if self._typed_cols is None:
            self._typed_cols = ([carr], [garr], [varr])
        else:
            self._typed_cols[0].append(carr)
            self._typed_cols[1].append(garr)
            self._typed_cols[2].append(varr)

    def _box_typed_injections(self) -> None:
        """Replay the typed stash through :meth:`inject` (object fallback:
        tree recording, token-mode sync, no ufunc)."""
        stash = self._typed_cols
        self._typed_cols = None
        if stash is None:
            return
        for carr, garr, varr in zip(*stash):
            for c, g, v in zip(carr.tolist(), garr.tolist(), varr.tolist()):
                self.inject(c, g, v)

    # ------------------------------------------------------------------
    def run(self) -> RoutingResult:
        """Route everything; returns per-group combined values at targets,
        groups ascending whichever of the typed kernel and the object loop
        routes."""
        if self._ran:
            raise ProtocolError("router already ran")
        if self._typed_cols is not None:
            d = self.bf.d
            if (
                self.ufunc is not None
                and self.trees is None
                and d > 0
                and _lightweight(self.net)
                and not self._queues
                # The kernel's packed sort code must fit int64 (groups are
                # at most the injected packets; see _run_typed).
                and (2 * (d + 1) << d) * sum(map(len, self._typed_cols[0])) <= 1 << 63
            ):
                return self._run_typed()
            self._box_typed_injections()
        self._ran = True
        start_round = self.net.round_index
        results: dict[GroupT, Any] = {}
        bf, net = self.bf, self.net
        d = bf.d

        if d == 0:
            # Degenerate butterfly: level 0 == level d.
            for node, pend in self._queues.items():
                for g, v in pend.items():
                    results[g] = self.combine(results[g], v) if g in results else v
            self._queues.clear()
            return RoutingResult(net.round_index - start_round, _by_group(results), self.trees)

        lightweight = _lightweight(net)
        columns = bf.columns
        mask = columns - 1
        bottom = d << d  # key of (d, 0); level-d keys are >= bottom

        # Hot-state encoding: a butterfly node (level, column) becomes the
        # int key ``(level << d) | column`` so the per-packet loops hash
        # machine ints instead of NamedTuples and never allocate a BFNode.
        # The unique-path hop is pure arithmetic on the key: toward target
        # column t, the next hop fixes bit ``level`` of the column —
        # ``((key + columns) & ~bit) | (t & bit)`` — and the hop is local
        # (straight, same NCC host) iff ``t & bit == column & bit``.
        queues: dict[int, dict[GroupT, Any]] = {
            (node.level << d) | node.column: pend
            for node, pend in self._queues.items()
        }
        self._queues.clear()

        # Per-run cache: rank/target hashes are pure per group, and the
        # contention loop consults them once per pending packet per round —
        # ``ginfo[g] = (target_col, (rank, g))`` folds both lookups and the
        # contention tuple into one dict probe.
        ginfo: dict[GroupT, tuple[int, tuple[int, GroupT]]] = {}

        # Token state: number of tokens received over up-edges.  Level-0
        # nodes are born ready (injection finished before run()).
        tokens: dict[int, int] = {}
        token_sent: set[int] = set()
        # Nodes that may be ready to emit tokens; refilled by events.
        token_candidates: list[int] = (
            [] if lightweight else list(range(columns))  # level-0 keys
        )
        done_at_bottom = 0
        bottom_needed = columns  # every (d, col) must receive 2 tokens

        def node_ready(key: int) -> bool:
            if key >= bottom or key in token_sent:
                return False
            if key in queues:
                return False
            if key < columns:  # level 0
                return True
            return tokens.get(key, 0) >= 2

        def arrive_token(key: int) -> None:
            nonlocal done_at_bottom
            tokens[key] = tokens.get(key, 0) + 1
            if key >= bottom:
                if tokens[key] == 2:
                    done_at_bottom += 1
            elif tokens[key] >= 2 and node_ready(key):
                token_candidates.append(key)

        # Hot-loop locals: attribute loads once per run, not per packet.
        combine = self.combine
        trees = self.trees

        while True:
            # --- select token emissions (candidates from prior rounds;
            # a token never shares a round with the edge's last data) ---
            token_sends: list[int] = []
            if not lightweight:
                fresh = [key for key in token_candidates if node_ready(key)]
                token_candidates = []
                for key in fresh:
                    token_sent.add(key)
                    token_sends.append(key)

            # --- select one data packet per (node, edge) and emit it
            # straight into the round's builder / local list (one pass per
            # packet; straight edges stay in-column = in one NCC host) ---
            out = BatchBuilder(kind=self.kind)
            out_add = out.add
            local_data: list[tuple[int, GroupT, Any]] = []  # (dst key, g, val)
            local_tokens: list[int] = []
            sent_data = False
            # Nodes in ascending (column, level) order (level-major keys,
            # then a stable sort by column): the builder groups a round's
            # cross packets by sender in first-occurrence order, so they go
            # out by ascending sender, then level — the order the typed
            # kernel's add_arrays gives.  Typed and object runs then submit
            # identical rounds, violation ledgers included.
            for key in sorted(sorted(queues), key=mask.__and__):
                pend = queues[key]
                level = key >> d
                bit = 1 << level
                col = key & mask
                col_bit = col & bit
                lvl1 = level + 1
                base = (key + columns) & ~bit  # the bit-cleared down-hop
                sent_data = True
                if len(pend) == 1:
                    # Single pending group: it wins its edge unopposed.
                    g = next(iter(pend))
                    gi = ginfo.get(g)
                    if gi is None:
                        gi = ginfo[g] = (
                            self.target_col_of(g),
                            (self.rank_of(g), g),
                        )
                    tbit = gi[0] & bit
                    val = pend.pop(g)
                    if tbit == col_bit:
                        local_data.append((base | tbit, g, val))
                    else:
                        out_add(col, col ^ bit, ("D", lvl1, g, val))
                else:
                    best: dict[int, tuple[int, GroupT]] = {}
                    best_get = best.get
                    for g in pend:
                        gi = ginfo.get(g)
                        if gi is None:
                            gi = ginfo[g] = (
                                self.target_col_of(g),
                                (self.rank_of(g), g),
                            )
                        nxt = base | (gi[0] & bit)
                        cand = gi[1]
                        cur = best_get(nxt)
                        if cur is None or cand < cur:
                            best[nxt] = cand
                    for nxt, (_, g) in best.items():
                        val = pend.pop(g)
                        ncol = nxt & mask
                        if ncol == col:
                            local_data.append((nxt, g, val))
                        else:
                            out_add(col, ncol, ("D", lvl1, g, val))
                if not pend:
                    del queues[key]
                    if not lightweight and node_ready(key):
                        token_candidates.append(key)

            if not sent_data and not token_sends:
                if lightweight:
                    if not queues:
                        break
                    raise ProtocolError("combining router deadlocked")
                if done_at_bottom >= bottom_needed:
                    break
                raise ProtocolError("combining router deadlocked (tokens)")

            for key in token_sends:
                level = key >> d
                col = key & mask
                local_tokens.append(key + columns)  # straight down-neighbour
                out.add(
                    col,
                    col ^ (1 << level),
                    ("T", level + 1),
                    kind=self._token_kind,
                )

            inboxes = net.exchange(out)

            # --- apply arrivals (inlined: this runs once per packet) ---
            for dst_key, g, val in local_data:
                if trees is not None:
                    # A local hop is a straight edge: the source sits one
                    # level up in the same column.
                    lvl = dst_key >> d
                    c = dst_key & mask
                    trees.add_edge(g, BFNode(lvl, c), BFNode(lvl - 1, c))
                if dst_key >= bottom:
                    results[g] = combine(results[g], val) if g in results else val
                else:
                    q = queues.get(dst_key)
                    if q is None:
                        queues[dst_key] = q = {}
                    q[g] = combine(q[g], val) if g in q else val
            for dst_key in local_tokens:
                arrive_token(dst_key)
            # Column read: the payloads are all the routing logic needs, so
            # a clean batched round stays free of Message objects here
            # (payloads_of, inlined — this is the hottest loop in the repo).
            for host, received in inboxes.items():
                payloads = (
                    received.payloads()  # reprolint: disable=NCC002 — token rounds are tiny and mixed-type
                    if type(received) is InboxBatch
                    else [m.payload for m in received]
                )
                for payload in payloads:
                    if payload[0] == "D":
                        _, lvl, g, val = payload
                        if trees is not None:
                            # Reconstruct the source from edge structure:
                            # the cross up-neighbour of (lvl, host) is
                            # (lvl-1, host^bit).
                            trees.add_edge(
                                g,
                                BFNode(lvl, host),
                                BFNode(lvl - 1, host ^ (1 << (lvl - 1))),
                            )
                        if lvl == d:
                            results[g] = (
                                combine(results[g], val) if g in results else val
                            )
                        else:
                            dst_key = (lvl << d) | host
                            q = queues.get(dst_key)
                            if q is None:
                                queues[dst_key] = q = {}
                            q[g] = combine(q[g], val) if g in q else val
                    else:
                        arrive_token((payload[1] << d) | host)

        if lightweight:
            # Token wave duration: one hop per level.
            net.idle_rounds(d + 1)

        return RoutingResult(net.round_index - start_round, _by_group(results), self.trees)

    def _run_typed(self) -> RoutingResult:
        """Array-resident combining kernel (lightweight sync, no trees).

        Observably equivalent to the object loop of :meth:`run`: each round
        the same per-edge winners cross the same edges as the same
        ``DATA_DTYPE`` messages (sized like the ``("D", ...)`` tuples), in
        the same submission order (ascending sender, then level).

        Once per run the K groups get their rank and target tables, from
        ``tables_of`` in one call or from one call per group, and are
        ranked by ``(rank, group)`` into a dense priority ``p``, which
        packets carry instead of the group id.
        Each round is then one ``argsort`` of the int64 code
        ``((key << 1) | cross) * K + p``: equal codes are the same-group
        packets at one node, collapsed by ``reduceat``, and the first
        packet of each ``(key << 1) | cross`` run wins that edge.  Arrived
        packets stay in the arrays at their level-d target, where the same
        collapse folds each group's result; keys stay below
        ``(d + 1) << d``, so :meth:`run` admits the kernel only if
        ``(2·(d + 1) << d)·K`` fits int64, with K bounded by the injected
        packet count.  The default (unstable) argsort is safe: codes tie
        only between packets of one group at one node, and the exact,
        commutative int64 ufuncs reduce them alike in any order.  Only
        network arrivals map their wire group id back to ``p``: through a
        dense id-to-priority table when the ids span at most as many values
        as packets were injected (the table is then no larger than the
        packet columns), else by binary search over the sorted ids.  A
        clean batched round runs no Python per packet or per host; the
        reference engine's rounds are lowered host by host.  The results
        come back as columns (see :class:`RoutingResult`), not boxed.
        """
        self._ran = True
        np = _np
        net, bf = self.net, self.bf
        d = bf.d
        start_round = net.round_index
        columns = bf.columns
        mask = columns - 1
        bottom = d << d
        ufunc = self.ufunc
        # Level-0 keys are the columns themselves ((0 << d) | column).
        key, g, v = (np.concatenate(cols) for cols in self._typed_cols)
        self._typed_cols = None

        # Group tables: rank/target are pure per group, so they are computed
        # once per distinct group for the whole run, never per packet.
        uniq, gi = np.unique(g, return_inverse=True)
        k_groups = len(uniq)
        if self.tables_of is not None:
            rank_by, tcol_by = self.tables_of(uniq)
        else:
            glist = uniq.tolist()
            rank_by = np.fromiter(map(self.rank_of, glist), np.int64, k_groups)
            tcol_by = np.fromiter(map(self.target_col_of, glist), np.int64, k_groups)
        by_p = np.lexsort((uniq, rank_by))
        p_of = by_p.argsort()  # the inverse permutation: group index -> p
        g_by_p = uniq.take(by_p)
        tcol_by_p = tcol_by.take(by_p)
        p = p_of.take(gi)

        # Arrivals map their wire group id back to p through a dense table
        # when the ids span no more values than packets were injected.
        lo = uniq[0]
        span = int(uniq[-1]) - int(lo) + 1
        p_by_id = None
        if span <= len(key):
            p_by_id = np.empty(span, dtype=np.int64)
            p_by_id[uniq - lo] = p_of

        while True:
            # --- one packed sort: by node, then edge, then priority ---
            # The hop crosses iff the target column differs at the bit of
            # the packet's level (uniform, and unused, for packets already
            # at level d).
            cross = ((tcol_by_p.take(p) ^ key) >> (key >> d)) & 1
            code = ((key << 1) | cross) * k_groups + p
            order = code.argsort()
            code = code.take(order)
            v = v.take(order)
            # Per-packet temporaries are dropped as soon as they are used:
            # held through the round's exchange, they set the run's memory
            # peak.
            del cross, order
            # --- collapse same-group packets at one node ---
            seg = np.empty(len(code), dtype=bool)
            seg[0] = True
            np.not_equal(code[1:], code[:-1], out=seg[1:])
            if not seg.all():
                starts = np.flatnonzero(seg)
                v = ufunc.reduceat(v, starts)
                code = code.take(starts)
            edge, p = np.divmod(code, k_groups)
            del code
            key = edge >> 1
            live = int(key.searchsorted(bottom))  # packets not yet at level d
            if not live:
                break
            # --- the first packet of each (node, edge) run wins the edge ---
            edge = edge[:live]
            win = np.empty(live, dtype=bool)
            win[0] = True
            np.not_equal(edge[1:], edge[:-1], out=win[1:])
            crossing = (edge & 1).astype(bool)
            del edge

            # --- emit cross winners as one typed submission ---
            out = BatchBuilder(kind=self.kind, dtype=DATA_DTYPE)
            cw = np.flatnonzero(win & crossing)
            if len(cw):
                ck = key.take(cw)
                lvl = ck >> d
                col = ck & mask
                payload = np.empty(len(cw), dtype=DATA_DTYPE)
                payload["tag"] = "D"
                payload["lvl"] = lvl + 1
                payload["g"] = g_by_p.take(p.take(cw))
                payload["val"] = v.take(cw)
                out.add_arrays(col, col ^ (1 << lvl), payload)
            inboxes = net.exchange(out)

            # --- straight winners move down their column, cross winners
            # left over the network, everything else waits in place ---
            live_keys = key[:live]
            np.add(live_keys, columns, out=live_keys, where=win & ~crossing)
            keep = np.ones(len(key), dtype=bool)
            keep[cw] = False
            kept = np.flatnonzero(keep)
            key, p, v = key.take(kept), p.take(kept), v.take(kept)
            del live_keys, keep, kept

            # --- apply network arrivals ---
            gathered = gather_typed_spans(inboxes)
            if gathered is None and inboxes:
                # Reference engine (or a degraded round): lower the
                # per-host inboxes to the same two columns.
                hosts, arrs = [], []
                for host, received in inboxes.items():
                    arr = (
                        received.payload_array()
                        if type(received) is InboxBatch
                        else None
                    )
                    if arr is None:
                        arr = np.array(
                            received.payloads()  # reprolint: disable=NCC002 — degraded-round fallback path
                            if isinstance(received, InboxBatch)
                            else [m.payload for m in received],
                            dtype=DATA_DTYPE,
                        )
                    hosts.append(host)
                    arrs.append(arr)
                gathered = (
                    np.repeat(hosts, [len(a) for a in arrs]),
                    np.concatenate(arrs),
                )
            if gathered is not None:
                ahost, arr = gathered
                key = np.concatenate((key, (arr["lvl"] << d) | ahost))
                ids = arr["g"]
                if p_by_id is not None:
                    arrived = p_by_id.take(ids - lo)
                else:
                    arrived = p_of.take(uniq.searchsorted(ids))
                p = np.concatenate((p, arrived))
                v = np.concatenate((v, arr["val"]))

        # Token wave duration (lightweight sync): one hop per level.
        net.idle_rounds(d + 1)

        # Every surviving packet has arrived and folded into one per group,
        # so ``p`` lists each priority at most once.  Under DROP a group
        # whose packets were all dropped is missing, as in the object loop.
        gidx = by_p.take(p)
        o = gidx.argsort()
        gidx = gidx.take(o)
        return RoutingResult(
            net.round_index - start_round,
            columns=(uniq.take(gidx), v.take(o), tcol_by.take(gidx)),
        )


class MulticastRouter:
    """Upward (level d → level 0) copying router over recorded trees."""

    def __init__(
        self,
        net: NCCNetwork,
        bf: ButterflyGrid,
        trees: TreeSet,
        *,
        rank_of: Callable[[GroupT], int],
        kind: str = "multicast",
    ):
        self.net = net
        self.bf = bf
        self.trees = trees
        self.rank_of = rank_of
        self.kind = kind
        self._token_kind = kind + ":token"

    def run(self, root_packets: dict[GroupT, Any]) -> RoutingResult:
        """Spread each group's packet from its tree root to all tree leaves.

        Returns ``results[column] = {group: value}`` for every level-0
        column that is a leaf of some group's tree; the caller maps leaves
        to group members (the paper's ``l(i, u) → u`` delivery).

        Every round ships object tuples: ``("D", level, group, value)``
        data packets and ``("T", level)`` tokens.  A round's cross packets
        are stable-sorted by source column, so its senders are ascending
        and each sender's packets keep their queue order; that fixes the
        submitted round, and with it the violation-ledger order, the DROP
        draws and the first-arrival order of the delivered inboxes.
        """
        net, bf = self.net, self.bf
        d = bf.d
        start_round = net.round_index
        leaf_payloads: dict[int, dict[GroupT, Any]] = {}
        out_queues: dict[tuple[BFNode, BFNode], dict[GroupT, Any]] = {}
        pending_nodes: dict[BFNode, int] = {}  # node -> # nonempty out-edges

        def process_arrival(node: BFNode, g: GroupT, val: Any) -> None:
            if node.level == 0 and g in self.trees.leaf_members and (
                node.column in self.trees.leaf_members[g]
            ):
                leaf_payloads.setdefault(node.column, {})[g] = val
            for child in self.trees.children.get(g, {}).get(node, ()):  # copies
                edge = (node, child)
                q = out_queues.get(edge)
                if q is None:
                    q = out_queues[edge] = {}
                    pending_nodes[node] = pending_nodes.get(node, 0) + 1
                q[g] = val

        for g, val in root_packets.items():
            root = self.trees.root.get(g)
            if root is None:
                raise ProtocolError(f"no multicast tree for group {g!r}")
            process_arrival(root, g, val)

        if d == 0:
            return RoutingResult(
                net.round_index - start_round,
                {c: dict(m) for c, m in leaf_payloads.items()},
            )

        lightweight = _lightweight(net)
        # Contention key (rank, group) per group, cached across rounds: the
        # per-edge minimum consults it once per queued packet per round.
        cand_cache: dict[GroupT, tuple[int, GroupT]] = {}

        def cand_of(g: GroupT) -> tuple[int, GroupT]:
            c = cand_cache.get(g)
            if c is None:
                c = cand_cache[g] = (self.rank_of(g), g)
            return c

        tokens: dict[BFNode, int] = {}
        token_sent: set[BFNode] = set()
        token_candidates: list[BFNode] = (
            [] if lightweight else [BFNode(d, c) for c in range(bf.columns)]
        )
        done_at_top = 0
        top_needed = bf.columns

        def node_ready(node: BFNode) -> bool:
            if node.level <= 0 or node in token_sent:
                return False
            if pending_nodes.get(node, 0) > 0:
                return False
            if node.level == d:
                return True
            return tokens.get(node, 0) >= 2

        while True:
            token_sends: list[BFNode] = []
            if not lightweight:
                fresh = [nd for nd in token_candidates if node_ready(nd)]
                token_candidates = []
                for node in fresh:
                    token_sent.add(node)
                    token_sends.append(node)

            sends: list[tuple[BFNode, BFNode, GroupT, Any]] = []
            for edge in list(out_queues):
                q = out_queues[edge]
                g = min(q, key=cand_of) if len(q) > 1 else next(iter(q))
                val = q.pop(g)
                sends.append((edge[0], edge[1], g, val))
                if not q:
                    del out_queues[edge]
                    node = edge[0]
                    pending_nodes[node] -= 1
                    if pending_nodes[node] == 0:
                        del pending_nodes[node]
                        if not lightweight and node_ready(node):
                            token_candidates.append(node)

            if not sends and not token_sends:
                if lightweight:
                    if not out_queues:
                        break
                    raise ProtocolError("multicast router deadlocked")
                if done_at_top >= top_needed:
                    break
                raise ProtocolError("multicast router deadlocked (tokens)")

            local_data: list[tuple[BFNode, GroupT, Any]] = []
            local_tokens: list[BFNode] = []
            cross_sends: list[tuple[int, int, int, GroupT, Any]] = []
            for src, dst, g, val in sends:
                if src.column == dst.column:
                    local_data.append((dst, g, val))
                else:
                    cross_sends.append(
                        (src.column, dst.column, dst.level, g, val)
                    )
            # Ascending senders, each keeping its queue order: this sort
            # fixes the submitted round (see the docstring).
            cross_sends.sort(key=itemgetter(0))  # by source column
            out = BatchBuilder(kind=self.kind)
            out_add = out.add
            for scol, dcol, lvl, g, val in cross_sends:
                out_add(scol, dcol, ("D", lvl, g, val))
            for node in token_sends:
                straight, cross = bf.up_neighbors(node)
                local_tokens.append(straight)
                out.add(
                    bf.host(node),
                    bf.host(cross),
                    ("T", cross.level),
                    kind=self._token_kind,
                )

            inboxes = net.exchange(out)

            def arrive_token(dst: BFNode) -> None:
                nonlocal done_at_top
                tokens[dst] = tokens.get(dst, 0) + 1
                if dst.level == 0:
                    if tokens[dst] == 2:
                        done_at_top += 1
                elif tokens[dst] >= 2 and node_ready(dst):
                    token_candidates.append(dst)

            for dst, g, val in local_data:
                process_arrival(dst, g, val)
            for dst in local_tokens:
                arrive_token(dst)
            for host, received in inboxes.items():
                payloads = (
                    received.payloads()  # reprolint: disable=NCC002 — every multicast round ships object tuples, token rounds included
                    if type(received) is InboxBatch
                    else [m.payload for m in received]
                )
                for payload in payloads:
                    if payload[0] == "D":
                        _, lvl, g, val = payload
                        process_arrival(BFNode(lvl, host), g, val)
                    else:
                        arrive_token(BFNode(payload[1], host))

        if lightweight:
            net.idle_rounds(d + 1)

        return RoutingResult(
            net.round_index - start_round,
            {c: dict(m) for c, m in leaf_payloads.items()},
        )
