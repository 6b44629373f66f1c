"""Columnar fast-path round engine.

The reference engine pays several Python-level operations per message
(node-id checks, src consistency, ``sized()`` calls, dict bucketing).  At
the n >= 1024 scales of the ROADMAP targets that per-object walk dominates
simulation wall time.  This engine runs a builder round straight off the
columns :class:`~repro.ncc.message.BatchBuilder` records, replacing the
per-message work with bucketed operations:

* id validation — C-level min/max over the sender and destination columns;
* send capacity — a max over the per-sender group sizes;
* message-size budget and bit accounting — the bits sum/max the builder
  tracked while accumulating;
* receive bucketing — one stable argsort over the ``dst`` column, the
  round delivered as one :class:`~repro.ncc.message.RoundInbox`: the
  permuted columns in CSR form behind a read-only mapping whose keys run
  in first-arrival order and whose per-receiver
  :class:`~repro.ncc.message.InboxBatch` views are cut on demand.  Below
  :data:`SMALL_ROUND_CUTOFF` messages an object round is bucketed in one
  plain-Python pass into a plain dict of views instead.

:meth:`BatchedEngine.run_builder` is the engine's one column entry point.
It reads an object builder's per-sender lists, and a typed builder's
finalized whole-round columns (senders range-checked by min/max), so a
clean round constructs **zero** ``Message`` objects end-to-end at any
round size, and a clean typed round creates no per-sender Python object
at all.

Every other submission — plain ``list[Message]`` groups, mappings of them
(a ``BatchBuilder.batches()`` mapping included), re-sent delivered
inboxes — and a builder round with *any* anomaly take the canonical walks
of :class:`~repro.ncc.engine.RoundEngine` through :meth:`run_round`, which
keeps the violation-ledger order, STRICT raise points, and DROP-mode rng
draws byte-for-byte identical to the reference engine — the invariant
``tests/test_engine_parity.py`` certifies.  (For lazy groups the walk
materializes the messages, which is exactly what the reference engine
observes.)  Receive-side overloads (the model-faithful DROP scenario) keep
the bucketed delivery and only walk per-inbox, not per-message.
"""

from __future__ import annotations

from typing import Mapping

import numpy as _np

from .engine import RoundEngine, RoundResult, register_engine

# SMALL_ROUND_CUTOFF is defined next to the typed-wire rule that shares it:
# object rounds below it are bucketed in Python
# (:meth:`BatchedEngine._deliver_deferred_py`; same observables, still zero
# ``Message`` construction), and producers that can choose ship typed
# columns only from it up, so every small round takes that pass.
from .message import SMALL_ROUND_CUTOFF, BatchBuilder, InboxBatch, Message, RoundInbox


class BatchedEngine(RoundEngine):
    """Vectorized round engine; observably identical to the reference."""

    name = "batched"

    def run_round(self, per_sender: Mapping[int, list[Message]]) -> RoundResult:
        """Mappings and flat lists take the canonical walks.  The empty
        round — every idle round — returns before setting any up."""
        if not per_sender:
            return {}, 0, 0
        return super().run_round(per_sender)

    def run_builder(self, builder: BatchBuilder) -> RoundResult:
        """Execute a round straight off a builder's raw columns — no
        per-sender batch objects on the clean path (a typed builder
        delivers from its finalized whole-round columns).  An anomalous
        round cuts ``builder.batches()`` and walks it through
        :meth:`run_round` (identical observables by construction)."""
        if not builder:
            builder._spent = True
            return {}, 0, 0
        net = self.net
        n = net.n
        if builder._dtype is not None:
            senders, counts, dst, pay, _bits = builder._typed_round()
            max_sent = int(counts.max())
            if (
                0 <= int(senders.min())
                and int(senders.max()) < n
                and max_sent <= net.capacity
                and builder._bits_max <= net.message_bits
                and 0 <= int(dst.min())
                and int(dst.max()) < n
            ):
                stats = net.stats
                if max_sent > stats.max_sent_per_round:
                    stats.max_sent_per_round = max_sent
                delivered = self._deliver_deferred_np(
                    senders, [builder.kind], counts, len(dst), dst, pay
                )
                builder._spent = True
                return delivered, len(dst), builder._bits_sum
            return self.run_round(builder.batches())
        senders: list[int] = []
        counts: list[int] = []
        dcols: list[list[int]] = []
        pcols: list[list] = []
        kcols: list = []
        m_count = 0
        max_sent = 0
        ok = True
        for s, cols in builder._groups.items():
            if not 0 <= s < n:
                ok = False
                break
            dsts = cols[0]
            c = len(dsts)
            senders.append(s)
            counts.append(c)
            dcols.append(dsts)
            pcols.append(cols[1])
            kcols.append(cols[3])
            m_count += c
            if c > max_sent:
                max_sent = c
        if not ok or max_sent > net.capacity or builder._bits_max > net.message_bits:
            return self.run_round(builder.batches())
        delivered = self._deliver_deferred(
            senders, counts, m_count, max_sent, dcols, pcols, kcols
        )
        if delivered is None:  # bad/over-wide destination ids
            return self.run_round(builder.batches())
        builder._spent = True
        return delivered, m_count, builder._bits_sum

    def _deliver_deferred(self, senders, counts, m_count, max_sent, dcols, pcols, kcols):
        """Clean-path tail of an object builder round: bounds-check the
        destination lists, commit the send watermark, and deliver.
        Returns ``None`` — with no statistic touched — when a destination
        id is out of range or too wide for an int64 column, so the caller
        replays the canonical walks and raises the reference errors."""
        net = self.net
        stats = net.stats
        n = net.n
        if m_count >= SMALL_ROUND_CUTOFF:
            dst_l: list[int] = []
            pay_l: list = []
            for i, dsts in enumerate(dcols):
                dst_l += dsts
                pay_l += pcols[i]
            try:
                dst = _np.fromiter(dst_l, _np.int64, m_count)
            except (OverflowError, TypeError, ValueError):
                # An id beyond int64 cannot be columnar; the walks raise
                # the canonical out-of-range error.
                return None
            if int(dst.min()) < 0 or int(dst.max()) >= n:
                return None
            if max_sent > stats.max_sent_per_round:
                stats.max_sent_per_round = max_sent
            return self._deliver_deferred_np(
                senders, kcols, counts, m_count, dst, pay_l
            )
        for dsts in dcols:
            if min(dsts) < 0 or max(dsts) >= n:
                return None
        if max_sent > stats.max_sent_per_round:
            stats.max_sent_per_round = max_sent
        return self._deliver_deferred_py(senders, dcols, pcols, kcols)

    @staticmethod
    def _round_kind_scalar(kcols):
        """The single kind tag shared by every message of the round, or
        ``None`` when tags are mixed (token traffic etc.).  ``kcols`` holds
        one kind column (scalar str or per-message list) per group."""
        k0 = kcols[0]
        if type(k0) is not str:
            return None
        for k in kcols:
            if k != k0:  # a list column never equals a str
                return None
        return k0

    def _deliver_deferred_np(self, senders, kcols, counts, m_count, dst, pay_l):
        """Argsort-bucketed delivery of the round's columns: one
        :class:`RoundInbox` over the permuted (src, payload, kind) columns
        — no object column, no ``Message``, no per-receiver object.  The
        src column stays an int64 array (boxed lazily on access) and the
        bits column is dropped entirely — sizes are re-derived on demand,
        which delivered inboxes almost never need."""
        net = self.net
        stats = net.stats
        per_dst = _np.bincount(dst)
        dsts_present = _np.flatnonzero(per_dst)
        group_counts = per_dst[dsts_present]
        order = _np.argsort(dst, kind="stable")
        offsets = _np.zeros(len(group_counts) + 1, dtype=_np.int64)
        _np.cumsum(group_counts, out=offsets[1:])
        max_recv = int(group_counts.max())
        arrival = _np.argsort(order.take(offsets[:-1]), kind="stable")

        if type(pay_l) is list:
            pay_perm = (
                _np.fromiter(pay_l, dtype=object, count=m_count).take(order).tolist()
            )
        else:
            # Typed round: the permuted payload column stays an ndarray and
            # the delivered spans are typed — nothing is boxed here.
            pay_perm = pay_l.take(order)
        src_perm = _np.repeat(_np.asarray(senders, _np.int64), counts).take(order)
        kind_perm = self._round_kind_scalar(kcols)
        if kind_perm is None:
            kinds_l: list[str] = []
            for i, k in enumerate(kcols):
                kinds_l += k if type(k) is list else [k] * counts[i]
            kind_perm = (
                _np.fromiter(kinds_l, dtype=object, count=m_count).take(order).tolist()
            )

        delivered = RoundInbox(
            dsts_present, offsets, src_perm, pay_perm, kind_perm, arrival
        )
        if max_recv <= net.capacity:
            if max_recv > stats.max_received_per_round:
                stats.max_received_per_round = max_recv
            return delivered
        # Overloaded receivers: the canonical receive walk reads the round
        # as a mapping and keeps ledger order and DROP rng draws identical
        # (sampling an InboxBatch draws the same indices a list would; only
        # then are messages built).
        return self._recv_walk(delivered)

    def _deliver_deferred_py(self, senders, dcols, pcols, kcols):
        """Plain-Python columnar bucketing for small object rounds: one
        pass over the columns into per-destination column lists — still
        zero ``Message`` construction.  (Like the numpy path, the bits
        column is dropped; sizes re-derive on demand.)"""
        net = self.net
        stats = net.stats
        kind_scalar = self._round_kind_scalar(kcols)
        boxes: dict[int, tuple[list[int], list, list[str]]] = {}
        for j, s in enumerate(senders):
            pays = pcols[j]
            kinds = kcols[j]
            klist = kinds if type(kinds) is list else None
            for i, d in enumerate(dcols[j]):
                b = boxes.get(d)
                if b is None:
                    boxes[d] = b = ([], [], [])
                b[0].append(s)
                b[1].append(pays[i])
                if kind_scalar is None:
                    b[2].append(kinds if klist is None else klist[i])
        over = InboxBatch._over
        delivered: dict[int, InboxBatch] = {}
        max_recv = 0
        for d, (srcs, pays, kinds) in boxes.items():
            c = len(pays)
            if c > max_recv:
                max_recv = c
            delivered[d] = over(
                srcs, d, pays, None,
                kind_scalar if kind_scalar is not None else kinds,
                0, c,
            )
        if max_recv <= net.capacity:
            if max_recv > stats.max_received_per_round:
                stats.max_received_per_round = max_recv
            return delivered
        return self._recv_walk(delivered)


register_engine(BatchedEngine.name, BatchedEngine)
