"""Sharded round engine: one network instance, nodes across processes.

:class:`ShardedEngine` is the :class:`~repro.ncc.batched.BatchedEngine`
with its one O(messages) clean-round hot spot — the typed columnar
delivery — distributed across a persistent worker pool.  Node ids are
partitioned into ``k`` contiguous shards (``shard_of(d) = d*k//n``); per
round the parent splits the typed ``(src, dst, payload)`` columns into
per-destination-shard blocks, ships them through one shared-memory block
shuffle (:meth:`~repro.ncc.sharded.workers.ShardPool.shuffle`), and
concatenates the returned per-block CSR tables into the delivered
:class:`~repro.ncc.message.RoundInbox`.  A clean typed sharded round
constructs zero ``Message`` objects, same as single-process.

Byte-identity with the batched engine (the engine-parity invariant,
pinned differentially in ``tests/test_engine_parity.py`` and
``tests/test_sharded.py``) holds by construction, for every ``shards``
value:

* within a destination, all messages live in one block (shards partition
  destinations) in round flat order — inbox-internal order is untouched;
* blocks own ascending destination ranges, so their columns concatenated
  in block order are the single-process columns, receivers ascending;
* across destinations, the key order is recovered by sorting all
  blocks' groups on ``first`` (each group's global flat index), exactly
  the ``argsort(order[starts])`` arrival key of the single-process path;
* all statistics are the same aggregates (``max_recv`` is the max of the
  block maxima), and every anomaly — malformed input, send/bits/receive
  violations, DROP sampling — takes the *inherited* canonical walks of
  :class:`~repro.ncc.engine.RoundEngine`, never re-derived semantics.

Everything else — small rounds, object-payload rounds, mixed-kind
rounds, daemonic processes (a ``Session`` sweep worker cannot spawn
children), hosts without shared memory, or a pool whose workers all died
— simply inherits the batched behavior, so the engine degrades to
single-process without changing a byte of output.
"""

from __future__ import annotations

import numpy as _np

from ...telemetry import tracer as _tracer
from ...telemetry.metrics import METRICS
from ..batched import BatchedEngine
from ..engine import register_engine
from ..message import RoundInbox

_DEGRADATIONS = METRICS.counter("sharded.degradations")

#: below this many messages in a clean typed round the block split + IPC
#: round trip costs more than the single-process argsort, so the round
#: inherits the batched delivery (identical observables either way).
SHARD_ROUND_CUTOFF = 32768

#: ``NCCConfig.extras`` key overriding :data:`SHARD_ROUND_CUTOFF` — the
#: determinism tests force it to 1 so tiny grids exercise the full
#: distributed path.
CUTOFF_EXTRA = "shard_cutoff"


def _auto_shards() -> int:
    """Default shard count when ``NCCConfig.shards`` is 0: leave one core
    for the parent (it runs the split/merge and everything non-delivery),
    capped at 8 — the block shuffle is memory-bandwidth bound well before
    that at the n = 10^6 target scale."""
    import os

    return max(1, min(8, (os.cpu_count() or 1) - 1))


class ShardedEngine(BatchedEngine):
    """Batched engine with worker-pool delivery; observably identical."""

    name = "sharded"

    def __init__(self, net):
        super().__init__(net)
        cfg = net.config
        self.shards = max(1, min(int(cfg.shards) or _auto_shards(), net.n))
        self._cutoff = int(cfg.extras.get(CUTOFF_EXTRA, SHARD_ROUND_CUTOFF))
        #: shard-worker crash records for this engine's lifetime (the
        #: sharded analogue of the sweep manifest's incident journal).
        #: Kept off ``NetworkStats`` deliberately: stats are part of the
        #: byte-identical observable surface, crash recovery is not.
        self.incidents: list[dict] = []
        self._pool = None
        self._disabled = False
        #: why the engine fell back to single-process batched delivery
        #: (``None`` while fully sharded) — surfaced as the telemetry
        #: ``sharded-degraded`` event's ``reason`` field.
        self._disabled_reason: str | None = None

    def _degrade(self, reason: str) -> None:
        """Fall back to single-process delivery, keeping the reason
        observable (today's silent inheritance was satellite work of the
        telemetry issue: degradation must carry *why*)."""
        if self._disabled:
            return
        self._disabled = True
        self._disabled_reason = reason
        _DEGRADATIONS.inc()
        tr = _tracer.CURRENT
        if tr is not None:
            tr.event("sharded-degraded", reason=reason, shards=self.shards)

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        """The shard pool, created lazily on the first qualifying round.
        Environments that cannot host worker processes disable the engine
        (it then inherits single-process batched behavior wholesale)."""
        if self._pool is not None:
            return self._pool
        import multiprocessing

        from ...workers import shared_memory_available

        if multiprocessing.current_process().daemon:
            self._degrade("daemonic-process")
            return None
        if not shared_memory_available():
            self._degrade("no-shared-memory")
            return None
        from . import workers

        self._pool = workers.get_pool(self.shards)
        return self._pool

    # ------------------------------------------------------------------
    def _deliver_deferred_np(self, senders, kcols, counts, m_count, dst, pay_l):
        """Distribute the clean typed delivery; inherit everything else.

        The one typed call site, ``run_builder``'s whole-round columns,
        lands here with the destination column already bounds-checked and
        the send watermark committed, so the only remaining work is
        bucketing + delivery — exactly the part that shards.  Object
        rounds (``pay_l`` a list) always inherit the batched delivery."""
        if (
            self._disabled
            or m_count < self._cutoff
            or type(pay_l) is list
        ):
            return super()._deliver_deferred_np(
                senders, kcols, counts, m_count, dst, pay_l
            )
        kind = self._round_kind_scalar(kcols)
        if kind is None:  # mixed-kind rounds keep the single-process path
            return super()._deliver_deferred_np(
                senders, kcols, counts, m_count, dst, pay_l
            )
        pool = self._ensure_pool()
        if pool is None:
            return super()._deliver_deferred_np(
                senders, kcols, counts, m_count, dst, pay_l
            )
        return self._deliver_sharded(pool, senders, kind, counts, m_count, dst, pay_l)

    def _deliver_sharded(self, pool, senders, kind, counts, m_count, dst, pay):
        """One all-to-all block shuffle, then the byte-identical merge."""
        net = self.net
        stats = net.stats
        n = net.n
        k = self.shards
        src_flat = _np.repeat(_np.asarray(senders, _np.int64), counts)

        # Split the round's flat columns by destination shard.  The stable
        # argsort keeps each block in round flat order, and the selection
        # indices double as the blocks' global flat-index columns (the
        # merge key the workers thread through their span tables).
        shard_col = dst * k // n
        order_sh = _np.argsort(shard_col, kind="stable")
        per_shard = _np.bincount(shard_col, minlength=k)
        sh_ends = _np.cumsum(per_shard)
        blocks = []
        for i in _np.flatnonzero(per_shard).tolist():
            sel = order_sh[sh_ends[i] - per_shard[i] : sh_ends[i]]
            lo = (i * n + k - 1) // k  # first node id shard i owns
            blocks.append(
                (i, lo, dst.take(sel), src_flat.take(sel), sel, pay.take(sel))
            )

        tr = _tracer.CURRENT
        if tr is None:
            results = pool.shuffle(blocks, pay.dtype, self.incidents.append)
        else:
            t0 = tr.now()
            results = pool.shuffle(blocks, pay.dtype, self.incidents.append)
            tr.add_span(
                "shard-shuffle",
                t0,
                tr.now(),
                blocks=len(blocks),
                messages=m_count,
                shards=k,
                round=net._round,
            )
        if pool.alive_workers == 0:
            # Every worker died: later rounds inherit the in-process
            # batched delivery instead of paying the split for nothing.
            self._degrade("all-workers-dead")

        # Merge: blocks own ascending host ranges, so concatenating their
        # columns in block order is the single-process CSR round, each
        # block's span ends shifted by the messages of the blocks before
        # it; sorting the groups on the global flat index of their first
        # message recovers the first-arrival key order (distinct keys, so
        # the sort is a permutation).
        dsts, _starts, ends, firsts, srcs, pays, max_recvs = zip(*results)
        shift = _np.cumsum([0, *map(len, srcs)])
        delivered = RoundInbox(
            _np.concatenate(dsts),
            _np.concatenate([shift[:1], *map(_np.add, ends, shift)]),
            _np.concatenate(srcs),
            _np.concatenate(pays),
            kind,
            _np.argsort(_np.concatenate(firsts), kind="stable"),
        )
        max_recv = max(max_recvs)
        if max_recv <= net.capacity:
            if max_recv > stats.max_received_per_round:
                stats.max_received_per_round = max_recv
            return delivered
        # Overloaded receivers: the inherited canonical receive walk keeps
        # ledger order and DROP rng draws byte-identical.
        return self._recv_walk(delivered)


register_engine(ShardedEngine.name, ShardedEngine)
