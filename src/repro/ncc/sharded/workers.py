"""Shard worker pool: one shm block shuffle per round on the worker core.

A front-end over :mod:`repro.workers` (the core the sweep service also
runs on), with one shard block per task:

* the bulk data — each block's ``(dst, src, flat, payload)`` request
  columns and its ``(span table, src_perm, pay_perm)`` reply — lives in a
  single parent-owned shared-memory segment per round, laid out at fixed
  per-block offsets; pipes carry only tiny descriptors and acks.  The
  segment is reused (grown geometrically) across rounds and unlinked by
  the core on close;
* workers are **stateless** — any worker can bucket any block — so a
  worker dying mid-round just has its block requeued to a survivor.  The
  exhaustion policy buckets a block in the parent through the very
  handler the workers run (:func:`_bucket_task`, over the same segment),
  so a sharded run *always* finishes, byte-identically, no matter how
  many workers die.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ...telemetry import tracer as _tracer
from ...telemetry.metrics import METRICS
from ...workers import TaskKind, WorkerPool
from .kernel import bucket_block

_SHM_GROWTHS = METRICS.counter("sharded.shm_growths")

#: per-array alignment inside the round segment (keeps every numpy view
#: aligned regardless of the payload dtype's itemsize).
_ALIGN = 16

_POOL = None


def get_pool(workers: int) -> "ShardPool":
    """The process-wide shard pool, created on first use and reused across
    engines and runs; recreated when the worker count changes or every
    worker of the previous pool has died."""
    global _POOL
    if _POOL is not None and (_POOL.workers != workers or not _POOL.alive_workers):
        _POOL.close()
        _POOL = None
    if _POOL is None:
        _POOL = ShardPool(workers)
    return _POOL


def close_pool() -> None:
    """Tear down the process-wide pool (tests; idempotent)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


# ----------------------------------------------------------------------
# Segment layout
# ----------------------------------------------------------------------
def _aligned(pos: int) -> int:
    return (pos + _ALIGN - 1) // _ALIGN * _ALIGN


def _block_offsets(counts, itemsize):
    """Byte offsets of every per-block array in the round segment.

    Per block of ``c`` messages: request columns ``dst``/``src``/``flat``
    (int64) and ``pay`` (payload dtype), then the reply region — a span
    table of four int64 arrays (``dsts``/``starts``/``ends``/``first``,
    each sized for the worst case of ``c`` distinct destinations) and the
    permuted ``src_perm``/``pay_perm`` columns.  Returns the per-block
    offset tuples and the total segment size."""
    offs = []
    pos = 0
    for c in counts:
        w = 8 * c
        o_dst = pos
        pos = _aligned(pos + w)
        o_src = pos
        pos = _aligned(pos + w)
        o_flat = pos
        pos = _aligned(pos + w)
        o_pay = pos
        pos = _aligned(pos + itemsize * c)
        o_spans = pos
        pos = _aligned(pos + 4 * w)
        o_rsrc = pos
        pos = _aligned(pos + w)
        o_rpay = pos
        pos = _aligned(pos + itemsize * c)
        offs.append((o_dst, o_src, o_flat, o_pay, o_spans, o_rsrc, o_rpay))
    return offs, max(pos, 8)


def _write_request(buf, offs, dst, src, flat, pay):
    c = len(dst)
    o_dst, o_src, o_flat, o_pay = offs[0], offs[1], offs[2], offs[3]
    np.frombuffer(buf, np.int64, c, o_dst)[:] = dst
    np.frombuffer(buf, np.int64, c, o_src)[:] = src
    np.frombuffer(buf, np.int64, c, o_flat)[:] = flat
    np.frombuffer(buf, pay.dtype, c, o_pay)[:] = pay


def _read_reply(buf, offs, count, dtype, d, max_recv):
    """Copy one block's reply out of the segment into parent-owned arrays
    (the segment is reused next round, so delivered spans must not alias
    it)."""
    o_spans, o_rsrc, o_rpay = offs[4], offs[5], offs[6]
    w = 8 * count
    return (
        np.frombuffer(buf, np.int64, d, o_spans).copy(),
        np.frombuffer(buf, np.int64, d, o_spans + w).copy(),
        np.frombuffer(buf, np.int64, d, o_spans + 2 * w).copy(),
        np.frombuffer(buf, np.int64, d, o_spans + 3 * w).copy(),
        np.frombuffer(buf, np.int64, count, o_rsrc).copy(),
        np.frombuffer(buf, dtype, count, o_rpay).copy(),
        max_recv,
    )


# ----------------------------------------------------------------------
# The shard-block task kind
# ----------------------------------------------------------------------
def _process_block(buf, offs, count, lo, dtype):
    """Bucket one block in place: read the request columns from the
    segment, run the kernel, write the reply back.  All views live only
    inside this frame so the caller can detach the segment afterwards."""
    o_dst, o_src, o_flat, o_pay, o_spans, o_rsrc, o_rpay = offs
    dst = np.frombuffer(buf, np.int64, count, o_dst)
    src = np.frombuffer(buf, np.int64, count, o_src)
    flat = np.frombuffer(buf, np.int64, count, o_flat)
    pay = np.frombuffer(buf, dtype, count, o_pay)
    dsts, starts, ends, first, src_perm, pay_perm, max_recv = bucket_block(
        dst, pay, src, flat, lo
    )
    d = len(dsts)
    w = 8 * count
    np.frombuffer(buf, np.int64, d, o_spans)[:] = dsts
    np.frombuffer(buf, np.int64, d, o_spans + w)[:] = starts
    np.frombuffer(buf, np.int64, d, o_spans + 2 * w)[:] = ends
    np.frombuffer(buf, np.int64, d, o_spans + 3 * w)[:] = first
    np.frombuffer(buf, np.int64, count, o_rsrc)[:] = src_perm
    np.frombuffer(buf, dtype, count, o_rpay)[:] = pay_perm
    return d, max_recv


def _bucket_task(task):
    """One block task ``(segment name, count, lo, dtype, offsets)``:
    attach the round segment, bucket the block in place, detach; replies
    ``(groups, max_recv)``."""
    from multiprocessing import shared_memory

    seg_name, count, lo, dtype, offs = task
    shm = shared_memory.SharedMemory(name=seg_name)
    try:
        return _process_block(shm.buf, offs, count, lo, dtype)
    finally:
        shm.close()


def _block_handler():
    """Shard workers are stateless: every one buckets every block alike."""
    return _bucket_task


def _bucket_in_parent(_block, task, _why):
    """Exhaustion policy: the parent buckets the block itself, through the
    handler the workers run, over the same segment."""
    return _bucket_task(task)


BLOCKS = TaskKind(
    label="shard",
    handler=_block_handler,
    exhausted=_bucket_in_parent,
    incident="shard-worker-crash",
    id_field="block",
    crashes=METRICS.counter("sharded.incidents"),
)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class ShardPool:
    """``workers`` long-lived shard processes plus one reusable round
    segment.  See the module docstring."""

    def __init__(self, workers: int):
        self.workers = workers
        self._core = WorkerPool(BLOCKS, workers)

    def _ensure_segment(self, nbytes: int):
        """The round segment, grown geometrically; at most one is live.
        Growth unlinks the old segment (no delivered span aliases it —
        replies are copied out before the round ends)."""
        seg = self._core.segments.get("round")
        if seg is not None and seg.shm.size >= nbytes:
            return seg
        previous = seg.shm.size if seg is not None else 0
        seg = self._core.new_segment("round", max(nbytes * 3 // 2, 1 << 16))
        _SHM_GROWTHS.inc()
        tr = _tracer.CURRENT
        if tr is not None:
            tr.event("shm-grow", size=seg.shm.size, previous=previous, requested=nbytes)
        return seg

    def shuffle(
        self,
        blocks,
        dtype,
        on_incident: Callable[[dict[str, Any]], None] | None = None,
    ):
        """One all-to-all block shuffle: fan ``blocks`` — ``(shard, lo,
        dst, src, flat, pay)`` tuples — out over the workers and return
        the per-block ``bucket_block`` results (parent-owned arrays), in
        block order.  Crashes requeue as the core describes (incidents via
        ``on_incident``); a block no worker can finish is bucketed in the
        parent, so this always returns a complete, byte-identical result
        set."""
        counts = [len(b[2]) for b in blocks]
        offs, total = _block_offsets(counts, dtype.itemsize)
        shm = self._ensure_segment(total).shm
        for block, off in zip(blocks, offs):
            _write_request(shm.buf, off, *block[2:])
        tasks = [
            (i, str(block[0]), (shm.name, counts[i], block[1], dtype, offs[i]))
            for i, block in enumerate(blocks)
        ]
        results: list[Any] = [None] * len(blocks)
        for i, (d, max_recv) in self._core.run(tasks, on_incident):
            results[i] = _read_reply(shm.buf, offs[i], counts[i], dtype, d, max_recv)
        return results

    @property
    def alive_workers(self) -> int:
        return self._core.alive_workers

    def close(self) -> None:
        """Shut workers down and unlink the round segment.  Idempotent."""
        self._core.close()
