"""One worker substrate: persistent processes with crash requeue.

Both parallel axes of the reproduction run on this core.  The sweep
service (:class:`repro.api.pool.PersistentPool`) ships one sweep *row*
per task; the sharded engine (:class:`repro.ncc.sharded.workers.ShardPool`)
ships one shard *block* per task, every round.  The core owns everything
the two have in common:

* **spawn** — ``size`` daemonic workers (fork start method where
  available, so they inherit the warm interpreter) on per-worker duplex
  pipes, alive until :meth:`WorkerPool.close`;
* **the worker loop** — receive ``(gen, tid, key, payload)``, run the
  chaos check on ``key``, call the task kind's handler on ``payload``,
  reply ``(gen, tid, reply)``; ``None`` or a closed pipe shuts down;
* **dispatch** — :meth:`WorkerPool.run` fans tasks out and yields replies
  in completion order.  Each dispatch carries a generation tag, so the
  tail of an abandoned dispatch is dropped instead of served; results
  are read before sentinels, so a worker that answered and then exited
  still has its answer consumed;
* **crash requeue** — a worker that dies holding a task is reaped, the
  task goes back to a survivor, and one incident dict is recorded
  (``kind``, the task id under the kind's id field, ``exitcode``,
  ``requeued``, ``attempt``, ``workers_left``).  Only a death *while
  holding* the task counts against its budget of :data:`MAX_REQUEUES`
  requeues; a worker found dead at dispatch says nothing about the task;
* **exhaustion** — a task over budget, or every task left once no worker
  remains, goes to the kind's exhaustion policy: sweep rows raise
  ``WorkerCrashError``, shard blocks are bucketed in the parent;
* **shared memory** — parent-owned segments, unlinked on close with a
  ``weakref.finalize`` backstop.  Workers attach, copy or compute in
  place, and detach, so a worker dying at any point strands nothing.
  Workers share the parent's ``multiprocessing`` resource tracker (its
  fd travels through fork and spawn alike), where registration is a set:
  a worker attaching re-registers a name as a no-op.  Do NOT "fix" that
  with ``resource_tracker.unregister`` on the worker side — it would drop
  the *parent's* registration and crash the tracker on the parent's own
  unlink.  If the parent is SIGKILLed, the tracker unlinks the segments.

A task kind supplies the rest as a :class:`TaskKind`: its handler (worker
side), its wire format (the ``(tid, key, payload)`` tuples it builds and
the names its incidents carry), and its exhaustion policy (parent side).

Crash injection for the robustness tests: ``REPRO_CHAOS=<token>:<flagfile>``
SIGKILLs the worker that picks up a task whose chaos key starts with
``token`` (a spec's content hash for sweep rows, the decimal shard index
for shard blocks), exactly once across the pool — the flag file is
claimed with ``O_EXCL``.  An empty flagfile path (``<token>:``) kills
every worker that picks the task up, simulating a poisonous task.
Never set it outside tests.
"""

from __future__ import annotations

import os
import signal
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .errors import ConfigurationError
from .telemetry import tracer as _tracer
from .telemetry.metrics import Counter

#: times one task may be requeued after killing a worker before its kind's
#: exhaustion policy takes over (a deterministic worker-killer would
#: otherwise take the whole pool down one worker at a time).
MAX_REQUEUES = 2

#: test-only crash-injection hook (see the module docstring).
CHAOS_ENV = "REPRO_CHAOS"

_SHM_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` works on this host
    (importable and a segment can actually be created — containers with a
    masked /dev/shm fail the latter).  Probed once per process."""
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=8)
            seg.close()
            seg.unlink()
            _SHM_AVAILABLE = True
        except Exception:
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


@dataclass(frozen=True)
class TaskKind:
    """What one kind of task brings to the core.

    ``handler(*init_args)`` runs once in each worker and returns the
    callable applied to every task payload.  ``exhausted(tid, payload,
    why)`` runs in the parent for a task no worker can finish; it returns
    the reply in the worker's place or raises.  ``incident`` names the
    crash record and tracer event, ``id_field`` the record's task-id key,
    ``crashes`` the counter bumped per crash, and ``dispatch_event`` (if
    set) a tracer event emitted per dispatched task."""

    label: str
    handler: Callable[..., Callable[[Any], Any]]
    exhausted: Callable[[Any, Any, str], Any]
    incident: str
    id_field: str
    crashes: Counter
    dispatch_event: str | None = None


class Segment:
    """One parent-owned shared-memory segment; ``ref`` is whatever the
    task kind sends its workers to find and read it."""

    __slots__ = ("shm", "ref")

    def __init__(self, size: int):
        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True, size=max(8, size))
        self.ref: Any = None

    def unlink(self) -> None:
        try:
            self.shm.close()
            self.shm.unlink()
        except Exception:  # pragma: no cover - already gone
            pass


def _maybe_chaos_kill(key: str) -> None:
    """Crash-injection hook for the robustness tests (see the module
    docstring).  Never set outside tests."""
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return
    token, _, flag = raw.partition(":")
    if not token or not key.startswith(token):
        return
    if flag:
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return  # the one crash already happened; run normally
    os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(conn, handler, init_args) -> None:
    handle = handler(*init_args)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        gen, tid, key, payload = msg
        _maybe_chaos_kill(key)
        conn.send((gen, tid, handle(payload)))
    conn.close()


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


class WorkerPool:
    """``size`` long-lived workers for one task kind, plus the parent's
    shared-memory segments.  See the module docstring."""

    def __init__(self, kind: TaskKind, size: int, *init_args: Any):
        import multiprocessing as mp

        if size < 1:
            raise ConfigurationError(f"{kind.label} pool needs >= 1 worker, got {size}")
        if not shared_memory_available():
            raise ConfigurationError(
                f"the {kind.label} pool needs multiprocessing.shared_memory, "
                "which is unavailable on this host"
            )
        method = "fork" if "fork" in mp.get_all_start_methods() else None
        ctx = mp.get_context(method)
        self.kind = kind
        self.workers: dict[int, _Worker] = {}
        self.segments: dict[Any, Segment] = {}
        self._generation = 0
        for wid in range(size):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, kind.handler, init_args),
                daemon=True,
                name=f"repro-{kind.label}-worker-{wid}",
            )
            proc.start()
            child_conn.close()
            self.workers[wid] = _Worker(proc, parent_conn)
        # Backstop: unlink segments and reap workers even if the owner is
        # dropped without close() (incl. interpreter exit).
        self._finalizer = weakref.finalize(self, WorkerPool._cleanup, self.workers, self.segments)

    # ------------------------------------------------------------------
    def new_segment(self, key: Any, size: int) -> Segment:
        """Create a segment of at least ``size`` bytes under ``key``,
        unlinking the one it replaces."""
        old = self.segments.pop(key, None)
        if old is not None:
            old.unlink()
        seg = self.segments[key] = Segment(size)
        return seg

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Iterable[tuple[Any, str, Any]],
        on_incident: Callable[[dict[str, Any]], None] | None = None,
    ) -> Iterator[tuple[Any, Any]]:
        """Fan ``(tid, chaos key, payload)`` tasks out over the workers;
        yield ``(tid, reply)`` in completion order.  Worker deaths are
        survived as the module docstring describes; each incident goes to
        ``on_incident``.  Tasks no worker can finish yield the kind's
        exhaustion-policy reply instead (or propagate its exception)."""
        from multiprocessing.connection import wait as conn_wait

        kind = self.kind
        self._generation += 1
        gen = self._generation
        pending = deque(tasks)
        attempts: dict[Any, int] = {}
        inflight: dict[int, tuple] = {}  # wid -> task
        idle = list(self.workers)
        while pending or inflight:
            while pending and idle:
                wid = idle.pop()
                task = pending.popleft()
                try:
                    self.workers[wid].conn.send((gen, *task))
                except (BrokenPipeError, OSError):
                    # Death noticed at dispatch: requeue, uncharged.
                    pending.appendleft(task)
                    self._reap(wid, task, attempts, on_incident, charged=False)
                    continue
                if kind.dispatch_event is not None:
                    tr = _tracer.CURRENT
                    if tr is not None:
                        tr.event(
                            kind.dispatch_event,
                            **{kind.id_field: task[0]},
                            worker=wid,
                        )
                inflight[wid] = task
            if not self.workers:
                while pending:
                    tid, _key, payload = pending.popleft()
                    yield tid, kind.exhausted(tid, payload, "every worker died")
                return
            if not inflight:
                continue
            conns = {self.workers[w].conn: w for w in inflight}
            sentinels = {self.workers[w].proc.sentinel: w for w in self.workers}
            ready = conn_wait(list(conns) + list(sentinels))
            # Results first: a worker that answered and then exited must
            # still have its result consumed before the sentinel fires.
            for obj in ready:
                wid = conns.get(obj)
                if wid is None:
                    continue
                try:
                    msg_gen, tid, reply = obj.recv()
                except (EOFError, OSError):
                    continue  # died mid-send; the sentinel path requeues
                if msg_gen != gen:
                    # Tail of an abandoned dispatch; the worker is still
                    # busy with (or about to start) its current-gen task.
                    continue
                inflight.pop(wid, None)
                idle.append(wid)
                yield tid, reply
            for obj in ready:
                wid = sentinels.get(obj)
                if wid is None or wid not in self.workers:
                    continue
                task = inflight.pop(wid, None)
                if wid in idle:
                    idle.remove(wid)
                if self._reap(wid, task, attempts, on_incident):
                    tid, _key, payload = task
                    why = f"it crashed {attempts[tid]} workers in a row"
                    yield tid, kind.exhausted(tid, payload, why)
                elif task is not None:
                    pending.appendleft(task)

    def _reap(self, wid, task, attempts, on_incident, *, charged=True) -> bool:
        """Reap a dead worker and record the incident; ``task`` is what it
        held (``None`` if idle).  Returns True when a charged task just
        exhausted its requeue budget."""
        worker = self.workers.pop(wid, None)
        exitcode = None
        if worker is not None:
            worker.proc.join()
            exitcode = worker.proc.exitcode
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        tid = task[0] if task is not None else None
        over = False
        if task is not None and charged:
            attempts[tid] = attempts.get(tid, 0) + 1
            over = attempts[tid] > MAX_REQUEUES
        kind = self.kind
        incident = {
            "kind": kind.incident,
            kind.id_field: tid,
            "exitcode": exitcode,
            "requeued": task is not None and not over,
            "attempt": attempts.get(tid, 0) if task is not None else 0,
            "workers_left": len(self.workers),
        }
        kind.crashes.inc()
        tr = _tracer.CURRENT
        if tr is not None:
            tr.event(kind.incident, **incident)
        if on_incident is not None:
            on_incident(incident)
        return over

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return sum(1 for w in self.workers.values() if w.proc.is_alive())

    def close(self) -> None:
        """Shut workers down (politely, then terminate) and unlink every
        segment.  Idempotent."""
        self._finalizer.detach()
        WorkerPool._cleanup(self.workers, self.segments)

    @staticmethod
    def _cleanup(workers: dict[int, _Worker], segments: dict[Any, Segment]) -> None:
        for w in workers.values():
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for w in workers.values():
            w.proc.join(timeout=5)
            if w.proc.is_alive():  # pragma: no cover - stuck worker
                w.proc.terminate()
                w.proc.join(timeout=5)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover
                pass
        workers.clear()
        for seg in segments.values():
            seg.unlink()
        segments.clear()
