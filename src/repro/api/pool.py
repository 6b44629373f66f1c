"""The persistent worker service behind parallel sweeps.

A front-end over the shared worker core (:mod:`repro.workers`), with one
sweep row per task:

* workers are spawned **once per** :class:`~repro.api.session.Session` and
  stay alive across ``run_many`` calls, each holding a warm worker-local
  session (butterfly grids, workload caches, imported modules);
* the parent publishes each distinct workload graph **once** into a
  ``multiprocessing.shared_memory`` segment (canonical edge/weight int64
  columns); workers attach by name and rebuild the graph through the
  trusted :meth:`InputGraph.from_canonical_arrays` fast path instead of
  receiving a pickled graph per job (`ButterflyGrid` topology is derived
  O(1) state — workers materialize it from ``n`` alone, nothing to ship);
* a worker dying mid-run has its row requeued to a survivor and the
  incident reported upward (the sweep manifest records it).  A row that
  exhausts the core's requeue budget, or a pool with no workers left,
  aborts the sweep with :class:`WorkerCrashError` instead of grinding the
  pool down.

Determinism is unchanged: a run is a pure function of its canonicalized
spec, workers return report dicts, and the session reorders completions
into spec order before anything observable happens — so jobs=1 and jobs=N
emit byte-identical JSONL (pinned in ``tests/test_session.py`` /
``tests/test_pool.py``).  Segment lifecycle and the resource-tracker
story live with the core; see docs/OPERATIONS.md for abnormal exits.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from ..ncc.graph_input import InputGraph
from ..telemetry import tracer as _tracer
from ..telemetry.metrics import METRICS, MetricRegistry
from ..telemetry.tracer import Tracer, install_tracer, uninstall_tracer
from ..workers import TaskKind, WorkerPool
from .schema import RunSpec

_POOL_PUBLISHES = METRICS.counter("pool.publishes")


class WorkerCrashError(RuntimeError):
    """A sweep could not complete because workers died unrecoverably:
    either every worker is gone, or one spec exhausted its requeue budget
    (it crashes whatever worker runs it)."""


# ----------------------------------------------------------------------
# Graph transport
# ----------------------------------------------------------------------
def pack_graph(g: InputGraph) -> tuple[dict[str, Any], "Any"]:
    """Flatten a validated graph into ``(meta, int64 column)`` for shared
    memory: ``2m`` edge endpoints (canonical sorted order) followed by
    ``m`` weights when the graph is weighted."""
    import numpy as np

    edges = g.edges()
    cols = [np.asarray(edges, dtype=np.int64).reshape(-1)]
    if g.is_weighted():
        cols.append(
            np.asarray([g.weight(u, v) for u, v in edges], dtype=np.int64)
        )
    flat = np.concatenate(cols) if cols[0].size or len(cols) > 1 else cols[0]
    meta = {"n": g.n, "m": g.m, "weighted": g.is_weighted(), "size": int(flat.size)}
    return meta, flat


def unpack_graph(meta: dict[str, Any], flat: "Any") -> InputGraph:
    """Inverse of :func:`pack_graph` via the trusted
    :meth:`InputGraph.from_canonical_arrays` fast path."""
    m = int(meta["m"])
    edges = flat[: 2 * m].reshape(m, 2)
    weights = flat[2 * m : 3 * m] if meta["weighted"] else None
    return InputGraph.from_canonical_arrays(int(meta["n"]), edges, weights)


def _attach_graph(ref: dict[str, Any]) -> InputGraph:
    """Worker side: attach the named segment, copy the columns out,
    detach, and rebuild the graph."""
    import numpy as np
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=ref["shm"])
    try:
        flat = np.frombuffer(
            shm.buf, dtype=np.int64, count=int(ref["size"])
        ).copy()
    finally:
        shm.close()
    return unpack_graph(ref, flat)


# ----------------------------------------------------------------------
# The sweep-row task kind
# ----------------------------------------------------------------------
class _RowWorker:
    """Worker-side state of a sweep worker: a warm worker-local Session
    plus the workload graphs attached so far.  Called once per row with
    ``(idx, spec_dict, wl_key, wl_ref, trace)``; returns the report dict.

    When ``trace`` is set the run executes under a fresh per-row tracer
    and its payload ships back piggybacked on the report dict under
    ``"__telemetry__"`` — a key :meth:`RunReport.from_dict` ignores by
    schema design and the session strips before the report is built, so
    the canonical surface never sees it."""

    def __init__(self, base_config, cache: bool):
        from .session import Session

        self.session = Session(base_config=base_config, cache=cache)
        self.attached: dict[str, InputGraph] = {}

    def __call__(self, task) -> dict:
        idx, spec_data, wl_key, wl_ref, trace = task
        session = self.session
        cache = session._cache_enabled
        if wl_key is not None and wl_ref is not None:
            g = self.attached.get(wl_ref["shm"])
            if g is None:
                g = _attach_graph(wl_ref)
                if cache:
                    self.attached[wl_ref["shm"]] = g
            session._workload_cache[wl_key] = g
        spec = RunSpec.from_dict(spec_data)
        payload = None
        if trace:
            counters_before = METRICS.snapshot()
            tracer = Tracer(label=f"row-{idx}", row=idx)
            previous = install_tracer(tracer)
            try:
                report = session.run(spec)
            finally:
                uninstall_tracer(previous)
            payload = tracer.to_payload()
            payload["counters"] = MetricRegistry.delta(counters_before, payload["counters"])
        else:
            report = session.run(spec)
        if not cache:
            session._workload_cache.clear()
        data = report.to_dict(timing=True)
        if payload is not None:
            data["__telemetry__"] = payload
        return data


def _abort_sweep(idx, _task, why: str):
    raise WorkerCrashError(f"sweep row {idx} cannot finish: {why}; aborting")


ROWS = TaskKind(
    label="sweep",
    handler=_RowWorker,
    exhausted=_abort_sweep,
    incident="worker-crash",
    id_field="row",
    crashes=METRICS.counter("pool.crashes"),
    dispatch_event="pool-dispatch",
)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class PersistentPool:
    """``jobs`` long-lived sweep workers with shared-memory workload
    handoff, reused for every dispatch until :meth:`close`.  See the
    module docstring."""

    def __init__(self, jobs: int, base_config=None, cache: bool = True):
        self.jobs = jobs
        self._core = WorkerPool(ROWS, jobs, base_config, cache)
        #: published workloads by session workload key
        self._segments = self._core.segments

    def publish_workload(
        self, key: Any, build: Callable[[], InputGraph]
    ) -> dict[str, Any]:
        """Publish the workload graph under ``key`` (the session
        workload-cache key), creating its shared-memory segment on first
        use — ``build`` is only called then; returns the attach reference
        workers receive with their tasks."""
        import numpy as np

        seg = self._segments.get(key)
        if seg is None:
            meta, flat = pack_graph(build())
            seg = self._core.new_segment(key, flat.nbytes)
            np.frombuffer(seg.shm.buf, dtype=np.int64, count=flat.size)[:] = flat
            seg.ref = {**meta, "shm": seg.shm.name}
            _POOL_PUBLISHES.inc()
            tr = _tracer.CURRENT
            if tr is not None:
                tr.event(
                    "pool-publish",
                    key=str(key),
                    nbytes=seg.shm.size,
                    segments=len(self._segments),
                )
        return seg.ref

    def run(
        self,
        items: Sequence[tuple[int, RunSpec, Any, dict | None]],
        *,
        on_incident: Callable[[dict[str, Any]], None] | None = None,
        trace: bool = False,
    ) -> Iterator[tuple[int, dict]]:
        """Fan ``items`` (``(idx, spec, wl_key, wl_ref)``) out over the
        workers; yield ``(idx, report_dict)`` in completion order.  With
        ``trace`` each worker runs its row under a fresh tracer and ships
        the payload back under the report dict's ``"__telemetry__"`` key.
        Crashes requeue as the core describes, each incident passed to
        ``on_incident``; raises :class:`WorkerCrashError` when a row
        cannot finish."""
        tasks = [
            (idx, spec.content_hash(), (idx, spec.to_dict(), key, ref, trace))
            for idx, spec, key, ref in items
        ]
        yield from self._core.run(tasks, on_incident)

    @property
    def alive_workers(self) -> int:
        return self._core.alive_workers

    def close(self) -> None:
        """Shut workers down and unlink every published segment.
        Idempotent."""
        self._core.close()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
