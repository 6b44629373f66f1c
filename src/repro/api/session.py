"""The :class:`Session`: run :class:`~repro.api.schema.RunSpec` scenarios,
serially or fanned out over worker processes.

A session owns the cross-run caches — the per-``n``
:class:`~repro.butterfly.topology.ButterflyGrid` (immutable topology, one
instance per size) and the workload graphs (keyed by algorithm, size,
arboricity, seed, and workload options) — so a 3-algorithms × 4-sizes ×
5-seeds sweep builds each instance once instead of once per run.

``run_many(specs, jobs=N)`` fans the specs out over the persistent worker
service in :mod:`repro.api.pool`: workers spawn once per session, stay
warm across ``run_many`` calls, receive specs over per-worker pipes, and
read workload graphs from shared-memory segments the parent publishes
once per distinct workload.  Worker crashes are survived (in-flight specs
requeue; incidents land in the manifest when one is attached).  A host
without ``multiprocessing.shared_memory`` runs the sweep serially instead
and says so with a ``pool-degraded`` tracer event.

Every run is a pure function of its canonicalized spec — the engine and
enforcement are resolved *before* dispatch, so a worker cannot drift from
the parent's process-wide defaults — which makes the resulting JSONL
byte-identical for any ``jobs`` value; regression tests pin this.
``run_many`` optionally journals to a resumable
:class:`~repro.api.manifest.Manifest` and persists each row to an
append-only :class:`~repro.api.store.ResultStore` the moment it completes,
in spec order, so interrupted sweeps resume without recomputing (and the
resumed store is byte-identical to an uninterrupted one).
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Callable, Iterable, Sequence

from ..config import Enforcement, NCCConfig, default_engine
from ..errors import ConfigurationError
from ..registry import bench_config, get_algorithm
from ..telemetry import tracer as _tracer
from ..telemetry.metrics import METRICS, MetricRegistry
from ..telemetry.tracer import Tracer, install_tracer, uninstall_tracer
from .. import workers
from .manifest import Manifest
from .schema import RunReport, RunSpec
from .store import ResultStore


def _known_option_keys(alg) -> tuple[set[str], bool]:
    """Option names an algorithm accepts: its declared workload options
    plus the run callable's keyword parameters (everything after the fixed
    ``(rt, g)`` positionals).  Returns ``(keys, accepts_any)``;
    ``accepts_any`` is set when the run callable takes ``**kwargs`` (or
    cannot be inspected), in which case no key can be rejected."""
    keys = set(alg.workload_options)
    if alg.run is None:
        return keys, False
    try:
        sig = inspect.signature(alg.run)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return keys, True
    for p in list(sig.parameters.values())[2:]:
        if p.kind is inspect.Parameter.VAR_KEYWORD:
            return keys, True
        if p.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            keys.add(p.name)
    return keys, False


class Session:
    """A programmatic experiment driver over the algorithm registry.

    Parameters
    ----------
    base_config:
        Template :class:`NCCConfig` applied to every run (seeded per spec).
        Defaults to the benchmark profile
        (:func:`repro.registry.bench_config`: COUNT enforcement,
        lightweight sync) — the same profile the legacy row runners used.
    cache:
        Keep per-``n`` butterfly grids and workload graphs alive across
        :meth:`run` calls (on by default; disable to bound memory on huge
        sweeps — workers and shared-memory segments are then released
        after each ``run_many``).

    Guarantees
    ----------
    * Reports (and their canonical JSONL) are a pure function of the
      canonicalized spec: identical for ``jobs=1`` and ``jobs=N``, any
      host — pinned by ``tests/test_session.py`` / ``tests/test_pool.py``.
    * A session holding a persistent pool releases its workers and
      shared-memory segments on :meth:`close` (also a context manager; a
      finalizer backstops abnormal exits).

    Failure modes
    -------------
    :class:`ConfigurationError` for unknown algorithms/scenarios/options;
    :class:`~repro.api.pool.WorkerCrashError` when a parallel sweep loses
    every worker or one spec keeps killing workers (after
    :data:`~repro.workers.MAX_REQUEUES` requeues).
    """

    def __init__(
        self,
        *,
        base_config: NCCConfig | None = None,
        cache: bool = True,
    ):
        self.base_config = base_config
        self._cache_enabled = cache
        self._pool: Any = None  # lazily-spawned PersistentPool
        self._bf_cache: dict[int, Any] = {}
        self._workload_cache: dict[tuple, Any] = {}
        #: engine incident journal of the most recent :meth:`run` (e.g.
        #: shard-worker crashes the run survived) — kept off the report,
        #: which is part of the byte-identical canonical surface.
        self.last_incidents: list[dict] = []
        #: pool/engine incidents of the most recent :meth:`run_many`.
        self.last_sweep_incidents: list[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent worker pool (if one was spawned) and
        unlink its shared-memory segments.  Idempotent; the session stays
        usable (a new pool spawns on the next parallel ``run_many``)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Canonicalization and per-spec config
    # ------------------------------------------------------------------
    def canonical(self, spec: RunSpec) -> RunSpec:
        """Resolve aliases and defaults so the spec reruns verbatim anywhere:
        canonical algorithm name, canonical scenario name (validated against
        the algorithm's requirements), explicit engine and enforcement."""
        alg = get_algorithm(spec.algorithm)
        scenario = spec.scenario
        if scenario is not None:
            from ..scenarios import check_compatible, get_scenario

            scn = get_scenario(scenario)
            check_compatible(alg, scn)
            if "family" in dict(spec.extras):
                raise ConfigurationError(
                    f"RunSpec for {alg.name!r} sets both scenario="
                    f"{scn.name!r} and the legacy extras['family'] option; "
                    "the family option is a deprecated alias of scenario — "
                    "drop it"
                )
            scenario = scn.name
        # A typo'd option used to fall through silently: _workload forwards
        # only keys in workload_options, so e.g. extras={"familly": "grid"}
        # ran the *default* workload without complaint.  Reject anything
        # neither the workload builder nor the run callable accepts.
        known, accepts_any = _known_option_keys(alg)
        if not accepts_any:
            unknown = [k for k in dict(spec.extras) if k not in known]
            if unknown:
                raise ConfigurationError(
                    f"unknown option(s) {', '.join(sorted(unknown))} for "
                    f"algorithm {alg.name!r}; known options: "
                    f"{', '.join(sorted(known)) if known else '(none)'}"
                )
        cfg = self.base_config if self.base_config is not None else bench_config(0)
        engine = spec.engine or cfg.engine or default_engine()
        if spec.shards is not None:
            # A shard count implies the sharded engine; an explicit
            # different engine is a contradiction, not a silent override.
            if spec.engine in (None, "", "sharded"):
                engine = "sharded"
            else:
                raise ConfigurationError(
                    f"RunSpec sets shards={spec.shards} but engine="
                    f"{spec.engine!r}; shards only applies to the "
                    "'sharded' engine"
                )
        return spec.with_(
            algorithm=alg.name,
            scenario=scenario,
            engine=engine,
            enforcement=spec.enforcement or cfg.enforcement.value,
        )

    def config_for(self, spec: RunSpec) -> NCCConfig:
        cfg = (
            self.base_config.with_(seed=spec.seed)
            if self.base_config is not None
            else bench_config(spec.seed)
        )
        if spec.engine:
            cfg = cfg.with_(engine=spec.engine)
        if spec.enforcement:
            cfg = cfg.with_(enforcement=Enforcement(spec.enforcement))
        if spec.shards is not None:
            cfg = cfg.with_(shards=spec.shards)
        return cfg

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def _butterfly(self, n: int):
        from ..butterfly.topology import ButterflyGrid

        bf = self._bf_cache.get(n)
        if bf is None:
            bf = ButterflyGrid(n)
            if self._cache_enabled:
                self._bf_cache[n] = bf
        return bf

    def workload_key(self, spec: RunSpec) -> tuple:
        """The workload-cache key of a canonicalized spec — also the
        shared-memory publication key of the persistent pool (parent and
        workers must agree on it, so it lives here, once)."""
        alg = get_algorithm(spec.algorithm)
        if spec.scenario is not None:
            # Scenario workloads are algorithm-independent, but the key
            # keeps the algorithm so per-algorithm eviction stays possible.
            return (alg.name, spec.scenario, spec.n, spec.a, spec.seed)
        options = {k: v for k, v in spec.extras if k in alg.workload_options}
        return (alg.name, spec.n, spec.a, spec.seed, tuple(sorted(options.items())))

    def _workload(self, alg, spec: RunSpec):
        key = self.workload_key(spec)
        g = self._workload_cache.get(key)
        if g is None:
            if spec.scenario is not None:
                from ..scenarios import get_scenario

                g = get_scenario(spec.scenario).build(spec.n, spec.a, spec.seed)
            else:
                options = {
                    k: v for k, v in spec.extras if k in alg.workload_options
                }
                g = alg.workload(spec.n, spec.a, spec.seed, **options)
            if self._cache_enabled:
                self._workload_cache[key] = g
        return g

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> RunReport:
        """Execute one spec and return its report."""
        spec = self.canonical(spec)
        alg = get_algorithm(spec.algorithm)
        g = self._workload(alg, spec)
        a_label = spec.a
        if spec.scenario is not None:
            from ..scenarios import get_scenario

            scn = get_scenario(spec.scenario)
            # Rows label `a` with the scenario's declared bound (e.g. 3
            # for the grid family) rather than the sweep knob, which only
            # parameterizes a-controlled families.  Without a declared
            # bound the knob is meaningless too — the trivial `n` bound
            # makes the describers fall back to the greedy estimate
            # instead of understating `a` as the knob value.
            a_label = (
                scn.effective_a(spec.n, spec.a)
                if scn.arboricity is not None
                else spec.n
            )
        t0 = time.perf_counter()
        ex = alg.execute(
            spec.n,
            a=a_label,
            seed=spec.seed,
            config=self.config_for(spec),
            graph=g,
            bf=self._butterfly(g.n),
            **spec.options,
        )
        wall = time.perf_counter() - t0
        rt = ex.runtime
        # Surface the engine's incident journal (shard-worker crashes the
        # run survived): sidecar state only — the report stays canonical.
        self.last_incidents = list(getattr(rt.net.engine, "incidents", ()) or ())
        report = RunReport(
            spec=spec,
            row=ex.row,
            engine=rt.config.resolve_engine(),
            correct=bool(ex.row.get("correct", False)),
            rounds=rt.net.round_index,
            messages=rt.net.stats.messages,
            bits=rt.net.stats.bits,
            stats=rt.net.stats.to_dict(),
            wall_time_s=wall,
        )
        tr = _tracer.CURRENT
        if tr is not None:
            tr.add_span(
                "run",
                t0,
                t0 + wall,
                algorithm=spec.algorithm,
                n=spec.n,
                a=spec.a,
                seed=spec.seed,
                engine=report.engine,
                scenario=spec.scenario or "",
                shards=spec.shards,
                rounds=report.rounds,
                messages=report.messages,
                bits=report.bits,
                incidents=len(self.last_incidents),
            )
        return report

    def run_many(
        self,
        specs: Iterable[RunSpec],
        *,
        jobs: int = 1,
        out: str | None = None,
        progress: Callable[[RunReport], None] | None = None,
        store: "ResultStore | str | None" = None,
        manifest: "Manifest | str | None" = None,
        shards: int = 1,
        max_rows: int | None = None,
        telemetry: Any = None,
    ) -> list[RunReport]:
        """Execute specs (in order); optionally journal, persist, resume.

        Parameters
        ----------
        jobs:
            Worker processes; ``1`` runs serially in this process, and
            so does any ``jobs`` on a host without shared memory.
        out:
            Flat canonical-JSONL path written *after* the sweep completes
            (``"-"`` = stdout).  Independent of ``store``.
        progress:
            Called once per completed row, in spec order, after the row is
            durable in the store (when one is attached).
        store:
            :class:`~repro.api.store.ResultStore` (or directory path) that
            receives each report the moment its row completes — append
            only, in spec order, flushed per line.  ``shards`` sets the
            partition count when the directory is created (an existing
            store's count wins).
        manifest:
            :class:`~repro.api.manifest.Manifest` (or path) journaling the
            grid.  Requires ``store`` (resume serves completed rows from
            it).  If the manifest already exists it must journal the same
            grid, and its completed prefix is *skipped*: those reports are
            loaded from the store instead of recomputed.
        max_rows:
            Process at most this many rows this invocation and return
            (the manifest stays resumable) — chunked draining of very
            large grids.
        telemetry:
            Optional :class:`~repro.telemetry.sweep.SweepTelemetry`: every
            row runs under a fresh tracer (in-process for serial rows,
            inside the worker for pooled rows — payloads ship back over
            the result pipes) and pool-level events land on its parent
            tracer.  Purely a sidecar: reports, stores, and JSONL stay
            byte-identical with or without it.  Call ``finalize()`` on it
            afterwards to write the merged trace directory.

        Returns the full in-order report list (resumed prefix included).
        Byte-determinism: the same grid yields identical ``out`` bytes and
        identical store-shard bytes for any ``jobs``/interrupt-resume
        history.
        """
        spec_list = [self.canonical(s) for s in specs]
        if manifest is not None and store is None:
            raise ConfigurationError(
                "run_many(manifest=...) requires store=...: resume serves "
                "completed rows from the result store"
            )
        store_obj = (
            ResultStore.open_or_create(store, shards)
            if isinstance(store, str)
            else store
        )
        mani = (
            Manifest.open(
                manifest,
                spec_list,
                store=getattr(store_obj, "root", None),
                shards=getattr(store_obj, "shards", shards),
            )
            if isinstance(manifest, str)
            else manifest
        )

        skip = mani.done_rows if mani is not None else 0
        prior: list[RunReport] = []
        if skip:
            by_hash = store_obj.reports_by_hash()
            try:
                prior = [by_hash[s.content_hash()] for s in spec_list[:skip]]
            except KeyError as exc:
                raise ConfigurationError(
                    f"manifest {mani.path!r} marks rows done that the "
                    f"store {store_obj.root!r} does not hold ({exc}); "
                    "store and manifest are out of sync"
                ) from exc
        todo = spec_list[skip:]
        if max_rows is not None:
            todo = todo[: max(0, max_rows)]

        reports = list(prior)

        def emit(i: int, r: RunReport) -> None:
            # In-order, store-first: a row is only journaled done once its
            # report is durable, so a kill between the two recomputes the
            # row instead of losing it.
            if store_obj is not None:
                store_obj.append(r)
            if mani is not None:
                mani.mark_done(skip + i, todo[i])
            if progress is not None:
                progress(r)
            reports.append(r)

        self.last_sweep_incidents = []
        if jobs > 1 and len(todo) > 1 and not workers.shared_memory_available():
            # No pool without shared memory: run serially, observably
            # (the sweep twin of the sharded engine's degradation).
            tr = telemetry.tracer if telemetry is not None else _tracer.CURRENT
            if tr is not None:
                tr.event("pool-degraded", reason="no-shared-memory", jobs=jobs)
            jobs = 1
        if jobs <= 1 or len(todo) <= 1:
            for i, s in enumerate(todo):
                if telemetry is None:
                    report = self.run(s)
                else:
                    report = self._run_traced_row(i, s, telemetry)
                if self.last_incidents:
                    self.last_sweep_incidents.extend(self.last_incidents)
                emit(i, report)
        else:
            self._run_persistent(todo, jobs, emit, mani, telemetry)
        if out is not None:
            from .schema import dump_reports

            dump_reports(reports, out)
        return reports

    def _persistent_pool(self, jobs: int):
        """The session's long-lived pool of ``jobs`` workers, respawned
        only when ``jobs`` changes (not with the size of each sweep)."""
        from .pool import PersistentPool

        if self._pool is not None and self._pool.jobs != jobs:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = PersistentPool(
                jobs, base_config=self.base_config, cache=self._cache_enabled
            )
        return self._pool

    def _run_traced_row(self, i: int, spec: RunSpec, telemetry: Any) -> RunReport:
        """One serial sweep row under a fresh tracer; the payload (with
        counter deltas for just this row) lands on the collector."""
        counters_before = METRICS.snapshot()
        tracer = Tracer(label=f"row-{i}", row=i)
        previous = install_tracer(tracer)
        try:
            report = self.run(spec)
        finally:
            uninstall_tracer(previous)
        payload = tracer.to_payload()
        payload["counters"] = MetricRegistry.delta(
            counters_before, payload["counters"]
        )
        telemetry.add_row(i, payload)
        return report

    def _run_persistent(
        self,
        todo: Sequence[RunSpec],
        jobs: int,
        emit: Callable[[int, RunReport], None],
        mani: "Manifest | None",
        telemetry: Any = None,
    ) -> None:
        # The collector's parent tracer is installed for the whole
        # dispatch so pool-level events (publish/dispatch/crash) are
        # captured alongside the per-row worker traces.
        previous = (
            install_tracer(telemetry.tracer) if telemetry is not None else None
        )
        try:
            pool = self._persistent_pool(jobs)
            items = []
            for i, s in enumerate(todo):
                key = self.workload_key(s)
                ref = pool.publish_workload(
                    key,
                    lambda s=s: self._workload(get_algorithm(s.algorithm), s),
                )
                items.append((i, s, key, ref))

            def on_incident(incident: dict) -> None:
                self.last_sweep_incidents.append(incident)
                if mani is not None:
                    mani.record_incident(incident)

            # Completions arrive in any order (and reruns after a crash);
            # re-serialize into spec order so every downstream observer —
            # store, manifest, progress, JSONL — sees a deterministic stream.
            buffered: dict[int, RunReport] = {}
            next_i = 0
            try:
                for i, data in pool.run(
                    items,
                    on_incident=on_incident,
                    trace=telemetry is not None,
                ):
                    payload = data.pop("__telemetry__", None)
                    if telemetry is not None:
                        telemetry.add_row(i, payload)
                    buffered[i] = RunReport.from_dict(data)
                    while next_i in buffered:
                        emit(next_i, buffered.pop(next_i))
                        next_i += 1
            finally:
                if not self._cache_enabled:
                    self.close()
        finally:
            if telemetry is not None:
                uninstall_tracer(previous)


def _dedup_axis(values: Sequence[Any]) -> list[Any]:
    """Order-preserving axis dedupe: a repeated axis value (``--ns 64,64``)
    must not multiply the grid — every duplicate row would rerun and
    re-emit an identical JSONL record."""
    seen: set[Any] = set()
    out: list[Any] = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def sweep_grid(
    algorithms: Sequence[str],
    ns: Sequence[int],
    *,
    a: int = 2,
    seeds: Sequence[int] = (0,),
    engines: Sequence[str | None] = (None,),
    enforcement: str | None = None,
    extras: dict[str, Any] | None = None,
    scenarios: Sequence[str | None] = (None,),
    engine_shards: int | None = None,
) -> list[RunSpec]:
    """The cartesian spec grid, in deterministic algorithm-major order
    (scenario varies directly inside the algorithm axis, i.e. it is the
    second-slowest-moving axis; engine is the fastest).  Each axis is
    deduplicated preserving first-occurrence order.  ``engine_shards``
    (a scalar, not an axis — shard count never changes a row's bytes)
    applies to every spec and implies the sharded engine."""
    return [
        RunSpec(
            algorithm=alg,
            n=n,
            a=a,
            seed=seed,
            engine=engine,
            enforcement=enforcement,
            extras=extras or (),
            scenario=scenario,
            shards=engine_shards,
        )
        for alg in _dedup_axis(algorithms)
        for scenario in _dedup_axis(scenarios)
        for n in _dedup_axis(ns)
        for seed in _dedup_axis(seeds)
        for engine in _dedup_axis(engines)
    ]


def matrix_grid(
    algorithms: Sequence[str],
    scenarios: Sequence[str],
    *,
    n: int,
    a: int = 2,
    seed: int = 0,
    engine: str | None = None,
    enforcement: str | None = None,
) -> tuple[list[RunSpec], list[tuple[str, str]]]:
    """The algorithm×scenario grid at one ``(n, a, seed)`` point.

    Incompatible pairs (an algorithm requirement the scenario cannot
    provide) are *skipped*, not errors — a matrix sweep is exactly the
    place where some cells are undefined.  Returns
    ``(specs, skipped_pairs)``; ``skipped_pairs`` is the deterministic
    list of ``(algorithm, scenario)`` cells left out.
    """
    from ..scenarios import get_scenario, is_compatible

    specs: list[RunSpec] = []
    skipped: list[tuple[str, str]] = []
    for alg_name in algorithms:
        alg = get_algorithm(alg_name)
        for scenario_name in scenarios:
            scn = get_scenario(scenario_name)
            if not is_compatible(alg, scn):
                skipped.append((alg.name, scn.name))
                continue
            specs.append(
                RunSpec(
                    algorithm=alg.name,
                    n=n,
                    a=a,
                    seed=seed,
                    engine=engine,
                    enforcement=enforcement,
                    scenario=scn.name,
                )
            )
    return specs, skipped
