"""repro.api — the unified experiment API.

Three layers, one import::

    from repro.api import RunSpec, Session

    session = Session()
    report = session.run(RunSpec("mst", n=64, seed=3))
    print(report.rounds, report.correct)

    # A sweep: every (algorithm, n, seed) combination, all cores, JSONL out.
    specs = sweep_grid(["mst", "mis"], [64, 128], seeds=range(5))
    reports = session.run_many(specs, jobs=8, out="results.jsonl")

* **Registry** (:mod:`repro.registry`) — every algorithm self-registers an
  :class:`~repro.registry.AlgorithmSpec` (workload builder, runner,
  sequential oracle, row descriptors); re-exported here for convenience.
* **Scenarios** (:mod:`repro.scenarios`) — named topology×weights workload
  families with declared, property-tested guarantees; select one per run
  via ``RunSpec(..., scenario="pa-heavy-tail")``, sweep them with
  ``sweep_grid(..., scenarios=[...])``, or span the whole
  algorithm×scenario grid with :func:`matrix_grid` (incompatible cells —
  an algorithm requirement the scenario cannot provide — are skipped).
* **Schema** (:mod:`repro.api.schema`) — frozen :class:`RunSpec` in,
  JSON-serializable :class:`RunReport` out, canonical JSONL persistence,
  content-addressed spec hashing.
* **Session** (:mod:`repro.api.session`) — serial or multiprocessing
  execution with per-``n`` butterfly/workload caching; JSONL output is
  byte-identical for any ``jobs`` value.
* **Sweep service** — the persistent worker pool with shared-memory
  workload handoff (:mod:`repro.api.pool`, a front-end over the worker
  core in :mod:`repro.workers`; hosts without shared memory run sweeps
  serially), resumable sweep manifests (:mod:`repro.api.manifest`), and
  the sharded append-only result store plus query layer
  (:mod:`repro.api.store`).  ``run_many(store=..., manifest=...)`` makes
  a sweep durable and resumable.  See docs/OPERATIONS.md.

The CLI (``python -m repro run/table1/sweep/query``) is a thin wrapper
over this module.
"""

from ..registry import (
    AlgorithmSpec,
    UnknownAlgorithmError,
    algorithm_names,
    get_algorithm,
    iter_algorithms,
    register_algorithm,
    table1_specs,
)
from ..scenarios import (
    ScenarioCompatibilityError,
    ScenarioSpec,
    UnknownScenarioError,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from ..workers import shared_memory_available
from .manifest import Manifest, ManifestError
from .pool import PersistentPool, WorkerCrashError
from .schema import RunReport, RunSpec, dump_reports, load_reports
from .session import Session, matrix_grid, sweep_grid
from .store import ResultStore, StoreError

__all__ = [
    "AlgorithmSpec",
    "Manifest",
    "ManifestError",
    "PersistentPool",
    "ResultStore",
    "RunReport",
    "RunSpec",
    "ScenarioCompatibilityError",
    "ScenarioSpec",
    "Session",
    "StoreError",
    "UnknownAlgorithmError",
    "UnknownScenarioError",
    "WorkerCrashError",
    "algorithm_names",
    "dump_reports",
    "get_algorithm",
    "get_scenario",
    "iter_algorithms",
    "iter_scenarios",
    "load_reports",
    "matrix_grid",
    "register_algorithm",
    "register_scenario",
    "scenario_names",
    "shared_memory_available",
    "sweep_grid",
    "table1_specs",
]
