"""The experiment schema: frozen :class:`RunSpec` in, :class:`RunReport` out.

A :class:`RunSpec` is a complete, serializable description of one scenario
— algorithm, size, workload parameters, seed, engine, enforcement — so a
sweep is literally a list of specs and nothing else.  A :class:`RunReport`
is the JSON-serializable outcome: the Table 1 row (outputs +
workload descriptors), the measured rounds/messages/bits, the full
:class:`~repro.ncc.stats.NetworkStats` snapshot including the violation
ledger, the wall time, and the engine that actually ran.

Reports serialize to canonical JSONL (sorted keys, compact separators,
**no wall time**) via :meth:`RunReport.to_json_line`, so a sweep's output
file is byte-deterministic: the same spec list produces the same bytes
regardless of parallelism, host speed, or row ordering inside a worker.
Wall times stay on the in-memory report (`wall_time_s`) and in
``to_dict(timing=True)``; machine-dependent timings belong in
``BENCH_engine.json``, not in results files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, Mapping

from ..config import Enforcement
from ..errors import ConfigurationError

ExtrasT = tuple[tuple[str, Any], ...]


def _canon_value(value: Any) -> Any:
    """Canonicalize an extras value so specs survive a JSON roundtrip
    unchanged and stay hashable: sequences become tuples (JSON reads
    tuples back as lists) and mappings become sorted pair-tuples."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _canon_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon_value(v) for v in value)
    return value


def _freeze_extras(extras: Any) -> ExtrasT:
    if isinstance(extras, Mapping):
        items = extras.items()
    else:
        items = tuple(extras or ())
    frozen = tuple(sorted((str(k), _canon_value(v)) for k, v in items))
    if len({k for k, _ in frozen}) != len(frozen):
        raise ConfigurationError(f"duplicate keys in extras: {frozen!r}")
    return frozen


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified experiment scenario.

    Parameters
    ----------
    algorithm:
        Registry name or alias (``"mst"``, ``"MM"``, …); resolved through
        :func:`repro.registry.get_algorithm`.
    n:
        Requested problem size (the scenario builder may round, e.g. the
        grid scenario uses the nearest square).
    a:
        Arboricity parameter of the standard workload.
    seed:
        Master seed: drives the workload generator and the simulation's
        shared randomness.  Same spec ⇒ identical run.
    engine:
        Round engine name, or ``None`` for the session/process default.
    enforcement:
        ``"strict" | "count" | "drop"``, or ``None`` for the session
        default (the benchmark profile's COUNT).
    extras:
        Options for the algorithm's run callable (e.g. BFS's
        ``{"source": 3}``), stored as a sorted tuple of pairs so specs
        stay hashable.
    scenario:
        Workload scenario name from :mod:`repro.scenarios` (topology
        family × optional weight regime), or ``None`` for the
        algorithm's ``default_scenario``.  ``None`` keeps the canonical
        JSONL byte-identical to the pre-scenario schema: the key is
        only serialized when a scenario is set.
    shards:
        Worker count for the ``"sharded"`` engine, or ``None`` to leave
        it to the engine (auto from the core count).  Like ``scenario``,
        the key is only serialized when set, so shard-free results files
        stay byte-identical to the PR 8 schema.  The value never changes
        a run's output (sharded runs are byte-identical for every shard
        count) — it is part of the spec so a sweep row records how it
        was executed, not part of the workload identity.
    """

    algorithm: str
    n: int
    a: int = 2
    seed: int = 0
    engine: str | None = None
    enforcement: str | None = None
    extras: ExtrasT = field(default=())
    scenario: str | None = None
    shards: int | None = None

    def __post_init__(self) -> None:
        if not self.algorithm:
            raise ConfigurationError("RunSpec.algorithm must be non-empty")
        if self.scenario is not None and not str(self.scenario).strip():
            raise ConfigurationError("RunSpec.scenario must be non-empty when set")
        if self.n < 1:
            raise ConfigurationError(f"RunSpec.n must be >= 1, got {self.n}")
        if self.a < 1:
            raise ConfigurationError(f"RunSpec.a must be >= 1, got {self.a}")
        if self.shards is not None and (
            not isinstance(self.shards, int)
            or isinstance(self.shards, bool)
            or self.shards < 1
        ):
            raise ConfigurationError(
                f"RunSpec.shards must be an integer >= 1 when set, got {self.shards!r}"
            )
        object.__setattr__(self, "extras", _freeze_extras(self.extras))
        if self.enforcement is not None:
            # Normalize eagerly so bad specs fail at construction time.
            object.__setattr__(
                self, "enforcement", Enforcement(self.enforcement).value
            )

    # ------------------------------------------------------------------
    @property
    def options(self) -> dict[str, Any]:
        """The extras as a plain keyword dict."""
        return dict(self.extras)

    def with_(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (specs are frozen)."""
        return replace(self, **changes)

    def canonical_json(self) -> str:
        """The canonical JSON encoding of this spec: sorted keys, compact
        separators, scenario key only when set — the exact bytes hashed by
        :meth:`content_hash`.  Two specs have equal canonical JSON iff
        they describe the same run."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Content-addressed identity of this spec: the SHA-256 hex digest
        of :meth:`canonical_json`.

        Manifests key completed sweep rows by this hash and the result
        store shards by it, so re-running a grid recognises rows it has
        already computed no matter where or when they ran.  The hash is
        stable across processes and Python versions (it hashes canonical
        JSON bytes, not :func:`hash`).  Hash a *canonicalized* spec
        (:meth:`Session.canonical <repro.api.Session.canonical>`) when the
        identity must be independent of aliases and session defaults.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "algorithm": self.algorithm,
            "n": self.n,
            "a": self.a,
            "seed": self.seed,
            "engine": self.engine,
            "enforcement": self.enforcement,
            "extras": dict(self.extras),
        }
        # Serialized only when set, so scenario-free results files stay
        # byte-identical to the pre-scenario schema (likewise shard-free
        # files and the pre-sharding schema).
        if self.scenario is not None:
            data["scenario"] = self.scenario
        if self.shards is not None:
            data["shards"] = self.shards
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls(
            algorithm=data["algorithm"],
            n=data["n"],
            a=data.get("a", 2),
            seed=data.get("seed", 0),
            engine=data.get("engine"),
            enforcement=data.get("enforcement"),
            extras=data.get("extras") or (),
            scenario=data.get("scenario"),
            shards=data.get("shards"),
        )


@dataclass(frozen=True)
class RunReport:
    """The JSON-serializable outcome of one :class:`RunSpec` execution."""

    #: the spec that produced this report, canonicalized (algorithm name
    #: resolved, engine/enforcement made explicit) so it reruns verbatim.
    spec: RunSpec
    #: the Table 1 row: workload descriptors + outputs + ``correct``.
    row: dict[str, Any]
    #: round engine that actually executed the run.
    engine: str
    correct: bool
    rounds: int
    messages: int
    bits: int
    #: full :meth:`NetworkStats.to_dict` snapshot (phases + violation log).
    stats: dict[str, Any]
    #: wall-clock seconds (in-memory / verbose export only — see module doc).
    wall_time_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def violations(self) -> list[dict[str, Any]]:
        """The violation ledger, in engine observation order."""
        return list(self.stats.get("violation_log", ()))

    def to_dict(self, *, timing: bool = True) -> dict[str, Any]:
        data: dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "row": self.row,
            "engine": self.engine,
            "correct": self.correct,
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "stats": self.stats,
        }
        if timing:
            data["wall_time_s"] = self.wall_time_s
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            row=dict(data["row"]),
            engine=data["engine"],
            correct=data["correct"],
            rounds=data["rounds"],
            messages=data["messages"],
            bits=data["bits"],
            stats=dict(data["stats"]),
            wall_time_s=data.get("wall_time_s", 0.0),
        )

    def to_json_line(self) -> str:
        """Canonical deterministic JSONL record (no timing, sorted keys)."""
        return json.dumps(
            self.to_dict(timing=False),
            sort_keys=True,
            separators=(",", ":"),
            default=_json_default,
        )

    @classmethod
    def from_json_line(cls, line: str) -> "RunReport":
        return cls.from_dict(json.loads(line))


def _json_default(obj: Any) -> Any:
    """Serialize the few non-JSON row values (sets of edges; tuples are
    handled natively by the encoder)."""
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def dump_reports(reports: Iterable[RunReport], path: str) -> None:
    """Write reports as JSONL to ``path`` (``"-"`` = stdout)."""
    import sys

    lines = [r.to_json_line() for r in reports]
    if path == "-":
        for line in lines:
            sys.stdout.write(line + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")


def load_reports(path: str) -> Iterator[RunReport]:
    """Read reports back from a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield RunReport.from_json_line(line)
