"""Round/message/bit statistics and the capacity-violation ledger.

Everything the benchmark harness reports comes from here.  The network
attributes each round's traffic to the currently active *phase labels* (a
stack pushed by :meth:`repro.ncc.network.NCCNetwork.phase`), so a caller can
ask "how many rounds did MST spend inside aggregations?" without any
instrumentation in the algorithms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class Violation:
    """One capacity-budget violation observed by the engine."""

    round_index: int
    node: int
    kind: str  # "send" | "recv" | "bits"
    count: int
    capacity: int


@dataclass
class PhaseStats:
    """Counters attributed to one phase label."""

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    entries: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "entries": self.entries,
        }


@dataclass
class NetworkStats:
    """Cumulative statistics of one :class:`NCCNetwork` instance."""

    rounds: int = 0
    messages: int = 0
    bits: int = 0
    dropped: int = 0
    max_sent_per_round: int = 0
    max_received_per_round: int = 0
    violations: list[Violation] = field(default_factory=list)
    phases: dict[str, PhaseStats] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record_round(
        self,
        active_phases: Iterable[str],
        messages: int,
        bits: int,
    ) -> None:
        """Charge one round to the totals and to every active phase.

        ``active_phases`` is the raw phase stack.  A label nested inside
        itself (e.g. a primitive reentered under the same tag) charges
        each round/message/bit once, not once per stack level."""
        self.charge_round(self.phase_cells(active_phases), messages, bits)

    def phase_cells(self, labels: Iterable[str]) -> tuple[PhaseStats, ...]:
        """The :class:`PhaseStats` of each distinct label, in first-occurrence
        order, created (in that order) on first use.  The network resolves
        its phase stack once per phase entry and exit and charges every
        round of the phase to the same cells."""
        return tuple(self.phases.setdefault(label, PhaseStats()) for label in dict.fromkeys(labels))

    def charge_round(self, cells: tuple[PhaseStats, ...], messages: int, bits: int) -> None:
        """Charge one round to the totals and to ``cells`` (distinct phases,
        from :meth:`phase_cells`)."""
        self.rounds += 1
        self.messages += messages
        self.bits += bits
        for ps in cells:
            ps.rounds += 1
            ps.messages += messages
            ps.bits += bits

    def record_phase_entry(self, label: str) -> None:
        self.phases.setdefault(label, PhaseStats()).entries += 1

    def record_violation(self, v: Violation) -> None:
        self.violations.append(v)

    # ------------------------------------------------------------------
    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def phase(self, label: str) -> PhaseStats:
        """Stats for one phase label (zeroed if the phase never ran)."""
        return self.phases.get(label, PhaseStats())

    def summary(self) -> dict[str, object]:
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "dropped": self.dropped,
            "violations": self.violation_count,
            "max_sent_per_round": self.max_sent_per_round,
            "max_received_per_round": self.max_received_per_round,
        }

    def to_dict(self) -> dict[str, object]:
        """Full JSON-serializable export (tooling / experiment archival)."""
        return {
            **self.summary(),
            "phases": {k: v.as_dict() for k, v in self.phases.items()},
            "violation_log": [
                {
                    "round": v.round_index,
                    "node": v.node,
                    "kind": v.kind,
                    "count": v.count,
                    "capacity": v.capacity,
                }
                for v in self.violations
            ],
        }

    def comparable(self) -> dict[str, object]:
        """Canonical snapshot for differential engine testing.

        Captures every observable the round engines must agree on: the
        cumulative counters, the phase attribution, and the violation
        ledger *in order*.  Two engine runs are indistinguishable iff
        their ``comparable()`` dicts are equal.  A named alias of
        :meth:`to_dict` so there is exactly one exporter to extend when a
        new stats field is added — anything in the export is automatically
        under the parity invariant.
        """
        return self.to_dict()

    def to_json(self, **dumps_kwargs: object) -> str:
        """Serialize :meth:`to_dict` with :func:`json.dumps`."""
        import json

        return json.dumps(self.to_dict(), **dumps_kwargs)  # type: ignore[arg-type]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{k}={v}" for k, v in self.summary().items()]
        return "NetworkStats(" + ", ".join(parts) + ")"
