"""The synchronous round engine of the Node-Capacitated Clique.

Usage pattern (all primitives follow it)::

    net = NCCNetwork(n, config)
    with net.phase("my-protocol"):
        inboxes = net.exchange(outgoing)   # one synchronous round
        ...

``exchange`` takes the messages every node wants to send this round, enforces
the model's send/receive capacity and message-size budgets, and returns the
per-node inboxes for the start of the next round.  The three enforcement
modes are described in :class:`repro.config.Enforcement`.

Design notes
------------
* The engine is deliberately *centralized but message-faithful*: algorithms
  are orchestrated from ordinary Python control flow (the paper's
  Aggregate-and-Broadcast synchronization is executed for real where the
  paper charges it), while every unit of communication is a concrete
  :class:`~repro.ncc.message.Message` moving through this class.
* Local computation is free (the model allows arbitrary local computation
  per round), so the engine counts only rounds, messages and bits.
* Randomness for DROP-mode selection comes from the engine's own stream so
  that algorithm-level randomness is unaffected by the enforcement mode.
* The per-round enforcement/accounting core is a pluggable
  :class:`~repro.ncc.engine.RoundEngine` selected by ``NCCConfig.engine``:
  the ``"reference"`` engine walks messages one by one (the executable
  specification), the ``"batched"`` engine (:mod:`repro.ncc.batched`) runs
  the same checks columnar over a builder's columns.  ``exchange`` hands a
  :class:`~repro.ncc.message.BatchBuilder` to ``engine.run_builder`` and
  every other form, normalized into a ``sender -> messages`` mapping, to
  ``engine.run_round``; one block of round bookkeeping (the ``round``
  span, the observer, the round counter, the statistics) follows both.
  The paper only charges for rounds, messages and bits, so the internal
  representation is free to change — but the engines must stay *observably
  indistinguishable*: same inboxes (including list and dict insertion
  order), same statistics, same violation-ledger order, same exceptions,
  and same DROP-rng draws.  ``tests/test_engine_parity.py`` certifies this
  differentially; ``run_rounds``, ``idle_rounds``, the ``round_observer``
  hook, and the k-machine conversion all funnel through the same
  ``exchange`` → engine interface, so parity there covers every consumer.
* A round costs in proportion to its traffic, not to the rounds the model
  charges.  Most rounds move nothing: aggregation delivery windows submit
  empty builders, and barriers and router tails let fixed-length windows
  elapse through :meth:`NCCNetwork.idle_rounds`.  An empty submission
  (``()``, ``[]``, ``{}``, an empty builder) skips normalization and the
  engine and feeds the same bookkeeping block an empty round (every
  engine delivers ``{}`` and moves no statistic on such a round, and the
  engines keep their own empty-round branches for direct calls and for
  submissions that normalize to nothing).  It is still one
  ``exchange`` call, with its span, observer call, round number and
  statistics; an idle window of k rounds is k calls (the benchmark
  counts rounds as ``exchange`` calls).  The phase stack is resolved
  into its distinct labels' :class:`~repro.ncc.stats.PhaseStats` cells
  once per phase entry and exit, so a round's statistics allocate
  nothing.
* Input validation (node ids, ``src`` consistency of a ``Mapping`` entry)
  happens *before* any DROP-mode trimming, so STRICT and DROP report the
  same offending messages: a malformed message cannot escape detection by
  being randomly dropped.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager

from ..config import DEFAULT_CONFIG, Enforcement, NCCConfig
from ..errors import CapacityError, MessageSizeError, SimulationLimitError
from ..rng import derived_rng
from ..telemetry import tracer as _tracer
from ..telemetry.metrics import METRICS
from .engine import InboxT, RoundEngine, build_engine
from .message import BatchBuilder, InboxBatch, Message, merge_round_inboxes
from .stats import NetworkStats, PhaseStats, Violation

# Registry counters for the rare events the tracer also records; one int
# add per violation, cheap enough to run unconditionally.
_CAPACITY_VIOLATIONS = METRICS.counter("ncc.violations")
_BITS_VIOLATIONS = METRICS.counter("ncc.bits_violations")

OutgoingT = Mapping[int, list[Message]] | Iterable[Message] | BatchBuilder

# The submissions whose emptiness ends a round before normalization.  Any
# other falsy argument (``None``, ``0``) takes the normal path and fails
# there as a non-iterable.
_EMPTY_FORMS = (tuple, list, dict, BatchBuilder)


def _no_traffic(_submitted: object) -> tuple[dict, int, int]:
    """The round of a submission without a message: nothing to enforce,
    nothing delivered (a fresh dict per round — results are the caller's)."""
    return {}, 0, 0


class NCCNetwork:
    """A Node-Capacitated Clique on ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes; identifiers are ``0..n-1`` (Section 1.1 lets us
        assume this w.l.o.g. since identifiers are common knowledge).
    config:
        Model constants; see :class:`repro.config.NCCConfig`.
    """

    def __init__(self, n: int, config: NCCConfig | None = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.config = config if config is not None else DEFAULT_CONFIG
        self.capacity = self.config.capacity(self.n)
        self.message_bits = self.config.message_bits(self.n)
        self.stats = NetworkStats()
        self._round = 0
        self._phase_stack: list[str] = []
        # The stats cells every round charges: the stack's distinct
        # labels, resolved once per phase entry and exit.
        self._phase_cells: tuple[PhaseStats, ...] = ()
        self._drop_rng = derived_rng("ncc-drop", self.config.seed, n)
        #: The pluggable enforcement/accounting core executing each round.
        self.engine: RoundEngine = build_engine(self.config.resolve_engine(), self)
        #: Optional per-round observer ``f(round_index, messages)`` — used by
        #: the k-machine conversion (Appendix A) to re-account each NCC
        #: round's traffic in another model without touching the algorithms.
        self.round_observer = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Number of completed rounds."""
        return self._round

    @property
    def log2n(self) -> int:
        return self.config.log2n(self.n)

    def nodes(self) -> range:
        return range(self.n)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Attribute all traffic inside the block to ``label`` (stackable)."""
        self._phase_stack.append(label)
        self.stats.record_phase_entry(label)
        self._phase_cells = self.stats.phase_cells(self._phase_stack)
        tr = _tracer.CURRENT
        if tr is not None:
            tr.begin("phase", label=label)
        try:
            yield
        finally:
            self._phase_stack.pop()
            self._phase_cells = self.stats.phase_cells(self._phase_stack)
            tr = _tracer.CURRENT
            if tr is not None:
                tr.end(rounds=self._round)

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------
    def exchange(self, outgoing: OutgoingT) -> Mapping[int, InboxT]:
        """Run one synchronous round.

        ``outgoing`` maps each sender to its messages, or is a flat iterable
        of messages, or a :class:`~repro.ncc.message.BatchBuilder` holding
        the round's traffic in columnar form.  Mapping keys are node ids:
        ints, bools and numpy integers are accepted, anything else raises
        ``TypeError`` before the round starts.  A ``round_observer`` sees
        every round as a ``sender -> messages`` mapping; for a builder
        that is ``builder.batches()``, cut after the round.  A submission
        without a message is a round too: it elapses, is observed (as
        ``{}``) and counted, and returns ``{}``.

        Returns a ``Mapping`` holding the inbox of every node that received
        at least one message, keyed by receiver in first-arrival order.
        The model says messages are received "at the beginning of the next
        round" (Section 1.1); since the caller drives rounds explicitly,
        that simply means the return value is available to the caller's
        next iteration.  Treat the result as read-only: a clean bulk round
        of the batched or sharded engine returns a frozen
        :class:`~repro.ncc.message.RoundInbox` (mutating it raises), other
        rounds a plain dict; copy it with ``dict(...)`` to edit.  Each
        inbox is ``list[Message]``-compatible but not necessarily a list:
        the batched engine delivers lazy
        :class:`~repro.ncc.message.InboxBatch` column views on clean
        columnar rounds (element access materializes a ``Message``;
        ``payloads()`` and friends read the columns without constructing
        any).
        """
        if self._round >= self.config.max_rounds:
            raise SimulationLimitError(
                f"simulation exceeded max_rounds={self.config.max_rounds}"
            )

        if not outgoing and isinstance(outgoing, _EMPTY_FORMS):
            if isinstance(outgoing, BatchBuilder):
                outgoing._spent = True  # like any submitted builder
            run, submitted = _no_traffic, {}
        elif isinstance(outgoing, BatchBuilder):
            # Columnar submission: the engine reads the builder's columns
            # itself.  Its per-sender cut (first-occurrence sender order,
            # per-sender append order — identical to flat-list bucketing)
            # is made only for an observer, after the round.
            run, submitted = self.engine.run_builder, outgoing
        else:
            per_sender: dict[int, list[Message]] = {}
            if isinstance(outgoing, Mapping):
                for src, msgs in outgoing.items():
                    if msgs:
                        if type(src) is not int:
                            try:
                                src = operator.index(src)
                            except TypeError:
                                raise TypeError(f"node ids must be ints, got {type(src).__name__}") from None
                        # Engines never mutate a sender's group, so the
                        # caller's list (or InboxBatch) can be shared
                        # instead of copied — listing an InboxBatch here
                        # would defeat its laziness.  Keys equal as ints
                        # are one dict key, so no two keys normalize to
                        # one sender.
                        per_sender[src] = msgs if isinstance(msgs, (list, InboxBatch)) else list(msgs)
            else:
                for m in outgoing:
                    per_sender.setdefault(m.src, []).append(m)
            run, submitted = self.engine.run_round, per_sender

        tr = _tracer.CURRENT
        if tr is None:
            delivered, sent_messages, sent_bits = run(submitted)
        else:
            t0 = tr.now()
            delivered, sent_messages, sent_bits = run(submitted)
            tr.add_span(
                "round",
                t0,
                tr.now(),
                round=self._round,
                phases="/".join(self._phase_stack),
                messages=sent_messages,
                bits=sent_bits,
            )

        if self.round_observer is not None:
            if isinstance(submitted, BatchBuilder):
                submitted = submitted.batches()
            self.round_observer(self._round, submitted)
        self._round += 1
        self.stats.charge_round(self._phase_cells, sent_messages, sent_bits)
        return delivered

    def run_rounds(
        self, schedule: Mapping[int, list[Message]]
    ) -> dict[int, InboxT]:
        """Run a multi-round send schedule keyed by round offset.

        ``schedule[r]`` is the list of messages sent in the r-th round from
        now (0-based); negative keys are rejected — they can never elapse,
        so their traffic would silently vanish.  All inboxes are merged
        into one dict keyed by receiver; useful for the "pick a random
        round in {1..s}" spreading pattern the paper uses repeatedly.
        Rounds with no traffic still elapse (they are part of the
        protocol's fixed-length window).  Every round goes through
        :meth:`exchange` and therefore through the configured round engine.
        """
        negative = sorted(r for r in schedule if r < 0)
        if negative:
            raise ValueError(
                f"run_rounds schedule keys must be 0-based round offsets; "
                f"got negative keys {negative} whose traffic would never "
                f"be sent"
            )
        merged: dict[int, InboxT] = {}
        horizon = max(schedule.keys(), default=-1)
        for r in range(horizon + 1):
            merge_round_inboxes(merged, self.exchange(schedule.get(r, ())))
        return merged

    def idle_rounds(self, k: int) -> None:
        """Let ``k`` empty rounds elapse (fixed-length protocol windows)."""
        for _ in range(k):
            self.exchange(())

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _check_node_id(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ValueError(f"node id {node} outside [0, {self.n})")

    def _violate(self, kind: str, node: int, count: int) -> None:
        v = Violation(self._round, node, kind, count, self.capacity)
        self.stats.record_violation(v)
        _CAPACITY_VIOLATIONS.inc()
        tr = _tracer.CURRENT
        if tr is not None:
            # Recorded before the STRICT raise so the trace keeps the
            # violation that aborted the run.
            tr.event(
                "violation",
                kind=kind,
                node=node,
                count=count,
                capacity=self.capacity,
                round=self._round,
            )
        if self.config.enforcement is Enforcement.STRICT:
            raise CapacityError(
                f"node {node} {kind} capacity exceeded in round {self._round}: "
                f"{count} > {self.capacity}",
                node=node,
                round_index=self._round,
                count=count,
                capacity=self.capacity,
            )

    def _violate_bits(self, m: Message, bits: int) -> None:
        v = Violation(self._round, m.src, "bits", bits, self.message_bits)
        self.stats.record_violation(v)
        _BITS_VIOLATIONS.inc()
        tr = _tracer.CURRENT
        if tr is not None:
            tr.event(
                "bits-violation",
                src=m.src,
                dst=m.dst,
                bits=bits,
                budget=self.message_bits,
                round=self._round,
            )
        if self.config.enforcement is Enforcement.STRICT:
            raise MessageSizeError(
                f"message {m.src}->{m.dst} ({m.kind!r}) payload {bits} bits "
                f"exceeds budget {self.message_bits}",
                bits=bits,
                budget=self.message_bits,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NCCNetwork(n={self.n}, capacity={self.capacity}, "
            f"engine={self.engine.name!r}, round={self._round}, "
            f"violations={self.stats.violation_count})"
        )
