"""Pluggable round engines: the enforcement/accounting core of one round.

:class:`~repro.ncc.network.NCCNetwork.exchange` hands the caller's outgoing
traffic to a :class:`RoundEngine` — a :class:`~repro.ncc.message.BatchBuilder`
through :meth:`RoundEngine.run_builder`, anything else normalized into a
``sender -> [Message]`` mapping through :meth:`RoundEngine.run_round`.  The
engine owns everything the model charges for inside a round: node-id
validation, send/receive capacity enforcement, message-size budgets,
DROP-mode sampling, and the per-message statistics.  Three engines exist:

* :class:`ReferenceEngine` — the per-message walk this repository started
  with, kept as the executable specification of round semantics;
* :class:`~repro.ncc.batched.BatchedEngine` — a columnar fast path that
  performs the same checks over parallel ``(src, dst, bits)`` arrays;
* :class:`~repro.ncc.sharded.ShardedEngine` — the batched engine with its
  clean-round delivery kernel distributed across worker processes by
  contiguous destination range (one shm block shuffle per round).

The engines are interchangeable by contract: for any input they must
produce identical inboxes (content, list order, and dict insertion order),
identical :class:`~repro.ncc.stats.NetworkStats` mutations including the
exact :class:`~repro.ncc.stats.Violation` ledger order, identical
exceptions, and identical draws from the network's DROP rng stream.
``tests/test_engine_parity.py`` enforces this differentially; any new
engine must be added there.

Canonical round semantics (shared walk order)
---------------------------------------------
1. Per sender, in mapping insertion order: validate the sender id, then
   every message's destination id and ``src`` consistency.  Validation
   happens *before* any DROP-mode trimming so that STRICT and DROP modes
   report the same offending messages (a malformed message must not escape
   detection by being randomly dropped).
2. Per sender: update the max-sent watermark, record a ``"send"`` violation
   if over capacity (raising in STRICT), and in DROP mode trim to a random
   capacity-sized subset drawn from the engine rng.
3. Per surviving message, in order: record a ``"bits"`` violation if the
   payload exceeds the budget (raising in STRICT) and accumulate message
   and bit counts.
4. Per receiver, in first-arrival order: update the max-received watermark,
   record a ``"recv"`` violation if over capacity (raising in STRICT), and
   in DROP mode deliver a random capacity-sized subset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from ..config import Enforcement
from ..errors import ConfigurationError
from .message import BatchBuilder, InboxBatch, Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import NCCNetwork

#: One delivered inbox: a plain message list (reference engine, and every
#: round the batched engine walks) or a lazy
#: :class:`~repro.ncc.message.InboxBatch` column view (batched engine,
#: clean columnar rounds).  The two compare equal element-wise and
#: are interchangeable by the engine-indistinguishability contract.  The
#: inboxes of one round arrive as a plain dict (reference engine, walked
#: and small object rounds) or as a read-only
#: :class:`~repro.ncc.message.RoundInbox` mapping (clean bulk rounds of
#: the batched and sharded engines).
InboxT = list[Message] | InboxBatch

#: ``run_round`` result: (delivered inboxes, sent messages, sent bits).
RoundResult = tuple[Mapping[int, InboxT], int, int]


class RoundEngine:
    """Strategy object executing one synchronous round for a network.

    The base class is the executable specification: :meth:`run_round` runs
    the *canonical walks* — the reference-ordered send and receive passes —
    and :meth:`run_builder` cuts a builder into per-sender groups for it.
    Faster engines override the two entry points for the rounds they can
    take off columns and fall back to the walks for everything else, so
    every engine shares one implementation of the rare paths whose
    observable order matters (violation ledger entries, STRICT raise
    points, DROP rng draws).
    """

    #: Registry name; also surfaced by ``NCCNetwork.__repr__``.
    name = "abstract"

    def __init__(self, net: "NCCNetwork"):
        self.net = net

    def run_round(self, per_sender: Mapping[int, list[Message]]) -> RoundResult:
        """Execute one round over normalized per-sender traffic."""
        senders = list(per_sender.keys())
        groups = [per_sender[s] for s in senders]
        accepted, sent_messages, sent_bits = self._send_walk(senders, groups)
        delivered = self._recv_walk(self._bucket(accepted))
        return delivered, sent_messages, sent_bits

    def run_builder(self, builder: BatchBuilder) -> RoundResult:
        """Execute one round submitted as a builder; spends the builder.
        The default cuts its per-sender groups and runs :meth:`run_round`
        on them."""
        return self.run_round(builder.batches())

    # ------------------------------------------------------------------
    # Canonical walks (the executable specification of round semantics)
    # ------------------------------------------------------------------
    def _send_walk(
        self, senders: Sequence[int], groups: Sequence[list[Message]]
    ) -> tuple[list[Message], int, int]:
        """Validate and enforce the send side; returns the accepted flat
        message list (inbox insertion order) plus message/bit totals."""
        net = self.net
        stats = net.stats
        cap = net.capacity
        budget = net.message_bits
        drop = net.config.enforcement is Enforcement.DROP
        accepted: list[Message] = []
        sent_messages = 0
        sent_bits = 0
        for src, msgs in zip(senders, groups):
            net._check_node_id(src)
            # Validate before any DROP-mode trimming: a mismatched src or a
            # bad destination must surface identically in every enforcement
            # mode instead of being randomly sampled away.
            for m in msgs:
                net._check_node_id(m.dst)
                if m.src != src:
                    raise ValueError(
                        f"message src {m.src} enqueued under sender {src}"
                    )
            count = len(msgs)
            if count > stats.max_sent_per_round:
                stats.max_sent_per_round = count
            if count > cap:
                net._violate("send", src, count)
                if drop:
                    # The model does not drop on the send side (sending is
                    # under node control), but an over-budget sender in DROP
                    # mode gets trimmed to keep the simulation inside the
                    # model; a random subset is kept to avoid bias.
                    msgs = net._drop_rng.sample(msgs, cap)
                    stats.dropped += count - cap
            for m in msgs:
                bits = m.sized()
                if bits > budget:
                    net._violate_bits(m, bits)
                sent_messages += 1
                sent_bits += bits
                accepted.append(m)
        return accepted, sent_messages, sent_bits

    @staticmethod
    def _bucket(accepted: list[Message]) -> dict[int, list[Message]]:
        """Group accepted messages into inboxes, first-arrival order."""
        inboxes: dict[int, list[Message]] = {}
        for m in accepted:
            box = inboxes.get(m.dst)
            if box is None:
                inboxes[m.dst] = [m]
            else:
                box.append(m)
        return inboxes

    def _recv_walk(
        self, inboxes: dict[int, list[Message]]
    ) -> dict[int, list[Message]]:
        """Enforce receive capacity per inbox, in insertion order."""
        net = self.net
        stats = net.stats
        cap = net.capacity
        drop = net.config.enforcement is Enforcement.DROP
        delivered: dict[int, list[Message]] = {}
        for dst, msgs in inboxes.items():
            count = len(msgs)
            if count > stats.max_received_per_round:
                stats.max_received_per_round = count
            if count > cap:
                net._violate("recv", dst, count)
                if drop:
                    # "it receives an arbitrary subset of O(log n) messages.
                    # Additional messages are simply dropped by the network."
                    msgs = net._drop_rng.sample(msgs, cap)
                    stats.dropped += count - cap
            delivered[dst] = msgs
        return delivered


class ReferenceEngine(RoundEngine):
    """The per-message round engine: the canonical walks, verbatim."""

    name = "reference"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[RoundEngine]] = {ReferenceEngine.name: ReferenceEngine}


def register_engine(name: str, cls: type[RoundEngine]) -> None:
    """Register a round-engine implementation under ``name``."""
    _REGISTRY[name] = cls


def engine_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def build_engine(name: str, net: "NCCNetwork") -> RoundEngine:
    """Instantiate the engine registered under ``name`` for ``net``."""
    if name not in _REGISTRY and name == "batched":
        # Imported lazily so the reference path never pays for it.
        from . import batched  # noqa: F401  (registers itself on import)
    elif name not in _REGISTRY and name == "sharded":
        from . import sharded  # noqa: F401  (registers itself on import)
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown round engine {name!r}; known engines: {engine_names()}"
        )
    return cls(net)
