"""The Node-Capacitated Clique simulator.

This package realizes the communication model of Section 1.1: ``n`` nodes,
each knowing all identifiers ``{0..n-1}``, communicating in synchronous
rounds, where a node can send and receive at most ``O(log n)`` messages of
``O(log n)`` bits per round (excess inbound messages are dropped by the
network).

:class:`~repro.ncc.network.NCCNetwork` is the round engine; all primitives
and algorithms move messages exclusively through it, so its counters are the
ground truth for every round/message/bit measurement reported in
EXPERIMENTS.md.
"""

from .engine import ReferenceEngine, RoundEngine, build_engine, engine_names, register_engine
from .graph_input import InputGraph
from .message import Message, payload_bits
from .network import NCCNetwork
from .stats import NetworkStats, PhaseStats, Violation

__all__ = [
    "InputGraph",
    "Message",
    "payload_bits",
    "NCCNetwork",
    "NetworkStats",
    "PhaseStats",
    "Violation",
    "RoundEngine",
    "ReferenceEngine",
    "build_engine",
    "engine_names",
    "register_engine",
]
