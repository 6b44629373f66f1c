"""Structured tracing + metrics for the NCC stack.

The telemetry plane is strictly *observational*: installing a tracer or
reading counters never changes what a run computes, sends, or reports.
Canonical ``RunSpec``/``RunReport`` JSONL stays byte-identical with
telemetry on or off — timing lives only in sidecar files produced here
(Chrome trace-event JSON, an events JSONL, and text summaries).

Layout
------
``tracer``
    The process-local :class:`Tracer` and its module-global hot slot
    (``tracer.CURRENT``).  Instrumented sites in the engines/pool read
    that one attribute and skip everything when it is ``None`` — the
    disabled tracer is a no-op hook, gated at <= 3% whole-run overhead
    by ``benchmarks/bench_primitives.py``.
``metrics``
    :class:`MetricRegistry` — named counters plus read-only *sources*
    wrapping the pre-existing module globals
    (``message_construction_count`` / ``payload_box_count``), with a
    sorted ``snapshot()`` API.
``export``
    Chrome trace-event JSON (Perfetto-viewable), events JSONL, and the
    human text summary; also the reader used by ``python -m repro trace``.
``bounds``
    One row per traced run: measured rounds against the registered
    Table 1 budget (the bound grammar lives in ``repro.analysis.complexity``).
``sweep``
    :class:`SweepTelemetry` — collects per-row worker traces shipped
    back over the pool pipes and merges them into one trace directory.

Only ``tracer`` and ``metrics`` are imported eagerly (they are on the
engine import path and must stay dependency-free); ``export``, ``bounds``
and ``sweep`` are CLI-side and imported on demand.
"""

from __future__ import annotations

from .metrics import METRICS, MetricRegistry
from .tracer import (
    CURRENT,
    Tracer,
    current_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "CURRENT",
    "METRICS",
    "MetricRegistry",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "tracing",
    "uninstall_tracer",
]
