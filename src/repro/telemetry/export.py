"""Trace exporters: Chrome trace-event JSON, events JSONL, text summary.

The interchange form is the *trace document*: the Chrome trace-event
JSON object produced by :func:`build_chrome_doc` —

``{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}``

— loadable directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Spans become ``ph="X"`` complete events with
microsecond ``ts``/``dur``; instant events become ``ph="i"``.  Each
traced process (the parent, or one sweep row) gets its own ``pid`` so
Perfetto draws it as a separate track, and ``otherData.rows`` carries
the row metadata + counter snapshots the summarizer needs.

Every JSON write here is canonical (``sort_keys=True``) — this module
is on reprolint NCC004's canonical-modules list.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .tracer import SPAN, Tracer

__all__ = [
    "build_chrome_doc",
    "load_trace",
    "payload_rows",
    "summarize",
    "write_chrome_trace",
    "write_events_jsonl",
]

#: Event names that signal a degraded/abnormal condition; the summary
#: lists these individually (with their reasons) instead of only counting.
INCIDENT_EVENTS = (
    "sharded-degraded",
    "pool-degraded",
    "shard-worker-crash",
    "worker-crash",
    "violation",
    "bits-violation",
    "typed-fallback",
)


def payload_rows(
    parent: Tracer | dict[str, Any] | None,
    row_payloads: Iterable[tuple[int, dict[str, Any]]] = (),
) -> list[tuple[int, dict[str, Any]]]:
    """Normalize a parent tracer + per-row payloads into ``(pid, payload)``.

    The parent (if any) is pid 0; sweep row ``i`` becomes pid ``i + 1``
    so each run renders as its own Perfetto process track.
    """
    rows: list[tuple[int, dict[str, Any]]] = []
    if parent is not None:
        payload = parent.to_payload() if isinstance(parent, Tracer) else parent
        rows.append((0, payload))
    for idx, payload in row_payloads:
        if payload:
            rows.append((int(idx) + 1, payload))
    return rows


def build_chrome_doc(rows: list[tuple[int, dict[str, Any]]]) -> dict[str, Any]:
    """Convert ``(pid, payload)`` rows into one Chrome trace document."""
    events: list[dict[str, Any]] = []
    row_meta: list[dict[str, Any]] = []
    for pid, payload in rows:
        meta = dict(payload.get("meta") or {})
        label = meta.get("label") or ("parent" if pid == 0 else f"row-{pid - 1}")
        events.append(
            {"args": {"name": label}, "name": "process_name", "ph": "M", "pid": pid}
        )
        for kind, name, ts, dur, fields in payload.get("records", ()):
            ev: dict[str, Any] = {
                "args": dict(fields),
                "cat": "ncc",
                "name": name,
                "ph": "X" if kind == SPAN else "i",
                "pid": pid,
                "tid": 0,
                "ts": round(ts * 1e6, 3),
            }
            if kind == SPAN:
                ev["dur"] = round((dur or 0.0) * 1e6, 3)
            else:
                ev["s"] = "t"
            events.append(ev)
        row_meta.append(
            {
                "counters": payload.get("counters") or {},
                "meta": meta,
                "pid": pid,
            }
        )
    return {
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro-telemetry", "rows": row_meta},
        "traceEvents": events,
    }


def write_chrome_trace(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_events_jsonl(path: str, doc: dict[str, Any]) -> None:
    """One JSON object per trace event (metadata rows excluded)."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in doc["traceEvents"]:
            if ev.get("ph") == "M":
                continue
            fh.write(json.dumps(ev, sort_keys=True))
            fh.write("\n")


def load_trace(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace-event document")
    return doc


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def _phase_table(doc: dict[str, Any]) -> dict[str, list[float]]:
    """Aggregate round spans: phase path -> [rounds, messages, bits, secs]."""
    table: dict[str, list[float]] = {}
    for ev in doc["traceEvents"]:
        if ev.get("name") != "round" or ev.get("ph") != "X":
            continue
        args = ev.get("args") or {}
        key = args.get("phases") or "(unphased)"
        row = table.setdefault(key, [0, 0, 0, 0.0])
        row[0] += 1
        row[1] += int(args.get("messages", 0))
        row[2] += int(args.get("bits", 0))
        row[3] += float(ev.get("dur", 0.0)) / 1e6
    return table


def _event_counts(doc: dict[str, Any]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "i":
            name = ev.get("name", "?")
            counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def run_metas(doc: dict[str, Any]) -> list[dict[str, Any]]:
    """The per-run metadata recorded by ``Session.run``'s run spans."""
    metas = []
    for ev in doc["traceEvents"]:
        if ev.get("name") == "run" and ev.get("ph") == "X":
            args = dict(ev.get("args") or {})
            args["pid"] = ev.get("pid", 0)
            metas.append(args)
    return metas


def summarize(doc: dict[str, Any]) -> str:
    """A human-readable digest of one trace document."""
    events = doc["traceEvents"]
    spans = sum(1 for ev in events if ev.get("ph") == "X")
    instants = sum(1 for ev in events if ev.get("ph") == "i")
    rows = (doc.get("otherData") or {}).get("rows") or []
    lines = [
        f"trace: {spans} spans, {instants} events, "
        f"{max(len(rows), 1)} process track(s)"
    ]

    metas = run_metas(doc)
    for meta in metas:
        desc = ", ".join(
            f"{k}={meta[k]}"
            for k in ("algorithm", "n", "a", "seed", "engine", "scenario", "shards")
            if meta.get(k) not in (None, "")
        )
        out = ", ".join(
            f"{k}={meta[k]}"
            for k in ("rounds", "messages", "bits", "incidents")
            if k in meta
        )
        lines.append(f"run[pid {meta['pid']}]: {desc}  ->  {out}")

    table = _phase_table(doc)
    if table:
        lines.append("")
        lines.append(
            f"{'phase':<40} {'rounds':>8} {'messages':>12} {'bits':>14} {'secs':>9}"
        )
        for key in sorted(table):
            rounds, msgs, bits, secs = table[key]
            lines.append(
                f"{key:<40} {int(rounds):>8} {int(msgs):>12} "
                f"{int(bits):>14} {secs:>9.4f}"
            )

    counts = _event_counts(doc)
    if counts:
        lines.append("")
        lines.append("events: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    incidents = [
        ev
        for ev in events
        if ev.get("ph") == "i" and ev.get("name") in INCIDENT_EVENTS
    ]
    for ev in incidents[:50]:
        args = ev.get("args") or {}
        detail = ", ".join(f"{k}={v}" for k, v in sorted(args.items()))
        lines.append(f"  [pid {ev.get('pid', 0)}] {ev['name']}: {detail}")
    if len(incidents) > 50:
        lines.append(f"  ... {len(incidents) - 50} more incident events")

    merged: dict[str, int] = {}
    for row in rows:
        for key, value in (row.get("counters") or {}).items():
            merged[key] = merged.get(key, 0) + int(value)
    counters = {k: v for k, v in merged.items() if v}
    if counters:
        lines.append("")
        lines.append(
            "counters: " + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    return "\n".join(lines)
