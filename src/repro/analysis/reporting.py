"""Plain-text table rendering for the experiment harness.

The benchmarks print the same row structure the paper reports (Table 1 plus
theorem-level claims); this module keeps the formatting in one place so
EXPERIMENTS.md and the bench output stay visually identical.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Monospace table with column auto-sizing."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.3g}"
    return str(v)
