"""Measured rounds vs the registered Table 1 budgets, per traced run.

Each registered algorithm declares its round bound as a string
(``AlgorithmSpec.bound``, e.g. ``"O((a + log n) log n)"``), in the grammar
of :func:`repro.analysis.complexity.parse_formula`.  This module turns a
trace's run spans into rows: the bound evaluated at the traced ``(n, a)``
and at the run's measured diameter ``D`` when its span records one, giving
the *budget shape* with every constant 1.  For a bound on whole-run rounds
it also reports measured rounds / budget.  That ratio is not pass/fail
(the bounds are asymptotic), but it is stable across runs of the same spec
and comparable across ``n``: a ratio that grows with ``n`` means the
implementation is outgrowing its declared bound.  A bound with a unit
("per invocation", "setup", "aggregations per pass") budgets a part of
the run, so its row gets no whole-run ratio.
"""

from __future__ import annotations

from typing import Any

__all__ = ["bounds_rows", "render_bounds"]


def bounds_rows(doc: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per traced run: measured rounds vs the registered budget."""
    from ..analysis.complexity import parse_formula
    from ..registry import UnknownAlgorithmError, get_algorithm
    from .export import run_metas

    rows: list[dict[str, Any]] = []
    for meta in run_metas(doc):
        algo = meta.get("algorithm")
        n = meta.get("n")
        if not algo or not n:
            continue
        row: dict[str, Any] = {
            "algorithm": algo,
            "n": int(n),
            "a": int(meta.get("a") or 2),
            "rounds": int(meta.get("rounds") or 0),
            "bound": None,
            "unit": "",
            "budget": None,
            "ratio": None,
        }
        try:
            spec = get_algorithm(str(algo))
        except UnknownAlgorithmError:
            spec = None
        if spec is not None and spec.bound:
            row["bound"] = spec.bound
            formula = parse_formula(spec.bound)
            if formula is not None:
                row["budget"] = formula(row["n"], row["a"], D=meta.get("D"))
                row["unit"] = formula.unit
                if not formula.unit and row["rounds"]:
                    row["ratio"] = row["rounds"] / row["budget"]
        rows.append(row)
    return rows


def render_bounds(doc: dict[str, Any]) -> str:
    rows = bounds_rows(doc)
    if not rows:
        return (
            "bounds: no run spans in this trace (record one with "
            "`repro run ... --trace` or `sweep --telemetry`)"
        )
    lines = [
        f"{'algorithm':<16} {'n':>8} {'a':>4} {'rounds':>8} "
        f"{'budget':>10} {'ratio':>8}  bound"
    ]
    for row in rows:
        budget = f"{row['budget']:.1f}" if row["budget"] else "-"
        ratio = f"{row['ratio']:.3f}" if row["ratio"] else "-"
        bound = row["bound"] or "(unregistered)"
        lines.append(
            f"{row['algorithm']:<16} {row['n']:>8} {row['a']:>4} "
            f"{row['rounds']:>8} {budget:>10} {ratio:>8}  {bound}"
        )
    lines.append(
        "(budget = bound evaluated with constants 1, log base 2, D = the run's "
        "diameter else log2 n, W = n;\n ratio = measured rounds / budget, for "
        "bounds on whole-run rounds only)"
    )
    return "\n".join(lines)
