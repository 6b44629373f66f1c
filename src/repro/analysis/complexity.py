"""The Table 1 bound grammar, and complexity-shape fitting for round counts.

Each registered algorithm writes its paper bound once, as
``AlgorithmSpec.bound`` (e.g. ``"O((a + log n) log n)"``).
:func:`parse_formula` is the one reader of that grammar: the trace's bounds
report (``repro.telemetry.bounds``) and the fits below both use it.

Grammar
-------
A formula is ``O(expr) unit`` or a bare ``expr``.  An ``expr`` combines
numbers, the variables ``n`` (nodes), ``a`` (arboricity), ``D`` (diameter)
and ``W`` (maximum edge weight), ``log n`` and ``log W``, powers written
``^k`` or ``^{p/q}`` (``log^{3/2} n``, ``n^{1/2}``), ``+ - * /`` and
parentheses; juxtaposition multiplies.  The text after ``O(...)`` is the
bound's unit ("per invocation", "setup", ...); empty means whole-run
rounds.  Logs are base 2, floored at 1, and ``a`` is at least 1.
``D = log2 n`` and ``W = n`` apply only when the caller gives no value.
Every constant is 1, so a formula gives a budget *shape*.

Fits
----
The reproduction target is the *shape* of Table 1, not absolute constants:
for each algorithm we measure rounds over a parameter sweep and fit every
candidate formula by single-coefficient least squares, compared by
normalized RMSE.  A reproduction "holds" when the paper's bound fits at
least as well as the plain alternatives its benchmark names.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import CodeType
from typing import Mapping, Sequence

import numpy as np

_EXPONENT = r"\^(?:\{\d+/\d+\}|\d+)"

_TOKEN = re.compile(
    rf"""
    (?P<log>log(?P<log_exp>{_EXPONENT})?\s*(?P<log_arg>[nW]))
  | (?P<var>(?P<var_name>[naDW])(?P<var_exp>{_EXPONENT})?)
  | (?P<num>\d+)
  | (?P<op>[()+*/-])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_BOUND = re.compile(r"^\s*O\((?P<expr>.*)\)(?P<unit>[^)]*)$", re.S)

#: Plain growth shapes every fit ranks a paper bound against.
ALTERNATIVES = ("log n", "log^2 n", "log^3 n", "log^4 n", "n^{1/2}", "n / log n", "n", "n log n")


def _log2(x: float) -> float:
    return math.log2(max(2.0, float(x)))


def _power(exponent: str | None) -> str:
    """``^4`` -> ``" ** 4"``, ``^{3/2}`` -> ``" ** (3 / 2)"``, none -> ``""``."""
    if not exponent:
        return ""
    p, _, q = exponent[1:].strip("{}").partition("/")
    return f" ** ({p} / {q})" if q else f" ** {p}"


def _split(text: str) -> tuple[str, str]:
    """``"O(expr) unit"`` -> ``(expr, unit)``; a bare formula has no unit."""
    m = _BOUND.match(text)
    return (m.group("expr"), m.group("unit").strip()) if m else (text.strip(), "")


@dataclass(frozen=True)
class Formula:
    """A parsed formula; call it with ``(n, a, D, W)`` for its value."""

    expr: str  # the expression as written, without O(...) and unit
    unit: str  # the text after O(...); "" means whole-run rounds
    code: CodeType

    def __call__(self, n: float, a: float = 1, D: float | None = None, W: float | None = None) -> float:
        log_n = _log2(n)
        w = float(n if W is None else W)
        values = {
            "n": float(n),
            "a": float(max(1, a)),
            "D": float(log_n if D is None else D),
            "W": w,
            "log_n": log_n,
            "log_W": _log2(w),
        }
        # ``code`` names only these values: every token of it came from _TOKEN.
        return float(eval(self.code, {"__builtins__": {}}, values))  # noqa: S307


def parse_formula(text: str) -> Formula | None:
    """Parse a formula in the grammar above; ``None`` when it does not parse."""
    expr, unit = _split(text)
    parts: list[str] = []
    operand_end = False  # the last part ends an operand: a next one multiplies
    pos = 0
    while pos < len(expr):
        tok = _TOKEN.match(expr, pos)
        if tok is None:
            return None
        pos = tok.end()
        kind = tok.lastgroup
        if kind == "ws":
            continue
        if kind == "op" and tok.group("op") != "(":
            parts.append(tok.group("op"))
            operand_end = tok.group("op") == ")"
            continue
        if operand_end:
            parts.append("*")
        if kind == "log":
            parts.append(f"log_{tok.group('log_arg')}{_power(tok.group('log_exp'))}")
        elif kind == "var":
            parts.append(tok.group("var_name") + _power(tok.group("var_exp")))
        else:  # a number or "("
            parts.append(tok.group(kind))
        operand_end = kind != "op"
    try:
        code = compile(" ".join(parts), "<formula>", "eval")
    except SyntaxError:
        return None
    return Formula(expr, unit, code)


@dataclass
class FitResult:
    """One formula's single-coefficient least-squares fit."""

    model: str
    coefficient: float
    rmse: float  # normalized by mean(y)
    predictions: list[float]

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"{self.coefficient:.3g} * {self.model}  (nrmse={self.rmse:.3f})"


def fit_single_coefficient(
    params: Sequence[Mapping[str, float]],
    rounds: Sequence[float],
    formula: str,
) -> FitResult:
    """Fit ``rounds ≈ c · formula(**p)`` by least squares over ``params``."""
    model = parse_formula(formula)
    if model is None:
        raise ValueError(f"formula does not parse: {formula!r}")
    x = np.array([model(**p) for p in params], dtype=float)
    y = np.array(list(rounds), dtype=float)
    if len(x) == 0:
        raise ValueError("no data points")
    denom = float(np.dot(x, x))
    c = float(np.dot(x, y) / denom) if denom > 0 else 0.0
    pred = c * x
    mean_y = float(np.mean(y)) or 1.0
    rmse = float(np.sqrt(np.mean((pred - y) ** 2))) / abs(mean_y)
    return FitResult(formula, c, rmse, pred.tolist())


def rank_models(
    params: Sequence[Mapping[str, float]],
    rounds: Sequence[float],
    bound: str | None = None,
) -> list[FitResult]:
    """Fit :data:`ALTERNATIVES` plus ``bound`` and return them best-first.

    ``bound`` is the formula under test, usually a registered
    ``AlgorithmSpec.bound``; an alternative with its expression is left
    out, so each shape is ranked once.
    """
    formulas = list(ALTERNATIVES)
    if bound is not None:
        expr = _split(bound)[0]
        formulas = [f for f in formulas if f != expr] + [bound]
    fits = [fit_single_coefficient(params, rounds, f) for f in formulas]
    return sorted(fits, key=lambda f: f.rmse)


def growth_exponent(ns: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log n — a quick polynomial-
    degree probe (≈0 for polylog growth over moderate ranges)."""
    lx = np.log(np.array(list(ns), dtype=float))
    ly = np.log(np.maximum(1e-9, np.array(list(ys), dtype=float)))
    lx -= lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
