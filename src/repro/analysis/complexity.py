"""Complexity-shape fitting for measured round counts.

The reproduction target is the *shape* of Table 1, not absolute constants:
for each algorithm we measure rounds over a parameter sweep and check which
candidate asymptotic model fits best (single-coefficient least squares,
compared by normalized RMSE).  A reproduction "holds" when the paper's
model is the best fit — or statistically indistinguishable from it — among
the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

ModelFn = Callable[..., float]


def log2(x: float) -> float:
    return math.log2(max(2.0, x))


#: Candidate models keyed by a readable formula.  Each takes the workload
#: descriptor dict (n, a, D, W, ...) and returns the predicted growth term.
PAPER_MODELS: dict[str, ModelFn] = {
    "log^4 n": lambda p: log2(p["n"]) ** 4,
    "log^3 n": lambda p: log2(p["n"]) ** 3,
    "log^2 n": lambda p: log2(p["n"]) ** 2,
    "log n": lambda p: log2(p["n"]),
    "n": lambda p: float(p["n"]),
    "n log n": lambda p: p["n"] * log2(p["n"]),
    "n / log n": lambda p: p["n"] / log2(p["n"]),
    "sqrt(n)": lambda p: math.sqrt(p["n"]),
    "(a + log n) log n": lambda p: (p.get("a", 1) + log2(p["n"])) * log2(p["n"]),
    "(a + D + log n) log n": lambda p: (
        p.get("a", 1) + p.get("D", 1) + log2(p["n"])
    ) * log2(p["n"]),
    "(a + log n) log^1.5 n": lambda p: (p.get("a", 1) + log2(p["n"])) * log2(p["n"]) ** 1.5,
    "a log n": lambda p: p.get("a", 1) * log2(p["n"]),
    "a + log n": lambda p: p.get("a", 1) + log2(p["n"]),
    "D log n": lambda p: p.get("D", 1) * log2(p["n"]),
}


@dataclass
class FitResult:
    """One model's single-coefficient least-squares fit."""

    model: str
    coefficient: float
    rmse: float           # normalized by mean(y)
    predictions: list[float]

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        return f"{self.coefficient:.3g} * {self.model}  (nrmse={self.rmse:.3f})"


def fit_single_coefficient(
    params: Sequence[Mapping[str, float]],
    rounds: Sequence[float],
    model: ModelFn,
    name: str = "model",
) -> FitResult:
    """Fit ``rounds ≈ c · model(params)`` by least squares."""
    x = np.array([model(p) for p in params], dtype=float)
    y = np.array(list(rounds), dtype=float)
    if len(x) == 0:
        raise ValueError("no data points")
    denom = float(np.dot(x, x))
    c = float(np.dot(x, y) / denom) if denom > 0 else 0.0
    pred = c * x
    mean_y = float(np.mean(y)) or 1.0
    rmse = float(np.sqrt(np.mean((pred - y) ** 2))) / abs(mean_y)
    return FitResult(name, c, rmse, pred.tolist())


def rank_models(
    params: Sequence[Mapping[str, float]],
    rounds: Sequence[float],
    models: Mapping[str, ModelFn] | None = None,
) -> list[FitResult]:
    """Fit every candidate and return them sorted best-first (by nRMSE)."""
    models = models if models is not None else PAPER_MODELS
    fits = [
        fit_single_coefficient(params, rounds, fn, name)
        for name, fn in models.items()
    ]
    return sorted(fits, key=lambda f: f.rmse)


def growth_exponent(ns: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log n — a quick polynomial-
    degree probe (≈0 for polylog growth over moderate ranges)."""
    lx = np.log(np.array(list(ns), dtype=float))
    ly = np.log(np.maximum(1e-9, np.array(list(ys), dtype=float)))
    lx -= lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
