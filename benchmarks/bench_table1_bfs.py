"""Experiment T1-BFS — Table 1 row 2 / Theorem 5.2:
BFS tree in O((a + D + log n) log n).

Two sweeps probe the two variables of the bound:

* grids (planar, a ≤ 3) of growing side: D = 2(√n − 1) dominates, so
  rounds must track D·log n;
* bounded-arboricity forest unions at fixed n with a ∈ {1..8}: D stays
  small, rounds must grow only mildly in a.
"""

import pytest

from repro import RunSpec, Session
from repro.analysis.complexity import rank_models
from repro.registry import get_algorithm
from repro.analysis.reporting import format_table

from .conftest import run_once

SEED = 1


def test_bfs_grid_diameter_sweep(benchmark, report):
    rows = [
        Session().run(RunSpec("bfs", n, scenario="grid", seed=SEED)).row
        for n in (16, 36, 64, 144, 256)
    ]
    assert all(r["correct"] for r in rows)
    assert all(r["violations"] == 0 for r in rows)

    params = [{"n": r["n"], "a": r["a"], "D": r["D"]} for r in rows]
    rounds = [r["rounds"] for r in rows]
    bound = get_algorithm("bfs").bound
    fits = rank_models(params, rounds, bound)
    by_name = {f.model: f for f in fits}
    # The paper's model must beat diameter-free alternatives.
    assert by_name[bound].rmse <= by_name["log^2 n"].rmse
    assert by_name[bound].rmse <= by_name["n"].rmse

    report(
        format_table(
            ["n", "D", "a", "phases", "rounds", "messages"],
            [[r["n"], r["D"], r["a"], r["phases"], r["rounds"], r["messages"]] for r in rows],
            title=f"T1-BFS grids  (paper bound: {bound}, Theorem 5.2)",
        )
        + "\n  model fits (best first): "
        + "; ".join(f"{f.model} nrmse={f.rmse:.2f}" for f in fits[:3])
    )
    run_once(benchmark, lambda: Session().run(RunSpec("bfs", 64, scenario="grid", seed=SEED)).row)


def test_bfs_arboricity_sweep(benchmark, report):
    rows = [Session().run(RunSpec("bfs", 96, a=a, seed=SEED)).row for a in (1, 2, 4, 8)]
    assert all(r["correct"] for r in rows)
    # Forest unions have tiny diameter; rounds should grow sublinearly in a
    # (the a-term rides inside one log n factor).
    assert rows[-1]["rounds"] < 6 * rows[0]["rounds"]
    report(
        format_table(
            ["a", "n", "D", "rounds", "messages"],
            [[r["a"], r["n"], r["D"], r["rounds"], r["messages"]] for r in rows],
            title="T1-BFS arboricity sweep at n=96",
        )
    )
    run_once(benchmark, lambda: Session().run(RunSpec("bfs", 64, a=4, seed=SEED)).row)
