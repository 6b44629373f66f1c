"""Experiment T1-MIS — Table 1 row 3 / Theorem 5.3:
MIS in O((a + log n) log n).

n-sweep at fixed a (growth must be polylog) and a-sweep at fixed n (growth
must be ≲ linear in a with a log-factor constant).
"""

import pytest

from repro import RunSpec, Session
from repro.analysis.complexity import rank_models
from repro.analysis.reporting import format_table
from repro.registry import get_algorithm

from .conftest import run_once

SEED = 1


def test_mis_n_sweep(benchmark, report):
    rows = [Session().run(RunSpec("mis", n, a=2, seed=SEED)).row for n in (32, 64, 128, 256)]
    assert all(r["correct"] for r in rows)
    assert all(r["violations"] == 0 for r in rows)

    params = [{"n": r["n"], "a": r["a"]} for r in rows]
    rounds = [r["rounds"] for r in rows]
    bound = get_algorithm("mis").bound
    fits = rank_models(params, rounds, bound)
    by_name = {f.model: f for f in fits}
    assert by_name[bound].rmse <= by_name["n"].rmse
    assert by_name[bound].rmse <= by_name["n / log n"].rmse

    report(
        format_table(
            ["n", "m", "a", "phases", "rounds", "MIS size", "messages"],
            [
                [r["n"], r["m"], r["a"], r["phases"], r["rounds"], r["mis_size"], r["messages"]]
                for r in rows
            ],
            title=f"T1-MIS n-sweep  (paper bound: {bound}, Theorem 5.3)",
        )
        + "\n  model fits (best first): "
        + "; ".join(f"{f.model} nrmse={f.rmse:.2f}" for f in fits[:3])
    )
    run_once(benchmark, lambda: Session().run(RunSpec("mis", 64, a=2, seed=SEED)).row)


def test_mis_arboricity_sweep(benchmark, report):
    rows = [Session().run(RunSpec("mis", 96, a=a, seed=SEED)).row for a in (1, 2, 4, 8)]
    assert all(r["correct"] for r in rows)
    # a-term inside the bound: 8x arboricity must cost well below 8x rounds.
    assert rows[-1]["rounds"] < 6 * rows[0]["rounds"]
    report(
        format_table(
            ["a", "rounds", "phases", "MIS size"],
            [[r["a"], r["rounds"], r["phases"], r["mis_size"]] for r in rows],
            title="T1-MIS arboricity sweep at n=96",
        )
    )
    run_once(benchmark, lambda: Session().run(RunSpec("mis", 48, a=4, seed=SEED)).row)
