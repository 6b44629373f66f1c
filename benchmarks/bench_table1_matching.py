"""Experiment T1-MM — Table 1 row 4 / Theorem 5.4:
maximal matching in O((a + log n) log n).

Same sweep structure as T1-MIS: the two problems share the bound and the
broadcast-tree machinery, so their round counts should land in the same
regime (the table makes that comparison explicit).
"""

import pytest

from repro import RunSpec, Session
from repro.analysis.complexity import rank_models
from repro.analysis.reporting import format_table
from repro.registry import get_algorithm

from .conftest import run_once

SEED = 1


def test_matching_n_sweep(benchmark, report):
    rows = [Session().run(RunSpec("matching", n, a=2, seed=SEED)).row for n in (32, 64, 128, 256)]
    assert all(r["correct"] for r in rows)
    assert all(r["violations"] == 0 for r in rows)

    params = [{"n": r["n"], "a": r["a"]} for r in rows]
    rounds = [r["rounds"] for r in rows]
    bound = get_algorithm("matching").bound
    fits = rank_models(params, rounds, bound)
    by_name = {f.model: f for f in fits}
    assert by_name[bound].rmse <= by_name["n"].rmse

    # Cross-row comparison with MIS (same bound): within a small factor.
    mis_rows = [Session().run(RunSpec("mis", n, a=2, seed=SEED)).row for n in (32, 64)]
    for mm_r, mis_r in zip(rows[:2], mis_rows):
        ratio = mm_r["rounds"] / mis_r["rounds"]
        assert 0.2 < ratio < 5.0

    report(
        format_table(
            ["n", "m", "a", "phases", "rounds", "|M|", "messages"],
            [
                [r["n"], r["m"], r["a"], r["phases"], r["rounds"], r["matching_size"], r["messages"]]
                for r in rows
            ],
            title=f"T1-MM n-sweep  (paper bound: {bound}, Theorem 5.4)",
        )
        + "\n  model fits (best first): "
        + "; ".join(f"{f.model} nrmse={f.rmse:.2f}" for f in fits[:3])
    )
    run_once(benchmark, lambda: Session().run(RunSpec("matching", 64, a=2, seed=SEED)).row)


def test_matching_arboricity_sweep(benchmark, report):
    rows = [Session().run(RunSpec("matching", 96, a=a, seed=SEED)).row for a in (1, 2, 4, 8)]
    assert all(r["correct"] for r in rows)
    assert rows[-1]["rounds"] < 6 * rows[0]["rounds"]
    report(
        format_table(
            ["a", "rounds", "phases", "|M|"],
            [[r["a"], r["rounds"], r["phases"], r["matching_size"]] for r in rows],
            title="T1-MM arboricity sweep at n=96",
        )
    )
    run_once(benchmark, lambda: Session().run(RunSpec("matching", 48, a=4, seed=SEED)).row)
