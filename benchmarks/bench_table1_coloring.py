"""Experiment T1-COL — Table 1 row 5 / Theorem 5.5:
O(a)-coloring in O((a + log n) log^{3/2} n) with palette 2(1+ε)â.

Besides the round sweep, the color-count table checks the *quality* claim:
colors used ≤ 2(1+ε)â = O(a), independent of ∆ (the star row pins that)."""

import pytest

from repro import RunSpec, Session
from repro.registry import bench_config, get_algorithm
from repro.analysis.complexity import rank_models
from repro.analysis.reporting import format_table

from .conftest import run_once

SEED = 1


def test_coloring_n_sweep(benchmark, report):
    rows = [Session().run(RunSpec("coloring", n, a=2, seed=SEED)).row for n in (32, 64, 128, 256)]
    assert all(r["correct"] for r in rows)
    assert all(r["violations"] == 0 for r in rows)

    params = [{"n": r["n"], "a": r["a"]} for r in rows]
    rounds = [r["rounds"] for r in rows]
    bound = get_algorithm("coloring").bound
    fits = rank_models(params, rounds, bound)
    by_name = {f.model: f for f in fits}
    assert by_name[bound].rmse <= by_name["n"].rmse

    report(
        format_table(
            ["n", "a", "repetitions", "rounds", "colors", "palette"],
            [
                [r["n"], r["a"], r["repetitions"], r["rounds"], r["colors_used"], r["palette"]]
                for r in rows
            ],
            title=f"T1-COL n-sweep  (paper bound: {bound}, Theorem 5.5)",
        )
        + "\n  model fits (best first): "
        + "; ".join(f"{f.model} nrmse={f.rmse:.2f}" for f in fits[:3])
    )
    run_once(benchmark, lambda: Session().run(RunSpec("coloring", 64, a=2, seed=SEED)).row)


def test_coloring_quality_independent_of_delta(benchmark, report):
    """Star: ∆ = n−1 but a = 1 — palette must stay O(1)."""
    from repro import NCCRuntime
    from repro.algorithms import ColoringAlgorithm
    from repro.baselines.sequential import is_proper_coloring
    from repro.graphs import generators

    rows = []
    for n in (32, 64, 128):
        g = generators.star(n)
        rt = NCCRuntime(n, bench_config(SEED))
        res = ColoringAlgorithm(rt, g).run()
        assert is_proper_coloring(g, res.colors)
        rows.append([n, n - 1, res.a_hat, res.palette_size, res.colors_used()])
        assert res.palette_size <= 6  # 2(1+ε)·â with â = 1
    report(
        format_table(
            ["n", "max degree", "â", "palette", "colors used"],
            rows,
            title="T1-COL stars: palette tracks a, not ∆",
        )
    )
    run_once(benchmark, lambda: None)


def test_coloring_arboricity_sweep(benchmark, report):
    rows = [Session().run(RunSpec("coloring", 96, a=a, seed=SEED)).row for a in (1, 2, 4)]
    assert all(r["correct"] for r in rows)
    # Palette grows linearly in â (the 2(1+ε)â formula).
    palettes = [r["palette"] for r in rows]
    assert palettes == sorted(palettes)
    report(
        format_table(
            ["a", "rounds", "colors", "palette"],
            [[r["a"], r["rounds"], r["colors_used"], r["palette"]] for r in rows],
            title="T1-COL arboricity sweep at n=96",
        )
    )
    run_once(benchmark, lambda: Session().run(RunSpec("coloring", 48, a=4, seed=SEED)).row)
