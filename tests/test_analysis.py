"""Complexity fitting and table rendering."""

import math

import pytest

from repro.analysis.complexity import (
    ALTERNATIVES,
    fit_single_coefficient,
    growth_exponent,
    parse_formula,
    rank_models,
)
from repro.analysis.reporting import format_table
from repro.registry import iter_algorithms

#: Plain shapes plus every registered bound, planted as formula strings.
PLANTED = ["log^4 n", "n", "n / log n", "n^{1/2}"] + sorted(
    {spec.bound for spec in iter_algorithms() if spec.bound}
)


class TestFitting:
    def synth(self, formula, ns, coeff=3.0, a=2, D=10):
        model = parse_formula(formula)
        params = [{"n": n, "a": a, "D": D} for n in ns]
        ys = [coeff * model(**p) for p in params]
        return params, ys

    def test_recovers_planted_coefficient(self):
        params, ys = self.synth("log^4 n", [32, 64, 128, 256, 512])
        fit = fit_single_coefficient(params, ys, "log^4 n")
        assert fit.model == "log^4 n"
        assert fit.coefficient == pytest.approx(3.0)
        assert fit.rmse < 1e-9

    @pytest.mark.parametrize("planted", PLANTED)
    def test_best_model_identifies_planted(self, planted):
        params, ys = self.synth(planted, [32, 64, 128, 256, 512, 1024])
        fits = rank_models(params, ys, planted)
        fit = fits[0]
        # the planted model must fit essentially perfectly
        planted_fit = [f for f in fits if f.model == planted][0]
        assert planted_fit.rmse < 1e-9
        assert fit.rmse <= planted_fit.rmse + 1e-12
        # each shape is ranked once: an alternative equal to the bound drops out
        assert len(fits) == len(ALTERNATIVES) + (parse_formula(planted).expr not in ALTERNATIVES)

    def test_noise_tolerated(self):
        import random

        rng = random.Random(1)
        params, ys = self.synth("log^2 n", [32, 64, 128, 256, 512])
        noisy = [y * rng.uniform(0.95, 1.05) for y in ys]
        fits = rank_models(params, noisy)
        planted = [f for f in fits if f.model == "log^2 n"][0]
        assert planted.rmse < 0.1

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_single_coefficient([], [], "n")

    def test_unparseable_formula_rejected(self):
        with pytest.raises(ValueError, match="does not parse"):
            fit_single_coefficient([{"n": 16}], [1.0], "sqrt(n)")


class TestGrowthProbes:
    def test_linear_exponent(self):
        ns = [32, 64, 128, 256]
        assert growth_exponent(ns, [5 * n for n in ns]) == pytest.approx(1.0)

    def test_quadratic_exponent(self):
        ns = [32, 64, 128, 256]
        assert growth_exponent(ns, [n * n for n in ns]) == pytest.approx(2.0)

    def test_polylog_exponent_small(self):
        ns = [64, 256, 1024, 4096]
        ys = [math.log2(n) ** 3 for n in ns]
        assert growth_exponent(ns, ys) < 0.7


class TestReporting:
    def test_format_table_aligns(self):
        out = format_table(
            ["n", "rounds"], [[32, 1000], [1024, 250000]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "n" in lines[1] and "rounds" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        out = format_table(["x"], [[0.123456], [12.3], [1234.5]])
        assert out.splitlines()[2:] == ["0.123", "12.30", "1234 "]
