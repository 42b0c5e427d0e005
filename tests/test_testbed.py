"""Benchmark target registry, target distribution math, the ISE metric,
and the paired comparison runner."""

import json

import numpy as np
import pytest
from scipy.stats import lognorm, norm

from diffkde import DensityEstimate1D, Grid1D, lscv_select
from diffkde.testbed import (
    METHODS,
    GaussianMixture,
    BenchmarkResult,
    benchmark_to_csv,
    benchmark_to_json,
    case_grid,
    ise,
    registry,
    run_benchmark,
)

from reference import mixture_mean

THIRD = 1.0 / 3.0

EXPECTED = {
    "claw": [(0.5, 0.0, 1.0), (0.1, -1.0, 0.1), (0.1, -0.5, 0.1),
             (0.1, 0.0, 0.1), (0.1, 0.5, 0.1), (0.1, 1.0, 0.1)],
    "strongly_skewed": [(0.125, 3.0 * ((2.0 / 3.0) ** k - 1.0), (2.0 / 3.0) ** k)
                        for k in range(8)],
    "kurtotic_unimodal": [(2.0 * THIRD, 0.0, 1.0), (THIRD, 0.0, 0.1)],
    "double_claw": [(0.49, -1.0, 2.0 / 3.0), (0.49, 1.0, 2.0 / 3.0)]
    + [(1.0 / 350.0, -1.5 + 0.5 * k, 0.01) for k in range(7)],
    "discrete_comb": [(2.0 / 7.0, -15.0 / 7.0, 2.0 / 7.0),
                      (2.0 / 7.0, -3.0 / 7.0, 2.0 / 7.0),
                      (2.0 / 7.0, 9.0 / 7.0, 2.0 / 7.0),
                      (1.0 / 21.0, 16.0 / 7.0, 1.0 / 21.0),
                      (1.0 / 21.0, 18.0 / 7.0, 1.0 / 21.0),
                      (1.0 / 21.0, 20.0 / 7.0, 1.0 / 21.0)],
    "asymmetric_double_claw": [(0.46, -1.0, 2.0 / 3.0), (0.46, 1.0, 2.0 / 3.0)]
    + [(1.0 / 300.0, -0.5 * k, 0.01) for k in (1, 2, 3)]
    + [(7.0 / 300.0, 0.5 * k, 0.07) for k in (1, 2, 3)],
    "outlier": [(0.1, 0.0, 1.0), (0.9, 0.0, 0.1)],
    "separated_bimodal": [(0.5, -12.0, 0.5), (0.5, 12.0, 0.5)],
    "skewed_bimodal": [(0.75, 0.0, 1.0), (0.25, 1.5, THIRD)],
    "bimodal": [(0.5, 0.0, 0.1), (0.5, 5.0, 1.0)],
    "log_normal": [(1.0, 0.0, 1.0)],
    "asymmetric_claw": [(0.5, 0.0, 1.0)]
    + [(2.0 ** (1 - k) / 31.0, k + 0.5, 2.0 ** (-k) / 10.0)
       for k in range(-2, 3)],
    "trimodal": [(THIRD, 0.0, 1.0), (THIRD, 80.0, 4.0), (THIRD, 160.0, 9.0)],
    "five_modes": [(0.2, 80.0 * k, k + 1.0) for k in range(5)],
    "ten_modes": [(0.1, 100.0 * k, k + 1.0) for k in range(10)],
    "smooth_comb": [(2.0 ** (5 - k) / 63.0, (65.0 - 96.0 / 2.0 ** k) / 21.0,
                     (32.0 / 63.0) / 2.0 ** k) for k in range(6)],
    "bimodal_pm2": [(0.5, -2.0, 0.5), (0.5, 2.0, 0.5)],
    "separated_pm30": [(0.5, -30.0, 1.0), (0.5, 30.0, 1.0)],
}


class TestRegistry:
    def test_names(self):
        assert set(registry()) == set(EXPECTED)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_components_transcribed(self, name):
        mix = registry()[name]
        got = mix.components
        want = EXPECTED[name]
        assert len(got) == len(want), name
        for (gw, gm, gs), (ww, wm, ws) in zip(got, want):
            assert gw == pytest.approx(ww, rel=1e-12)
            assert gm == pytest.approx(wm, rel=1e-12, abs=1e-12)
            assert gs == pytest.approx(ws, rel=1e-12)
        assert mix.exp_transform == (name == "log_normal")

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_pdf_mass_on_case_grid(self, name):
        mix = registry()[name]
        g = case_grid(mix)
        from diffkde import integrate
        assert integrate(mix.pdf(g.nodes), g) == pytest.approx(1.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture("bad", ((0.5, 0.0, 1.0),))
        with pytest.raises(ValueError):
            GaussianMixture("bad", ((1.0, 0.0, -1.0),))


class TestMixtureMath:
    def test_single_component_pdf_and_cdf(self):
        mix = GaussianMixture("one", ((1.0, 2.0, 3.0),))
        xs = np.linspace(-10, 14, 9)
        assert np.allclose(mix.pdf(xs), norm.pdf(xs, 2.0, 3.0))
        assert np.allclose(mix.cdf(xs), norm.cdf(xs, 2.0, 3.0))
        assert mixture_mean(mix) == pytest.approx(2.0)

    def test_mixture_pdf_is_convex_combination(self):
        mix = registry()["bimodal_pm2"]
        xs = np.linspace(-5, 5, 21)
        direct = 0.5 * norm.pdf(xs, -2, 0.5) + 0.5 * norm.pdf(xs, 2, 0.5)
        assert np.allclose(mix.pdf(xs), direct)

    def test_log_normal_against_scipy(self):
        mix = registry()["log_normal"]
        xs = np.linspace(0.01, 10.0, 50)
        assert np.allclose(mix.pdf(xs), lognorm.pdf(xs, 1.0))
        assert np.allclose(mix.cdf(xs), lognorm.cdf(xs, 1.0))
        assert mix.pdf([-1.0, 0.0]).tolist() == [0.0, 0.0]
        assert mixture_mean(mix) == pytest.approx(np.exp(0.5))

    @pytest.mark.parametrize("name", sorted(registry()))
    def test_pdf_and_cdf_equal_scipy_norm(self, name):
        mix = registry()[name]
        xs = np.linspace(-8.0, 8.0, 2001)
        if mix.exp_transform:
            xs = np.exp(xs)
        z = np.log(xs) if mix.exp_transform else xs
        pdf = sum(w * norm.pdf(z, m, s) for w, m, s in mix.components)
        cdf = sum(w * norm.cdf(z, m, s) for w, m, s in mix.components)
        if mix.exp_transform:
            pdf = pdf / xs
        np.testing.assert_array_equal(mix.pdf(xs), pdf)
        np.testing.assert_array_equal(mix.cdf(xs), cdf)

    def test_standard_normal_helpers_equal_scipy_norm(self):
        from diffkde.kde1d import _normal_cdf, _normal_pdf
        u = np.linspace(-40.0, 40.0, 4001)
        np.testing.assert_array_equal(_normal_pdf(u), norm.pdf(u))
        np.testing.assert_array_equal(_normal_cdf(u), norm.cdf(u))

    def test_cdf_consistent_with_pdf(self):
        mix = registry()["claw"]
        g = Grid1D(-4.0, 4.0, 2 ** 12)
        from diffkde import integrate
        num = np.gradient(mix.cdf(g.nodes), g.step)
        assert np.max(np.abs(num - mix.pdf(g.nodes))) < 1e-3

    @pytest.mark.parametrize("name", ["claw", "log_normal", "ten_modes"])
    def test_sample_mean(self, name):
        mix = registry()[name]
        n = 10 ** 6
        x = mix.sample(n, np.random.default_rng(50))
        se = x.std() / np.sqrt(n)
        assert abs(x.mean() - mixture_mean(mix)) < 4.0 * se

    def test_sample_reproducible(self):
        mix = registry()["claw"]
        a = mix.sample(100, np.random.default_rng(7))
        b = mix.sample(100, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestIse:
    def test_zero_for_exact_values(self):
        mix = registry()["bimodal_pm2"]
        g = case_grid(mix)
        assert ise((mix.pdf(g.nodes), g), mix) == pytest.approx(0.0, abs=1e-15)

    def test_constant_offset_analytic(self):
        mix = registry()["bimodal_pm2"]
        g = case_grid(mix)
        c = 1e-3
        val = ise((mix.pdf(g.nodes) + c, g), mix)
        assert val == pytest.approx(c * c * g.range, rel=1e-10)

    def test_accepts_density_estimate(self):
        mix = registry()["bimodal_pm2"]
        g = case_grid(mix)
        est = DensityEstimate1D(g, mix.pdf(g.nodes), 0.01)
        assert ise(est, mix) == pytest.approx(0.0, abs=1e-15)

    def test_grid_must_hold_target_mass(self):
        mix = registry()["separated_bimodal"]
        g = Grid1D(-2.0, 2.0, 2 ** 10)
        with pytest.raises(ValueError, match="outside the grid"):
            ise((np.zeros(g.n), g), mix)

    def test_resolution_converged(self):
        # a smooth wrong estimate: the quadrature itself is resolved
        mix = registry()["claw"]
        vals = []
        for n in (2 ** 13, 2 ** 14):
            g = case_grid(mix, n=n)
            est = norm.pdf(g.nodes, 0.0, 1.2)
            vals.append(ise((est, g), mix))
        assert abs(vals[0] - vals[1]) / vals[1] < 0.01


class TestRunBenchmark:
    def test_identical_methods_give_unit_ratio(self):
        res = run_benchmark("bimodal_pm2", N=200, trials=2, method_a="sj",
                            method_b="sj", seed=0)
        assert res.ratio_median == pytest.approx(1.0)
        assert res.failures == []
        assert len(res.pairs) == 2

    def test_failed_trials_are_recorded_with_their_reason(self, monkeypatch, tmp_path):
        calls = []

        def fails_on_second_call(x, grid, lscv_t):
            calls.append(1)
            if len(calls) == 2:
                raise ArithmeticError("selector failed")
            return METHODS["sj"](x, grid, lscv_t)

        monkeypatch.setitem(METHODS, "isj", fails_on_second_call)
        res = run_benchmark("bimodal_pm2", N=200, trials=3, method_a="isj",
                            method_b="sj", seed=0)
        assert res.failures == [(1, "ArithmeticError: selector failed")]
        assert [trial for trial, _, _ in res.pairs] == [0, 2]
        benchmark_to_json(res, str(tmp_path / "out.json"))
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["failures"] == [{"trial": 1, "message": "ArithmeticError: selector failed"}]

    def test_all_trials_failing_names_the_first_reason(self, monkeypatch):
        def fails(x, grid, lscv_t):
            raise ValueError("no root")

        monkeypatch.setitem(METHODS, "isj", fails)
        with pytest.raises(ArithmeticError, match="trial 0: ValueError: no root"):
            run_benchmark("bimodal_pm2", N=200, trials=2, method_a="isj",
                          method_b="sj", seed=0)

    def test_deterministic_given_seed(self):
        a = run_benchmark("bimodal_pm2", N=200, trials=2, method_a="isj",
                          method_b="sj", seed=3)
        b = run_benchmark("bimodal_pm2", N=200, trials=2, method_a="isj",
                          method_b="sj", seed=3)
        assert a.pairs == b.pairs

    def test_two_lscv_methods_share_one_selection_per_trial(self, monkeypatch):
        selections = []

        def counted(x):
            selections.append(1)
            return lscv_select(x)

        monkeypatch.setattr("diffkde.testbed.lscv_select", counted)
        res = run_benchmark("claw", N=500, trials=3, method_a="abramson",
                            method_b="sinc", seed=1)
        assert len(res.pairs) == 3
        assert len(selections) == 3

    def test_unknown_case_and_method(self):
        with pytest.raises(KeyError, match="unknown case"):
            run_benchmark("nope", N=100, trials=1, method_a="sj",
                          method_b="sj", seed=0)
        with pytest.raises(KeyError, match="unknown method"):
            run_benchmark("claw", N=100, trials=1, method_a="sj",
                          method_b="nope", seed=0)
        with pytest.raises(ValueError):
            run_benchmark("claw", N=100, trials=0, method_a="sj",
                          method_b="sj", seed=0)

    def test_serialization(self, tmp_path):
        res = run_benchmark("bimodal_pm2", N=200, trials=2, method_a="isj",
                            method_b="sj", seed=3)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        benchmark_to_csv(res, str(csv_path))
        benchmark_to_json(res, str(json_path))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "case,N,trial,ise_a,ise_b"
        assert len(lines) == 3
        doc = json.loads(json_path.read_text())
        assert doc["case"] == "bimodal_pm2"
        assert doc["ratio_median"] == res.ratio_median
        # float round trip is exact via repr
        assert doc["pairs"][0]["ise_a"] == res.pairs[0][1]
        assert float(lines[1].split(",")[3]) == res.pairs[0][1]
