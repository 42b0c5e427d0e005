"""Gaussian KDE (exact and spectral) and the interval reflection kernel."""

import numpy as np
import pytest
from scipy.stats import ks_1samp

from diffkde import (
    Grid1D,
    bin_linear,
    gauss_kde_exact,
    gauss_kde_spectral,
    integrate,
    make_grid,
    theta_sample,
)

from reference import mode_count, theta_kernel_cosine, theta_kernel_images

SQRT_2PI = np.sqrt(2.0 * np.pi)


class TestGaussKdeExact:
    def test_kernel_peak(self):
        assert gauss_kde_exact([0.0], [0.0], 1.0)[0] == pytest.approx(1.0 / SQRT_2PI)

    def test_two_point_value(self):
        val = gauss_kde_exact([-1.0, 1.0], [0.0], 1.0)[0]
        assert val == pytest.approx(np.exp(-0.5) / SQRT_2PI, rel=1e-12)

    def test_mirror_symmetry(self):
        x = np.random.default_rng(0).normal(size=50)
        xs = np.linspace(-3, 3, 7)
        a = gauss_kde_exact(x, xs, 0.3)
        b = gauss_kde_exact(-x, -xs, 0.3)
        assert np.allclose(a, b, rtol=1e-13)

    def test_nonpositive_t(self):
        with pytest.raises(ValueError):
            gauss_kde_exact([0.0], [0.0], 0.0)

    def test_infinite_t(self):
        # an infinite kernel width would give zeros
        with pytest.raises(ValueError, match="t must be finite"):
            gauss_kde_exact([0.0], [0.0], np.inf)


class TestGaussKdeSpectral:
    def test_large_t_uniform_limit(self):
        x = np.random.default_rng(1).normal(size=200)
        g = make_grid(x, n=2 ** 10)
        est = gauss_kde_spectral(bin_linear(x, g), 100.0 * g.range ** 2)
        assert np.allclose(est.values, 1.0 / g.range, rtol=1e-8)

    def test_interior_agreement_with_exact(self):
        x = np.random.default_rng(2).normal(size=500)
        t = 0.05
        # pad by more than 6 sqrt(t) so boundary images are negligible
        g = Grid1D(x.min() - 3.0, x.max() + 3.0, 2 ** 12)
        est = gauss_kde_spectral(bin_linear(x, g), t)
        exact = gauss_kde_exact(x, g.nodes, t)
        assert np.max(np.abs(est.values - exact)) <= 1e-4 * exact.max()

    def test_mass(self):
        x = np.random.default_rng(3).normal(size=300)
        g = make_grid(x, n=2 ** 12)
        est = gauss_kde_spectral(bin_linear(x, g), 0.1)
        assert integrate(est.values, g) == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_t(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            gauss_kde_spectral(bin_linear([0.5], g), -1.0)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_t(self, t):
        # an infinite time damps every mode to 0 * inf = NaN
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="finite"):
            gauss_kde_spectral(bin_linear([0.5], g), t)


class TestThetaKernel:
    def test_dual_representations_agree(self):
        pts = np.linspace(0.0, 1.0, 11)
        for t in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            ims = theta_kernel_images(pts[:, None], pts[None, :], t)
            cos = theta_kernel_cosine(pts[:, None], pts[None, :], t)
            assert np.max(np.abs(ims - cos)) < 1e-10

    def test_symmetry(self):
        assert theta_kernel_images(0.2, 0.9, 0.04) == pytest.approx(
            theta_kernel_images(0.9, 0.2, 0.04), rel=1e-13)

    def test_mass_by_quadrature(self):
        g = Grid1D(0.0, 1.0, 2 ** 12)
        for t, kernel in ((1e-3, theta_kernel_images), (0.05, theta_kernel_cosine),
                          (2.0, theta_kernel_cosine)):
            vals = kernel(g.nodes, 0.3, t)
            assert integrate(vals, g) == pytest.approx(1.0, abs=1e-8)

    def test_large_t_cosine_form(self):
        t = 30.0
        x, y = 0.25, 0.6
        approx = 1.0 + 2.0 * np.exp(-0.5 * np.pi ** 2 * t) * np.cos(
            np.pi * x) * np.cos(np.pi * y)
        assert theta_kernel_cosine(x, y, t) == pytest.approx(approx, abs=1e-15)

    def test_cross_checks_at_reference_points(self):
        assert theta_kernel_cosine(0.0, 0.0, 1.0) == pytest.approx(
            theta_kernel_images(0.0, 0.0, 1.0), abs=1e-12)
        assert theta_kernel_cosine(0.3, 0.7, 0.01) == pytest.approx(
            theta_kernel_images(0.3, 0.7, 0.01), abs=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            theta_kernel_images(1.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            theta_kernel_cosine(0.5, -0.1, 0.1)


class TestThetaEstimator:
    """gauss_kde_spectral on the unit interval is the reflection-kernel
    estimator of data on that interval."""

    def test_matches_spectral(self):
        # data on the nodes bin exactly, so the spectral estimate is the
        # direct sum of interval kernels
        g = Grid1D(0.0, 1.0, 2 ** 10)
        x = g.nodes[np.random.default_rng(4).integers(0, g.n, size=400)]
        t = 0.01
        a = theta_kernel_cosine(g.nodes[:, None], x[None, :], t).mean(axis=1)
        b = gauss_kde_spectral(bin_linear(x, g), t).values
        assert np.max(np.abs(a - b)) < 1e-9

    def test_single_point_mass(self):
        g = Grid1D(0.0, 1.0, 2 ** 10)
        est = gauss_kde_spectral(bin_linear([0.5], g), 1e-3)
        assert integrate(est.values, g) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_in_the_limit(self):
        g = Grid1D(0.0, 1.0, 2 ** 10)
        est = gauss_kde_spectral(bin_linear(np.random.default_rng(5).uniform(size=100), g),
                                 50.0)
        assert np.allclose(est.values, 1.0, atol=1e-8)

    def test_boundary_value_versus_plain_kde(self):
        # beta-density data: reflection keeps the boundary value near f(0)=4
        # while the plain Gaussian KDE halves it
        rng = np.random.default_rng(6)
        x = rng.beta(1.0, 4.0, size=1000)
        t = 0.05248 ** 2
        g = Grid1D(0.0, 1.0, 2 ** 10)
        at0 = gauss_kde_spectral(bin_linear(x, g), t).values[0]
        plain = gauss_kde_exact(x, [0.0], t)[0]
        assert abs(at0 - 4.0) < 1.0  # within 25 percent of 4
        assert abs(plain - 2.0) < 0.5

    def test_data_outside_interval(self):
        g = Grid1D(0.0, 1.0, 2 ** 10)
        with pytest.raises(ValueError):
            gauss_kde_spectral(bin_linear([1.2], g), 0.01)


class TestThetaSample:
    def test_outputs_in_domain(self):
        rng = np.random.default_rng(7)
        draws = theta_sample(np.full(10 ** 4, 0.9), 4.0, rng)
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_small_t_concentrates_at_y(self):
        rng = np.random.default_rng(8)
        draws = theta_sample(np.full(1000, 0.3), 1e-10, rng)
        assert np.max(np.abs(draws - 0.3)) < 1e-3

    def test_ks_against_kernel_cdf(self):
        y, t = 0.5, 0.04
        rng = np.random.default_rng(9)
        draws = theta_sample(np.full(10 ** 5, y), t, rng)
        g = Grid1D(0.0, 1.0, 2 ** 12)
        pdf = theta_kernel_images(g.nodes, y, t)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * g.step)))
        cdf /= cdf[-1]
        stat = ks_1samp(draws, lambda q: np.interp(q, g.nodes, cdf)).statistic
        assert stat < 0.01

    def test_y_validation(self):
        with pytest.raises(ValueError):
            theta_sample(1.5, 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            theta_sample(np.array([0.2, 1.5]), 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("t", [np.inf, np.nan, -1.0])
    def test_invalid_t(self, t):
        # each of these once drew NaN
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            theta_sample(np.full(10, 0.5), t, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_array_of_centres_matches_per_draw_loop(self, seed):
        centres = np.random.default_rng([50, seed]).random(10 ** 4)
        t = 10.0 ** -(seed + 1)
        rng = np.random.default_rng(seed)
        loop = np.array([theta_sample(c, t, rng) for c in centres])
        np.testing.assert_array_equal(
            theta_sample(centres, t, np.random.default_rng(seed)), loop)


class TestModeCount:
    def _est(self, values):
        g = Grid1D(0.0, 1.0, 2 ** 4)
        v = np.asarray(values, dtype=float)
        v = np.resize(v, 16)
        from diffkde import DensityEstimate1D
        return DensityEstimate1D(g, v, 0.01)

    def test_constant(self):
        assert mode_count(self._est(np.ones(16))) == 0

    def test_single_bump(self):
        u = np.linspace(0, 1, 16)
        assert mode_count(self._est(np.exp(-20 * (u - 0.5) ** 2))) == 1

    def test_claw_sample_monotone_in_t(self):
        from diffkde.testbed import registry
        mix = registry()["claw"]
        x = mix.sample(2000, np.random.default_rng(10))
        g = make_grid(x, n=2 ** 12)
        b = bin_linear(x, g)
        counts = [mode_count(gauss_kde_spectral(b, t))
                  for t in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)]
        assert counts[0] >= 5
        assert counts[-1] == 1
        assert all(a >= b for a, b in zip(counts, counts[1:]))
