"""Grid construction, linear binning, cosine transforms and quadrature."""

import numpy as np
import pytest
from scipy.stats import norm

from diffkde import BinnedHistogram, DensityEstimate1D, Grid1D, bin_linear, integrate, make_grid
from diffkde.grids import cosine_moments, cosine_synthesis, trapezoid_weights


class TestGrid1D:
    def test_nodes_and_step(self):
        g = Grid1D(0.0, 1.0, 16)
        assert g.step == pytest.approx(1.0 / 15.0)
        assert g.range == 1.0
        assert np.allclose(g.nodes, np.linspace(0, 1, 16))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 16)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 15)  # not a power of two
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 8)  # below the floor

    def test_to_unit(self):
        g = Grid1D(-2.0, 6.0, 16)
        assert g.to_unit(-2.0) == 0.0
        assert g.to_unit(6.0) == 1.0
        assert g.to_unit(2.0) == pytest.approx(0.5)


class TestMakeGrid:
    def test_two_point_sample(self):
        g = make_grid([0.0, 1.0], n=16, pad_fraction=0.1)
        assert g.lo == pytest.approx(-0.1)
        assert g.hi == pytest.approx(1.1)

    def test_degenerate_sample_expands_by_one(self):
        g = make_grid([5.0, 5.0, 5.0], n=16, pad_fraction=0.1)
        assert g.lo == 4.0 and g.hi == 6.0

    def test_normal_draws_match_min_max(self):
        x = np.random.default_rng(0).normal(size=1000)
        g = make_grid(x, n=2 ** 14, pad_fraction=0.1)
        r = x.max() - x.min()
        assert g.lo == pytest.approx(x.min() - 0.1 * r)
        assert g.hi == pytest.approx(x.max() + 0.1 * r)

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            make_grid([], n=16)

    def test_non_finite_sample(self):
        with pytest.raises(ValueError):
            make_grid([0.0, np.nan], n=16)


class TestBinLinear:
    def test_point_at_node(self):
        g = Grid1D(0.0, 1.0, 16)
        b = bin_linear([g.nodes[3]], g)
        assert b.weights[3] == pytest.approx(1.0)
        assert b.weights.sum() == pytest.approx(1.0)

    def test_point_at_cell_midpoint(self):
        g = Grid1D(0.0, 1.0, 16)
        mid = 0.5 * (g.nodes[4] + g.nodes[5])
        b = bin_linear([mid], g)
        assert b.weights[4] == pytest.approx(0.5)
        assert b.weights[5] == pytest.approx(0.5)

    def test_mass_and_mean_preserved(self):
        x = np.random.default_rng(1).normal(size=10 ** 4)
        g = make_grid(x, n=2 ** 14)
        b = bin_linear(x, g)
        assert b.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (b.weights @ g.nodes) == pytest.approx(x.mean(), abs=1e-10)

    @pytest.mark.parametrize("N", [1, 1000, 10 ** 6])
    def test_matches_add_at_reference(self, N):
        rng = np.random.default_rng(2)
        x = rng.normal(size=N)
        g = make_grid(np.concatenate([x, [-6.0, 6.0]]), n=2 ** 12)
        pos = (x - g.lo) / g.step
        idx = np.minimum(pos.astype(np.int64), g.n - 2)
        frac = pos - idx
        ref = np.zeros(g.n)
        np.add.at(ref, idx, 1.0 - frac)
        np.add.at(ref, idx + 1, frac)
        ref /= N
        assert np.max(np.abs(bin_linear(x, g).weights - ref)) <= 1e-15

    def test_point_outside_grid(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="outside"):
            bin_linear([1.5], g)


class TestIntegrate:
    def test_constant_one(self):
        g = Grid1D(0.0, 1.0, 16)
        assert integrate(np.ones(16), g) == pytest.approx(1.0)

    def test_hat_function(self):
        # height-2 triangle over half of [0,1]: area 0.5 * base 0.5 * height 2
        g = Grid1D(0.0, 1.0, 1024)
        u = g.nodes
        v = np.where(np.abs(u - 0.5) < 0.25, 2.0 * (1.0 - np.abs(u - 0.5) / 0.25), 0.0)
        assert integrate(v, g) == pytest.approx(0.5, abs=1e-4)

    def test_normal_pdf(self):
        g = Grid1D(-8.0, 8.0, 2 ** 14)
        assert integrate(norm.pdf(g.nodes), g) == pytest.approx(1.0, abs=1e-10)

    def test_linear_exactness(self):
        g = Grid1D(0.0, 2.0, 64)
        v = 3.0 * g.nodes + 1.0
        assert integrate(v, g) == pytest.approx(8.0, rel=1e-13)

    def test_trapezoid_weights_sum_to_range(self):
        g = Grid1D(-1.0, 3.0, 128)
        assert trapezoid_weights(g).sum() == pytest.approx(4.0)
        v = np.random.default_rng(4).normal(size=128)
        assert trapezoid_weights(g) @ v == pytest.approx(integrate(v, g))


class TestNodeAlignedCosine:
    """The DCT-I based transforms against O(n^2) literal sums."""

    def test_moments_against_direct_sum(self):
        n = 64
        v = np.random.default_rng(5).normal(size=n)
        u = np.arange(n) / (n - 1)
        k = np.arange(n)
        direct = np.cos(np.pi * np.outer(k, u)) @ v
        assert np.allclose(cosine_moments(v), direct, atol=1e-10)

    def test_synthesis_against_direct_sum(self):
        n = 64
        b = np.random.default_rng(6).normal(size=n)
        u = np.arange(n) / (n - 1)
        k = np.arange(n)
        direct = b[0] + 2.0 * (np.cos(np.pi * np.outer(u, k[1:])) @ b[1:])
        assert np.allclose(cosine_synthesis(b), direct, atol=1e-10)

    def test_axis_handling(self):
        m = np.random.default_rng(7).normal(size=(32, 64))
        byrows = np.stack([cosine_moments(r) for r in m])
        assert np.allclose(cosine_moments(m, axis=1), byrows, atol=1e-10)


class TestDensityEstimate:
    def test_negative_values_rejected(self):
        g = Grid1D(0.0, 1.0, 16)
        v = np.full(16, 1.0)
        v[3] = -1e-6
        with pytest.raises(ValueError, match="below"):
            DensityEstimate1D(g, v, 0.01)

    def test_tiny_negative_clipped(self):
        g = Grid1D(0.0, 1.0, 16)
        v = np.full(16, 1.0)
        v[3] = -1e-13
        est = DensityEstimate1D(g, v, 0.01)
        assert est.values[3] == 0.0

    def test_histogram_length_check(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            BinnedHistogram(g, np.ones(8))
