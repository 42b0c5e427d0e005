"""Reference estimators: cross-validated bandwidth selection, the
variable-bandwidth (square-root law) estimator, the sinc kernel, and the
boundary-corrected estimator for truncated data.  The first three are
cosine series; ``reference`` holds the direct sums they are checked
against."""

import tracemalloc
import warnings

import numpy as np
import pytest
from reference import (
    direct_abramson,
    direct_lscv_select,
    direct_sinc,
    lscv_score_pairs,
    pairwise_sq,
)

from diffkde import comparators, testbed
from diffkde import (
    Grid1D,
    abramson_estimate,
    bin_linear,
    gauss_kde_exact,
    hall_park_estimate,
    integrate,
    lscv_select,
    make_grid,
    sinc_kde,
)
from diffkde.comparators import _LADDER_SIZE, _lscv_score


def full_matrix_sq(x):
    """Squared differences over all N^2 ordered pairs, diagonal included."""
    d = x[:, None] - x[None, :]
    return d * d


def full_matrix_score(d2, N, t):
    """LSCV(t) from the full N x N matrix, one exp for each term: the
    oracle for the distinct-pair score."""
    term1 = np.exp(-0.25 * d2 / t).sum() / (N * N * np.sqrt(4.0 * np.pi * t))
    off = np.exp(-0.5 * d2 / t).sum() - N  # drop the diagonal
    term2 = 2.0 * off / (N * (N - 1) * np.sqrt(2.0 * np.pi * t))
    return term1 - term2


class TestLscvScore:
    @pytest.mark.parametrize("t", [1e-4, 1e-2, 0.3, 5.0])
    def test_distinct_pairs_match_full_matrix(self, t):
        y = np.random.default_rng(42).standard_t(3, size=400)
        fast = lscv_score_pairs(pairwise_sq(y), y.size, t)
        full = full_matrix_score(full_matrix_sq(y), y.size, t)
        assert abs(fast - full) <= 1e-12 * abs(full)

    @pytest.mark.parametrize("t", [1e-2, 0.3, 5.0])
    def test_spectral_score_matches_direct_sum(self, t):
        # on ladder bandwidths whose kernels stay inside the 10% pad, the
        # reflection-kernel score of the binned sample is the whole-line
        # pair sum up to binning
        y = np.random.default_rng(42).standard_t(3, size=400)
        binned = bin_linear(y, make_grid(y, 2 ** 14, 0.1))
        spectral = float(_lscv_score(binned, y.size, t, 2 ** 13))
        direct = lscv_score_pairs(pairwise_sq(y), y.size, t)
        assert spectral == pytest.approx(direct, rel=1e-4)

    @pytest.mark.parametrize("case", sorted(testbed.registry()))
    def test_selection_matches_full_matrix_selection(self, case):
        # the same degenerate flag and ladder minimum as the full-matrix
        # direct sum; binning on 2^14 nodes moves the refined t by up to
        # 3.3e-3 at N = 300 (both double claws)
        x = testbed.registry()[case].sample(300, np.random.default_rng([43, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = lscv_select(x)
        full = direct_lscv_select(x, full_matrix_sq, full_matrix_score)
        assert fast.degenerate == full.degenerate
        assert (np.argmin([p[1] for p in fast.score_curve])
                == np.argmin([p[1] for p in full.score_curve]))
        assert abs(fast.t - full.t) <= 5e-3 * full.t

    def test_matches_literal_leave_one_out(self):
        # integral term by fine quadrature, cross term by an explicit
        # leave-one-out loop: the oracle of the pair sum
        y = np.random.default_rng(41).normal(size=100)
        t = 0.05
        grid = np.linspace(y.min() - 6.0, y.max() + 6.0, 20001)
        fh = gauss_kde_exact(y, grid, t)
        term1 = np.trapezoid(fh * fh, grid)
        loo = sum(gauss_kde_exact(np.delete(y, i), [y[i]], t)[0]
                  for i in range(y.size))
        literal = term1 - 2.0 * loo / y.size
        fast = lscv_score_pairs(pairwise_sq(y), y.size, t)
        assert fast == pytest.approx(literal, abs=1e-10)


class TestLscvSelect:
    def test_gaussian_within_factor_two_of_amise(self):
        x = np.random.default_rng(40).normal(size=1000)
        res = lscv_select(x)
        amise_t = (4.0 / (3.0 * x.size)) ** 0.4
        assert 0.5 < res.t / amise_t < 2.0
        assert not res.degenerate

    def test_refined_t_between_ladder_neighbors(self):
        x = np.random.default_rng(40).normal(size=1000)
        res = lscv_select(x)
        ts = np.array([p[0] for p in res.score_curve])
        scores = np.array([p[1] for p in res.score_curve])
        assert len(res.score_curve) == _LADDER_SIZE
        best = int(np.argmin(scores))
        assert ts[best - 1] <= res.t <= ts[best + 1]

    def test_duplicate_heavy_sample_is_degenerate(self):
        x = np.concatenate([np.zeros(50),
                            np.random.default_rng(2).normal(5.0, 1.0, 50)])
        with pytest.warns(UserWarning, match="ladder"):
            res = lscv_select(x)
        assert res.degenerate
        ts = np.array([p[0] for p in res.score_curve])
        assert res.t == pytest.approx(ts[_LADDER_SIZE // 2])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_bimodal_pm2_draw_is_not_degenerate(self):
        """A draw on which the LSCV ladder misses the minimum.  The midpoint
        fallback once gave the whole-line sinc sum mass 1.083 here, outside
        the 1 +- 0.05 that the benchmark's cli_compare check allows; the
        cosine series keeps its mass (TestSincKde), but the selection stays
        degenerate."""
        x = testbed.registry()["bimodal_pm2"].sample(1000, np.random.default_rng([17, 37]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = lscv_select(x)
        assert not res.degenerate
        grid = make_grid(x, 2 ** 12)
        assert abs(integrate(sinc_kde(x, grid, res.t), grid) - 1.0) <= 0.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lscv_select(np.arange(5.0))

    def test_zero_range(self):
        with pytest.raises(ValueError, match="zero range"):
            lscv_select(np.full(50, 3.0))


class TestAbramson:
    def test_flat_pilot_reduces_to_fixed_bandwidth(self):
        # a symmetric pair has equal pilot values at both points, so every
        # local scale is 1; far from the grid ends the reflected kernels are
        # the plain ones
        grid = Grid1D(-8.0, 8.0, 2 ** 10)
        xp = np.array([-1.0, 1.0])
        a = abramson_estimate(xp, grid, t=0.09)
        b = gauss_kde_exact(xp, grid.nodes, 0.09)
        assert np.max(np.abs(a - b)) < 1e-13

    def test_permutation_invariance(self):
        x = np.random.default_rng(42).normal(size=80)
        grid = Grid1D(-5.0, 5.0, 2 ** 10)
        a = abramson_estimate(x, grid, t=0.05)
        b = abramson_estimate(np.random.default_rng(0).permutation(x), grid, t=0.05)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_mass(self):
        # reflected kernels lose no mass past the grid ends
        x = np.random.default_rng(43).normal(size=200)
        grid = make_grid(x, 2 ** 12)
        vals = abramson_estimate(x, grid, t=0.08)
        assert integrate(vals, grid) == pytest.approx(1.0, abs=1e-12)
        assert vals.min() >= 0.0

    def test_adaptive_tails_beat_fixed_bandwidth_in_the_tail(self):
        # widely spread bandwidths in low-density regions: at a far tail
        # point the adaptive estimate exceeds the fixed-bandwidth one
        rng = np.random.default_rng(44)
        x = rng.standard_t(2, size=500)
        grid = Grid1D(float(x.min()) - 5.0, float(x.max()) + 5.0, 2 ** 14)
        far = int(np.searchsorted(grid.nodes, x.max() + 2.0))
        t = 0.05
        assert abramson_estimate(x, grid, t=t)[far] > gauss_kde_exact(
            x, grid.nodes[far], t)[0]

    @pytest.mark.parametrize("case", ["claw", "bimodal_pm2"])
    def test_matches_direct_sum(self, case):
        mix = testbed.registry()[case]
        x = mix.sample(1000, np.random.default_rng([11, 0]))
        grid = testbed.case_grid(mix)
        t = 0.01
        series = abramson_estimate(x, grid, t)
        direct = direct_abramson(x, grid.nodes, t)
        assert np.max(np.abs(series - direct)) <= 1e-4 * direct.max()
        assert testbed.ise((series, grid), mix) == pytest.approx(
            testbed.ise((direct, grid), mix), rel=1e-2)

    def test_grid_must_hold_the_sample(self):
        with pytest.raises(ValueError, match="outside grid"):
            abramson_estimate([0.0, 2.0], Grid1D(0.0, 1.0, 16), 0.01)


class TestSincKde:
    def test_edge_points_peak(self):
        # a point at each end of [0, 1]: a_k = 1 for even k and 0 for odd,
        # so the series at either end is 1 + 2 floor(K/2), K = floor(1 /
        # (pi sqrt(t))), the sinc kernel's peak 1/(pi sqrt(t)) of the
        # point's mass 1/2, doubled by the edge
        t = 1.0 / (10.5 * np.pi) ** 2
        vals = sinc_kde([0.0, 1.0], Grid1D(0.0, 1.0, 16), t)
        assert vals[0] == pytest.approx(11.0, rel=1e-12)
        assert vals[-1] == pytest.approx(11.0, rel=1e-12)

    def test_takes_negative_values(self):
        x = np.random.default_rng(45).normal(size=50)
        assert sinc_kde(x, make_grid(x, 2 ** 10), 0.001).min() < 0.0

    def test_mass(self):
        x = np.random.default_rng(45).normal(size=100)
        grid = make_grid(x, 2 ** 12)
        assert integrate(sinc_kde(x, grid, 0.1), grid) == pytest.approx(1.0, abs=1e-3)

    def test_zero_outside_the_sample_range(self):
        x = np.random.default_rng(45).normal(size=100)
        grid = make_grid(x, 2 ** 10)
        vals = sinc_kde(x, grid, 0.05)
        outside = (grid.nodes < x.min()) | (grid.nodes > x.max())
        assert outside.any() and np.all(vals[outside] == 0.0)

    @pytest.mark.parametrize("case", ["claw", "bimodal_pm2"])
    def test_ise_near_the_direct_sum(self, case):
        mix = testbed.registry()[case]
        x = mix.sample(1000, np.random.default_rng([11, 0]))
        grid = testbed.case_grid(mix)
        t = 0.01
        series = testbed.ise((sinc_kde(x, grid, t), grid), mix)
        direct = testbed.ise((direct_sinc(x, grid.nodes, t), grid), mix)
        assert series == pytest.approx(direct, rel=0.05)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            sinc_kde([0.0, 1.0], Grid1D(0.0, 1.0, 16), 0.0)

    @pytest.mark.parametrize("estimate", [
        lambda t: sinc_kde([0.2, 0.7], Grid1D(0.0, 1.0, 16), t),
        lambda t: abramson_estimate([0.2, 0.7], Grid1D(0.0, 1.0, 16), t),
        lambda t: hall_park_estimate([0.2, 0.7], [0.5], t, 1.0),
    ])
    def test_infinite_t(self, estimate):
        # sinc_kde once returned the uniform density on the sample range
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            estimate(np.inf)

    def test_zero_range(self):
        with pytest.raises(ValueError, match="zero range"):
            sinc_kde([0.5, 0.5], Grid1D(0.0, 1.0, 16), 0.01)


class TestLargeSample:
    """N = 10^5 in bounded memory.  The pair sum this replaced needed the
    N(N-1)/2 = 5e9 pair indices alone, two int64 arrays of 40 GB each."""

    @pytest.fixture(scope="class")
    def sample(self):
        x = testbed.registry()["claw"].sample(100_000, np.random.default_rng(50))
        return x, make_grid(x)

    @pytest.mark.parametrize("name", ["lscv_select", "abramson_estimate", "sinc_kde"])
    def test_peak_memory(self, name, sample):
        x, grid = sample
        call = {"lscv_select": lambda: lscv_select(x),
                "abramson_estimate": lambda: abramson_estimate(x, grid, 0.01),
                "sinc_kde": lambda: sinc_kde(x, grid, 0.01)}[name]
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestHallPark:
    def test_interior_matches_renormalized_kde(self):
        # far from the truncation point Phi((beta-x)/h) ~ 1 and the shift
        # vanishes, recovering the plain KDE
        x = np.random.default_rng(46).normal(size=300)
        beta = x.max() + 10.0
        xs = np.linspace(-2.0, 2.0, 9)
        a = hall_park_estimate(x, xs, 0.04, beta)
        b = gauss_kde_exact(x, xs, 0.04)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_boundary_lift(self):
        # Exp(1) flipped to be truncated above at 0: f(0-) = 1, where the
        # plain KDE gives about half that
        rng = np.random.default_rng(48)
        x = -rng.exponential(size=2000)
        t = 0.02
        hp = hall_park_estimate(x, [0.0], t, 0.0)[0]
        plain = gauss_kde_exact(x, [0.0], t)[0]
        assert hp > 1.5 * plain
        assert abs(hp - 1.0) < 0.35

    def test_validation(self):
        x = np.array([-1.0, -0.5])
        with pytest.raises(ValueError):
            hall_park_estimate(x, [0.0], 0.0, 0.0)
        with pytest.raises(ValueError, match="data"):
            hall_park_estimate([0.5], [0.0], 0.01, 0.0)
        with pytest.raises(ValueError, match="evaluation"):
            hall_park_estimate(x, [0.5], 0.01, 0.0)
