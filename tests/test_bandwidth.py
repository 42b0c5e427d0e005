"""Plug-in bandwidth selection: stage formulas, the functional-norm
estimator against a literal O(N^2) oracle, and both selectors."""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval

from diffkde import (
    build_pilot,
    diffusion_pipeline,
    isj_select,
    lscv_select,
    sj_normal_ref_select,
)
from diffkde.bandwidth import (
    XI,
    _LADDER,
    _MIN_N,
    _smallest_fixed_point,
    functional_norm,
    gamma_chain,
    gaussian_reference_norm,
    stage_t,
)
from diffkde.grids import BinnedHistogram, bin_linear, cosine_moments, make_grid
from diffkde.testbed import registry
from reference import (
    full_norm,
    numpy_gamma_chain,
    numpy_stage_t,
    unfloored_fixed_point,
    unfloored_uncut,
)


def direct_functional_norm(x, j, t_j):
    """Literal double-sum estimate of ||f^(j)||^2 on free space:

    (-1)^j N^-2 sum_{k,m} phi^(2j)(X_k - X_m; 2 t_j), the 2j-th Gaussian
    derivative written with probabilists' Hermite polynomials.
    """
    N = x.size
    s = 2.0 * t_j
    d = (x[:, None] - x[None, :]) / np.sqrt(s)
    coef = np.zeros(2 * j + 1)
    coef[-1] = 1.0
    he = hermeval(d, coef)
    phi = np.exp(-0.5 * d * d) / np.sqrt(2.0 * np.pi * s)
    return float((-1.0) ** j * s ** (-j) * np.sum(he * phi) / N ** 2)


def per_call_functional_norm(binned, j, t_j):
    """The spectral functional with the moments recomputed on every call."""
    c = cosine_moments(binned.weights)[1:]
    k2 = (np.pi * np.arange(1, c.size + 1)) ** 2
    return float(2.0 * np.sum(c * c * k2 ** j * np.exp(-k2 * t_j)))


def binned_on_grid(x, n):
    """The selector's binning: x on make_grid(x, n) at 10% padding."""
    grid = make_grid(x, n, 0.1)
    return bin_linear(x, grid), grid


def iterated_fixed_point(x, l=5, n=2 ** 14):
    """Plain iteration of t = xi * gamma(t) from machine epsilon, damped
    once it oscillates, stopped at an absolute step below eps.  Returns the
    data-scale t, or None when 100 steps do not reach the stop."""
    binned, grid = binned_on_grid(x, n)
    eps = float(np.finfo(float).eps)
    z, prev_step, damped = eps, None, False
    for it in range(1, 101):
        z_new = XI * gamma_chain(z, l, binned, x.size)[0]
        if damped:
            z_new = 0.5 * (z + z_new)
        step = z_new - z
        if prev_step is not None and it > 20 and step * prev_step < 0:
            damped = True
        prev_step = step
        if abs(step) < eps:
            return z_new * grid.range ** 2
        z = z_new
    return None


class TestConstants:
    def test_xi_value(self):
        assert XI == pytest.approx(((6 * np.sqrt(2) - 3) / 7) ** 0.4)
        assert XI == pytest.approx(0.90, abs=0.01)

    def test_gaussian_reference_norm(self):
        # ||f''||^2 of a standard normal
        assert gaussian_reference_norm(2, 1.0) == pytest.approx(3.0 / (8 * np.sqrt(np.pi)))
        assert gaussian_reference_norm(1, 1.0) == pytest.approx(1.0 / (4 * np.sqrt(np.pi)))
        # scale law sigma^-(2j+1)
        assert gaussian_reference_norm(2, 2.0) == pytest.approx(
            gaussian_reference_norm(2, 1.0) / 2 ** 5)


class TestStageT:
    def test_j2_closed_form(self):
        norm3, N = 0.7, 500
        expect = ((8.0 + np.sqrt(2.0)) / 24.0 * 3.0 / (
            N * np.sqrt(np.pi / 2.0) * norm3)) ** (2.0 / 7.0)
        assert stage_t(2, norm3, N) == pytest.approx(expect, rel=1e-13)

    def test_sample_size_scaling(self):
        for j in (1, 2, 3):
            r = stage_t(j, 1.3, 2000) / stage_t(j, 1.3, 1000)
            assert r == pytest.approx(2.0 ** (-2.0 / (3 + 2 * j)), rel=1e-13)

    def test_j1_independent_arithmetic(self):
        expect = ((1.0 + 2.0 ** -1.5) / 3.0 / (100.0 * np.sqrt(np.pi / 2.0))) ** 0.4
        assert stage_t(1, 1.0, 100) == pytest.approx(expect, rel=1e-13)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            stage_t(1, -1.0, 100)
        with pytest.raises(ValueError):
            stage_t(1, 1.0, 1)

    @pytest.mark.parametrize("j", range(1, 7))
    def test_equals_numpy_reference(self, j):
        for norm_next, N in ((0.7, 500), (1.3e4, 10 ** 6), (2.1e-3, 31), (5.9e11, 1000)):
            assert stage_t(j, norm_next, N) == numpy_stage_t(j, norm_next, N)


class TestFunctionalNorm:
    @pytest.mark.parametrize("j,t_j", [(1, 2e-3), (2, 1e-3), (3, 1e-3)])
    def test_direct_sum_oracle(self, j, t_j):
        # interior data: free-space oracle is only valid when boundary
        # reflections are negligible on the unit interval
        rng = np.random.default_rng(12)
        x = 0.3 + 0.4 * rng.beta(2.0, 2.0, size=150)
        from diffkde import Grid1D, bin_linear
        binned = bin_linear(x, Grid1D(0.0, 1.0, 2 ** 14))
        spectral = functional_norm(binned, j, t_j)
        direct = direct_functional_norm(x, j, t_j)
        assert spectral == pytest.approx(direct, rel=1e-3)

    def test_positive(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0.2, 0.8, size=60)
        from diffkde import Grid1D, bin_linear
        binned = bin_linear(x, Grid1D(0.0, 1.0, 2 ** 12))
        for j in (1, 2, 3, 4):
            assert functional_norm(binned, j, 5e-3) > 0

    def test_gaussian_second_derivative_value(self):
        # data-scale ||f''||^2 for N(0,1) at the stage-optimal pilot time
        rng = np.random.default_rng(7)
        x = rng.normal(size=10 ** 4)
        binned, grid = binned_on_grid(x, 2 ** 14)
        sigma_u = 1.0 / grid.range
        t2 = stage_t(2, gaussian_reference_norm(3, sigma_u), x.size)
        est = functional_norm(binned, 2, t2) / grid.range ** 5
        target = 3.0 / (8.0 * np.sqrt(np.pi))
        assert abs(est - target) / target < 0.15

    def test_held_spectrum_matches_per_call_formula(self):
        x = registry()["claw"].sample(1000, np.random.default_rng(23))
        binned, _ = binned_on_grid(x, 2 ** 14)
        # repeated orders and times exercise the cached weighted powers; a
        # histogram of the same weights made afresh holds no moments yet
        for t in (1e-7, 1e-5, 1e-3, 5e-2, 1e-5):
            for j in (1, 2, 3, 4, 6, 7, 2):
                held = functional_norm(binned, j, t)
                assert held == pytest.approx(per_call_functional_norm(binned, j, t),
                                             rel=1e-12), (j, t)
                fresh = BinnedHistogram(binned.grid, binned.weights)
                assert functional_norm(fresh, j, t) == pytest.approx(held, rel=1e-12)

    def test_invalid_args(self):
        from diffkde import Grid1D, bin_linear
        binned = bin_linear([0.5], Grid1D(0.0, 1.0, 16))
        with pytest.raises(ValueError):
            functional_norm(binned, 0, 0.01)
        with pytest.raises(ValueError):
            functional_norm(binned, 1, 0.0)
        for t_j in (np.inf, np.nan):
            with pytest.raises(ValueError, match="t_j must be finite"):
                functional_norm(binned, 2, t_j)


class TestGammaChain:
    def _binned(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=1000)
        return binned_on_grid(x, 2 ** 14)[0], 1000

    def test_equals_numpy_reference(self):
        binned, N = self._binned()
        for t in np.geomspace(1e-12, 0.1, 23):
            assert gamma_chain(t, 5, binned, N) == numpy_gamma_chain(t, 5, binned, N)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_refuses_a_nonfinite_time(self, t):
        binned, N = self._binned()
        with pytest.raises(ValueError, match="t must be finite"):
            gamma_chain(t, 5, binned, N)

    def test_l1_is_single_stage(self):
        binned, N = self._binned()
        t = 1e-3
        t1, times, norms = gamma_chain(t, 1, binned, N)
        assert t1 == pytest.approx(stage_t(1, functional_norm(binned, 2, t), N))
        assert set(times) == {1} and set(norms) == {2}

    def test_continuous_and_positive(self):
        binned, N = self._binned()
        ts = np.logspace(-8, 0, 40)
        vals = np.array([gamma_chain(t, 5, binned, N)[0] for t in ts])
        assert np.all(vals > 0)
        # no wild jumps between neighboring ladder points
        assert np.max(np.abs(np.diff(np.log(vals)))) < 2.0

    def test_l5_vs_l10_fixed_points(self):
        binned, N = self._binned()

        def fixed_point(l):
            z = np.finfo(float).eps
            for _ in range(200):
                z_new = XI * gamma_chain(z, l, binned, N)[0]
                if abs(z_new - z) < 1e-16:
                    return z_new
                z = z_new
            return z

        a, b = fixed_point(5), fixed_point(10)
        assert a > 0 and b > 0
        # the top-stage seeding shifts the root slowly with chain depth; the
        # resulting bandwidths stay close and both land in the optimal band
        assert abs(np.sqrt(a) - np.sqrt(b)) / np.sqrt(a) < 0.20
        amise_unit = (4.0 / (3.0 * N)) ** 0.2 / (
            binned_on_grid(np.random.default_rng(14).normal(size=N), 2 ** 14)[1].range)
        for z in (a, b):
            assert abs(np.sqrt(z) - amise_unit) / amise_unit < 0.20


class TestSmallestFixedPoint:
    # the selector's floor on its default grid: one step of 2^14 nodes, squared
    FLOOR = 1.0 / (2 ** 14 - 1) ** 2

    def test_single_root_to_relative_precision(self):
        # t = sqrt(1e-3 t) has its nonzero root at 1e-3
        z, calls = _smallest_fixed_point(lambda t: np.sqrt(1e-3 * t), self.FLOOR)
        assert z == pytest.approx(1e-3, rel=1e-12)
        assert calls < 60

    def test_returns_smallest_of_several_roots(self):
        # t - f(t) = (t - 1e-5)(t - 1e-3)(t - 2e-2)/1e-4, negative below 1e-5
        roots = (1e-5, 1e-3, 2e-2)
        z, _ = _smallest_fixed_point(
            lambda t: t - (t - roots[0]) * (t - roots[1]) * (t - roots[2]) / 1e-4, self.FLOOR)
        assert z == pytest.approx(roots[0], rel=1e-12)

    def test_no_sign_change_raises(self):
        with pytest.raises(ArithmeticError, match="no fixed point found"):
            _smallest_fixed_point(lambda t: 0.5 * t, self.FLOOR)

    def test_failure_before_a_sign_change_raises(self):
        def f(t):
            if t > 1e-6:
                raise ArithmeticError("stage j=1: nonpositive functional estimate")
            return 2.0 * t
        with pytest.raises(ArithmeticError, match="no fixed point found"):
            _smallest_fixed_point(f, self.FLOOR)

    def test_root_below_the_floor_is_skipped_for_the_one_above(self):
        # the scan starts at the ladder point 5.96e-7 below the floor 1e-6;
        # its first bracket holds the sub-floor root 8e-7, and the next
        # sign change holds 1e-4
        floor, roots = 1e-6, (8e-7, 1e-4, 2e-2)
        start = _LADDER[_LADDER <= floor][-1]
        assert start < roots[0] < floor < _LADDER[_LADDER > floor][0]
        z, _ = _smallest_fixed_point(
            lambda t: t - (t - roots[0]) * (t - roots[1]) * (t - roots[2]) / 1e-4, floor)
        assert z == pytest.approx(roots[1], rel=1e-12)

    def test_only_a_root_below_the_floor_raises_naming_n(self):
        # t - f(t) = t - 1e-7 is positive from the floor up
        with pytest.raises(ArithmeticError, match="n=1001 grid: the bandwidth is below one grid"):
            _smallest_fixed_point(lambda t: 1e-7, 1e-6)


class TestIsjSelect:
    def test_peak_memory_at_a_million_points(self):
        # the sample is read in blocks: no sample-sized temporary (15.7 MB
        # when the sample was binned in one pass)
        x = np.random.default_rng(26).normal(size=10 ** 6)
        tracemalloc.start()
        try:
            isj_select(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_gaussian_amise_band(self):
        x = np.random.default_rng(15).normal(size=10 ** 4)
        rep = isj_select(x)
        amise = (4.0 / (3.0 * x.size)) ** 0.2  # optimal sqrt(t) for N(0,1)
        assert abs(np.sqrt(rep.t_star) - amise) / amise < 0.20
        assert rep.converged and rep.iterations < 100
        assert rep.t2_star > 0

    def test_affine_equivariance(self):
        # and invariance under reordering the sample, for both selectors
        x = np.random.default_rng(16).normal(size=2000)
        shuffled = np.random.default_rng(160).permutation(x)
        for select in (isj_select, sj_normal_ref_select):
            t0 = select(x).t_star
            assert select(x + 17.3).t_star == pytest.approx(t0, rel=1e-12)
            assert select(3.5 * x).t_star == pytest.approx(3.5 ** 2 * t0, rel=1e-6)
            assert select(shuffled).t_star == pytest.approx(t0, rel=1e-12)

    def test_fixed_point_stability_across_starts(self):
        # iterating from machine epsilon and from 0.5 reaches the same root
        x = np.random.default_rng(17).normal(size=1000)
        rep = isj_select(x)
        binned, grid = binned_on_grid(x, 2 ** 14)

        z = 0.5
        for _ in range(300):
            z_new = XI * gamma_chain(z, 5, binned, x.size)[0]
            if abs(z_new - z) < 1e-16:
                break
            z = z_new
        assert z * grid.range ** 2 == pytest.approx(rep.t_star, rel=1e-8)

    def test_converges_on_registry_densities(self):
        from diffkde.testbed import registry
        for name in ("claw", "bimodal", "outlier", "smooth_comb", "ten_modes"):
            x = registry()[name].sample(1000, np.random.default_rng(18))
            rep = isj_select(x)
            assert rep.converged and rep.iterations < 100, name

    def test_slow_iteration_falls_back_to_a_valid_bracket(self):
        # on this sample plain iteration contracts too slowly to reach an
        # absolute stop in 100 steps, and the stage chain underflows at
        # t = 1; the root lies in the [0, 0.1] bracket all the same
        from diffkde.testbed import registry
        x = registry()["bimodal_pm2"].sample(1000, np.random.default_rng(1493))
        binned, grid = binned_on_grid(x, 2 ** 12)
        with pytest.raises(ArithmeticError):
            gamma_chain(1.0, 5, binned, x.size)
        rep = isj_select(x, n=2 ** 12)
        assert rep.converged
        z = rep.t_star / grid.range ** 2
        assert XI * gamma_chain(z, 5, binned, x.size)[0] == pytest.approx(z, rel=1e-9)

    @pytest.mark.parametrize("case,seed", [
        ("bimodal_pm2", [777, 190]),
        ("asymmetric_double_claw", [7, 2]),
        ("asymmetric_double_claw", [7, 27]),
        ("asymmetric_double_claw", [7, 121]),
    ])
    def test_finds_smallest_root_where_iteration_failed(self, case, seed):
        # iteration with a bracketed fallback on [1e-12, 1] raised "no fixed
        # point found" here: a second root above 0.1 left both ends negative
        x = registry()[case].sample(1000, np.random.default_rng(seed))
        rep = isj_select(x)
        assert rep.converged
        binned, grid = binned_on_grid(x, 2 ** 14)
        z = rep.t_star / grid.range ** 2
        assert 0.0 < z < 0.1
        xi_gamma = lambda t: XI * gamma_chain(t, 5, binned, x.size)[0]
        assert xi_gamma(z) == pytest.approx(z, rel=1e-9)
        # no root below: the residual stays negative on a fine ladder up to z
        ts = np.geomspace(_LADDER[0], z * (1.0 - 1e-6), 200)
        assert all(t < xi_gamma(t) for t in ts)

    @pytest.mark.parametrize("case", sorted(registry()))
    def test_matches_iteration_where_it_converges(self, case):
        # every registry case, the benchmark's plug-in targets among them
        compared = 0
        for s in range(3):
            x = registry()[case].sample(1000, np.random.default_rng([777, s]))
            ref = iterated_fixed_point(x)
            if ref is None:
                continue
            compared += 1
            assert isj_select(x).t_star == pytest.approx(ref, rel=1e-9), s
        assert compared > 0

    def test_low_sample_fallback(self):
        x = np.random.default_rng(19).normal(size=20)
        with pytest.warns(UserWarning, match="below 30"):
            rep = isj_select(x)
        assert rep.low_sample
        assert rep.method == "sj_normal_ref"

    @pytest.mark.parametrize("N", [20, 50])
    def test_zero_range_sample_raises(self, N):
        # no spread to estimate from: the fixed point would sit on the
        # ladder floor and be reported as converged
        with pytest.raises(ValueError, match="zero range"):
            isj_select(np.full(N, 3.0))

    def test_selects_on_the_grid_of_a_histogram(self):
        # a bin_linear result is selected on its own grid; the pinned values
        # keep that grid choice bit for bit
        x = registry()["claw"].sample(1000, np.random.default_rng(70))
        binned = bin_linear(x, make_grid(x, 4096, 0.3))
        rep = isj_select(binned)
        assert (rep.t_star, rep.t2_star, rep.iterations) == (
            0.002966557052600282, 0.004309834990487677, 19)
        assert sj_normal_ref_select(binned).t_star == 0.056621834900104265
        assert isj_select(binned, n=2 ** 14).t_star == rep.t_star  # n is unused

    @pytest.mark.parametrize("call", [
        isj_select, sj_normal_ref_select, lscv_select, build_pilot,
        diffusion_pipeline])
    def test_histogram_without_its_sample_is_refused(self, call):
        x = np.random.default_rng(21).normal(size=500)
        binned = bin_linear(x, make_grid(x))
        with pytest.raises(ValueError, match="no sample"):
            call(BinnedHistogram(binned.grid, binned.weights))


class TestFloorAndCutOracles:
    """The floored scan and the cut norm against the reference scan from
    1e-12 and the sum over every mode."""

    def test_norm_matches_the_sum_over_every_mode(self):
        ts = np.geomspace(1.0 / (2 ** 14 - 1) ** 2, 0.1, 40)
        for name in sorted(registry()):
            x = registry()[name].sample(1000, np.random.default_rng([31, 0]))
            binned = binned_on_grid(x, 2 ** 14)[0]
            for j in range(1, 8):
                cut = [functional_norm(binned, j, t) for t in ts]
                full = [full_norm(binned, j, t) for t in ts]
                np.testing.assert_allclose(cut, full, rtol=1e-13, atol=0, err_msg=f"{name} j={j}")

    @staticmethod
    def _samples():
        for name in sorted(registry()):
            for s in range(3):
                yield f"{name}/{s}", registry()[name].sample(1000, np.random.default_rng([41, s]))
        for name in ("claw", "bimodal_pm2", "log_normal", "separated_pm30", "ten_modes"):
            for N in (1000, 100_000):
                yield f"{name}/N={N}", registry()[name].sample(N, np.random.default_rng([43, N]))

    def test_isj_matches_the_unfloored_uncut_selector(self):
        samples = list(self._samples())
        got = [isj_select(x).t_star for _, x in samples]
        with pytest.MonkeyPatch.context() as mp:
            unfloored_uncut(mp)
            ref = [isj_select(x).t_star for _, x in samples]
        for (name, _), a, b in zip(samples, got, ref):
            assert a == pytest.approx(b, rel=1e-12), name

    def test_reference_scan_agrees_above_the_floor(self):
        # the floored scan returns the reference's root, bit for bit, and
        # saves the evaluations below the floor
        x = registry()["claw"].sample(1000, np.random.default_rng(1))
        binned = binned_on_grid(x, 2 ** 14)[0]
        f = lambda t: XI * gamma_chain(t, 5, binned, x.size)[0]
        floor = 1.0 / (2 ** 14 - 1) ** 2
        z, calls = _smallest_fixed_point(f, floor)
        z0, calls0 = unfloored_fixed_point(f)
        assert z == z0 > floor
        assert calls0 - calls == np.count_nonzero(_LADDER < _LADDER[_LADDER <= floor][-1])


class TestResolutionFloor:
    """Roots below one grid step track the grid; the selector skips them,
    refines the grid when no other root is left, and raises when the
    finest grid has none either."""

    @pytest.mark.parametrize("seed,h", [(1, 0.6316), (2, 0.6290)])
    def test_rounded_sample_root_does_not_track_the_grid(self, seed, h):
        x = np.round(np.random.default_rng(seed).normal(0.0, 3.0, 1000))
        hs = np.array([np.sqrt(isj_select(x, n=2 ** p).t_star) for p in range(12, 19)])
        assert hs.max() / hs.min() - 1.0 < 1e-4
        assert hs == pytest.approx(h, abs=1e-4)

    @pytest.mark.parametrize("x", [
        np.concatenate([np.zeros(900), np.random.default_rng(1).normal(size=100)]),
        np.repeat([0.0, 1.0], 500),
    ], ids=["ninety_percent_zeros", "two_values"])
    def test_tied_sample_raises_below_one_grid_step(self, x):
        assert x.size >= _MIN_N
        with pytest.raises(ArithmeticError,
                           match="n=1048576 grid: the bandwidth is below one grid step"):
            isj_select(x)

    def test_root_below_one_step_is_taken_from_a_refined_grid(self):
        # at 32 nodes the root sits at 0.6 steps and is the sample's own:
        # at 64 nodes it lies at 1.2 steps, within 5% of the fine-grid value
        x = np.random.default_rng(3).normal(size=10_000)
        coarse, fine = isj_select(x, n=32), isj_select(x, n=64)
        assert coarse.converged and coarse.t_star == fine.t_star
        assert coarse.iterations > fine.iterations
        assert np.sqrt(fine.t_star) / make_grid(x, 64).step > 1.0
        assert np.sqrt(fine.t_star) == pytest.approx(np.sqrt(isj_select(x).t_star), rel=0.05)


class TestSjNormalRef:
    def test_agrees_with_isj_on_gaussian(self):
        x = np.random.default_rng(21).normal(size=5000)
        t_isj = isj_select(x).t_star
        t_sj = sj_normal_ref_select(x).t_star
        assert abs(t_sj - t_isj) / t_isj < 0.10

    def test_oversmooths_separated_bimodal(self):
        rng = np.random.default_rng(22)
        x = np.concatenate([rng.normal(-30, 1, 500), rng.normal(30, 1, 500)])
        assert sj_normal_ref_select(x).t_star / isj_select(x).t_star > 5.0

    def test_degenerate_sample(self):
        with pytest.raises(ValueError):
            sj_normal_ref_select(np.full(100, 2.0))
