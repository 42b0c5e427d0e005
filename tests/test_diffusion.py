"""Adaptive diffusion estimator: pilot model, conservative operator
structure, the plug-in time formula, the full pipeline, and the
supporting diagnostics (asymptotic kernel, explosion check, divergences,
SDE sampler)."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.stats import norm

from diffkde import (
    Grid1D,
    bin_linear,
    build_pilot,
    diffusion_pipeline,
    euler_sample,
    gauss_kde_spectral,
    integrate,
    isj_select,
    make_grid,
    solve_diffusion,
)
from diffkde.bandwidth import functional_norm
from diffkde.diffusion import (
    PilotModel,
    _operator_bands,
    diffusion_t_star,
    lf_norm,
    sigma_inv_mean,
)
from diffkde.grids import trapezoid_weights

from reference import asymptotic_kernel, csiszar_divergence, feller_explosion_check


def _uniform_pilot(n=2 ** 10, alpha=1.0):
    g = Grid1D(0.0, 1.0, n)
    return PilotModel(g, np.ones(n), alpha)


def _gauss_pilot(alpha=1.0, n=2 ** 10, half=6.0):
    g = Grid1D(-half, half, n)
    p = norm.pdf(g.nodes)
    p = np.maximum(p, 1e-12 * p.max())
    return PilotModel(g, p / integrate(p, g), alpha)


class TestPilotModel:
    def test_alpha_one_reductions(self):
        pm = _gauss_pilot(alpha=1.0)
        assert np.allclose(pm.a, pm.p)
        assert np.allclose(pm.sigma2, 1.0)
        # mu = p' / (2p)
        dp = np.gradient(pm.p, pm.grid.step)
        assert np.allclose(pm.mu, dp / (2.0 * pm.p))

    def test_alpha_zero_reductions(self):
        pm = _gauss_pilot(alpha=0.0)
        assert np.allclose(pm.a, 1.0)
        assert np.allclose(pm.mu, 0.0)
        assert np.allclose(pm.sigma2, 1.0 / pm.p)

    def test_validation(self):
        g = Grid1D(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            PilotModel(g, np.ones(8), 1.0)
        with pytest.raises(ValueError):
            PilotModel(g, np.zeros(16), 1.0)
        with pytest.raises(ValueError):
            PilotModel(g, np.ones(16), 1.5)

    def test_build_pilot_mass_and_positivity(self):
        x = np.random.default_rng(1).normal(size=500)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        assert pm.p.min() > 0
        assert integrate(pm.p, pm.grid) == pytest.approx(1.0, abs=1e-10)


def _dense_generator(pilot):
    bands = _operator_bands(pilot)
    M = np.diag(bands[1])
    M += np.diag(bands[0][1:], 1)
    M += np.diag(bands[2][:-1], -1)
    return M


class TestOperatorStructure:
    def test_mass_stationarity_detailed_balance(self):
        pm = _gauss_pilot(alpha=1.0, n=256)
        M = _dense_generator(pm)
        w = trapezoid_weights(pm.grid)
        assert np.max(np.abs(w @ M)) < 1e-8 * np.max(np.abs(M))
        assert np.max(np.abs(M @ pm.p)) < 1e-8 * np.max(np.abs(M))
        S = np.diag(w) @ M @ np.diag(pm.p)
        assert np.max(np.abs(S - S.T)) < 1e-10 * np.max(np.abs(S))

    def test_pilot_is_a_fixed_point_of_the_solver(self):
        pm = _gauss_pilot(alpha=0.7, n=2 ** 10)
        sol = solve_diffusion(pm.p.copy(), pm, 0.5)
        assert np.max(np.abs(sol.estimate.values - pm.p)) < 1e-8 * pm.p.max()


class TestSolveDiffusion:
    def test_zero_time_returns_ic(self):
        pm = _uniform_pilot()
        vals = norm.pdf(pm.grid.nodes, 0.5, 0.1)
        sol = solve_diffusion(vals, pm, 0.0)
        assert np.array_equal(sol.estimate.values, vals)

    def test_negative_time(self):
        pm = _uniform_pilot()
        with pytest.raises(ValueError):
            solve_diffusion(np.ones(pm.grid.n), pm, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time(self, t):
        # NaN once returned the initial condition, and inf failed inside
        # the banded solver with a message that did not name t
        pm = _uniform_pilot()
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            solve_diffusion(np.ones(pm.grid.n), pm, t)

    def test_grid_mismatch(self):
        pm = _uniform_pilot()
        other = Grid1D(0.0, 2.0, pm.grid.n)
        with pytest.raises(ValueError):
            solve_diffusion(bin_linear([0.5], other), pm, 0.01)

    def test_uniform_pilot_matches_reflection_kernel(self):
        # with a constant pilot the equation is the plain heat equation
        # with zero flux, i.e. exactly the reflection-kernel estimator
        x = np.random.default_rng(3).uniform(0.1, 0.9, size=200)
        pm = _uniform_pilot(n=2 ** 12)
        t = 0.01
        a = solve_diffusion(bin_linear(x, pm.grid), pm, t).estimate.values
        b = gauss_kde_spectral(bin_linear(x, pm.grid), t).values
        assert np.max(np.abs(a - b)) < 1e-6 * b.max()

    def test_long_time_limit_is_the_pilot(self):
        x = np.random.default_rng(4).normal(size=300)
        pm = _gauss_pilot(alpha=1.0, n=2 ** 10)
        sol = solve_diffusion(bin_linear(np.clip(x, -5.9, 5.9), pm.grid), pm, 50.0)
        assert np.max(np.abs(sol.estimate.values - pm.p)) < 1e-4 * pm.p.max()

    def test_mass_conserved(self):
        x = np.random.default_rng(5).uniform(0.2, 0.8, size=400)
        pm = _uniform_pilot()
        sol = solve_diffusion(bin_linear(x, pm.grid), pm, 0.003)
        assert sol.solver_stats["mass_error"] < 1e-8
        assert integrate(sol.estimate.values, sol.estimate.grid) == pytest.approx(1.0, abs=1e-7)
        assert "min_before_clip" in sol.solver_stats

    def test_fixed_step_composition(self):
        # semigroup property: exp(0.01 M) exp(0.01 M) u = exp(0.02 M) u
        x = np.random.default_rng(6).uniform(0.2, 0.8, size=300)
        pm = _gauss_pilot(alpha=1.0, n=2 ** 10)
        ic = bin_linear(np.clip(3.0 * (x - 0.5), -5.0, 5.0), pm.grid)
        half = solve_diffusion(ic, pm, 0.01)
        full = solve_diffusion(half.estimate.values, pm, 0.01)
        direct = solve_diffusion(ic, pm, 0.02)
        assert np.max(np.abs(full.estimate.values - direct.estimate.values)) < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_contour_matches_symmetrized_eigen_oracle(self, alpha):
        # B M B^-1 with B = diag(sqrt(w/p)) is symmetric (detailed
        # balance), so exp(tM) u = B^-1 V exp(t lam) V^T B u exactly
        pm = _gauss_pilot(alpha=alpha, n=256)
        M = _dense_generator(pm)
        w = trapezoid_weights(pm.grid)
        B = np.sqrt(w / pm.p)
        S = B[:, None] * M / B[None, :]
        lam, V = eigh(0.5 * (S + S.T))
        smooth = norm.pdf(pm.grid.nodes, 0.7, 0.8)
        delta = np.zeros(pm.grid.n)
        delta[85] = 1.0 / w[85]
        for u in (smooth, delta):
            for t in (1e-5, 1e-3, 0.1, 5.0, 50.0):
                ref = V @ (np.exp(t * np.minimum(lam, 0.0)) * (V.T @ (B * u))) / B
                sol = solve_diffusion(u, pm, t)
                err = np.max(np.abs(sol.estimate.values - ref)) / np.max(np.abs(ref))
                assert err <= 1e-10, (t, err)
                assert sol.solver_stats["mass_error"] <= 1e-11, t


class TestLfNorm:
    def test_stationary_state_gives_zero(self):
        pm = _gauss_pilot(alpha=1.0, n=2 ** 10)
        val = lf_norm(pm.p.copy(), pm, 0.01)
        assert val < 1e-10

    def test_matches_quarter_second_derivative_norm(self):
        # constant pilot: Lg = g''/2, so ||Lg||^2 = ||g''||^2 / 4, and the
        # right side has an independent spectral estimator
        rng = np.random.default_rng(11)
        x = 0.3 + 0.4 * rng.beta(2.0, 2.0, size=500)
        g = Grid1D(0.0, 1.0, 2 ** 12)
        pm = PilotModel(g, np.ones(g.n), 1.0)
        binned = bin_linear(x, g)
        t2 = 0.004
        lf = lf_norm(binned, pm, t2)
        fn = functional_norm(binned, 2, t2)
        assert abs(lf - fn / 4.0) / (fn / 4.0) < 0.01

    def test_invalid_t2(self):
        pm = _uniform_pilot()
        with pytest.raises(ValueError):
            lf_norm(np.ones(pm.grid.n), pm, 0.0)
        with pytest.raises(ValueError, match="t2 must be finite"):
            lf_norm(np.ones(pm.grid.n), pm, np.inf)


class TestSigmaInvMean:
    def test_alpha_one_is_unity(self):
        x = np.random.default_rng(7).normal(size=1000)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)), alpha=1.0)
        assert sigma_inv_mean(x, pm) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_zero_against_quadrature(self):
        # alpha = 0: 1/sigma = sqrt(p); for p ~ f ~ N(0,1) the population
        # value is int sqrt(phi) phi dx, evaluated by quadrature
        x = np.random.default_rng(8).normal(size=2 * 10 ** 4)
        pm = _gauss_pilot(alpha=0.0, n=2 ** 12, half=8.0)
        oracle = integrate(np.sqrt(pm.p) * norm.pdf(pm.grid.nodes), pm.grid)
        assert abs(sigma_inv_mean(x, pm) - oracle) / oracle < 0.02

    def test_sample_outside_grid(self):
        pm = _uniform_pilot()
        with pytest.raises(ValueError):
            sigma_inv_mean([1.5], pm)


class TestPlugInTime:
    def test_formula(self):
        lf, si, N = 0.37, 0.81, 1000
        expect = (si / (2.0 * N * np.sqrt(np.pi) * lf)) ** 0.4
        assert diffusion_t_star(lf, si, N) == pytest.approx(expect, rel=1e-13)

    def test_sample_size_scaling(self):
        r = diffusion_t_star(1.0, 1.0, 2000) / diffusion_t_star(1.0, 1.0, 1000)
        assert r == pytest.approx(2.0 ** -0.4, rel=1e-13)

    def test_invalid(self):
        with pytest.raises(ValueError):
            diffusion_t_star(0.0, 1.0, 100)


@pytest.fixture(scope="module")
def adaptive_setup():
    g = Grid1D(0.0, 1.0, 2 ** 12)
    f = 1.0 - np.cos(6.0 * np.pi * g.nodes)
    p = 4.0 * (1.0 - g.nodes) ** 3
    p = np.maximum(p, 1e-8 * p.max())
    p /= integrate(p, g)
    pm = PilotModel(g, p, 0.0)
    # inverse-CDF draws from f
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * g.step)))
    cdf /= cdf[-1]
    x = np.interp(np.random.default_rng(5).uniform(size=10 ** 5), cdf, g.nodes)
    binned = bin_linear(x, g)
    return g, f, pm, binned


class TestLocallyAdaptiveSmoothing:
    """A known density with a strongly varying pilot: smoothing strength
    must follow 1/p, and the long-time limit must be the pilot itself."""

    T_ROUGH = (4.0e-4) ** 2
    T_SMOOTH = 0.89 ** 2

    def test_roughness_follows_inverse_pilot(self, adaptive_setup):
        g, f, pm, binned = adaptive_setup
        est = solve_diffusion(binned, pm, self.T_ROUGH).estimate.values
        resid = est - f
        q = g.n // 4
        tv_left = np.abs(np.diff(resid[:q])).sum()     # p large, sigma small
        tv_right = np.abs(np.diff(resid[-q:])).sum()   # p small, sigma large
        assert tv_left / tv_right > 5.0
        # at this small time the estimate tracks f, not the pilot
        ise_f = integrate(resid ** 2, g)
        ise_p = integrate((est - pm.p) ** 2, g)
        assert ise_f < ise_p

    def test_long_time_recovers_pilot(self, adaptive_setup):
        g, f, pm, binned = adaptive_setup
        est = solve_diffusion(binned, pm, self.T_SMOOTH).estimate.values
        assert np.max(np.abs(est - pm.p)) < 1e-2


class TestPipeline:
    def test_report_fields(self):
        x = np.random.default_rng([100, 0]).normal(size=500)
        sol, rep = diffusion_pipeline(x, n=2 ** 12)
        assert rep.method == "diffusion"
        assert rep.t_star > 0 and rep.t2_star > 0
        assert rep.functional_norms["lf_norm"] > 0
        assert rep.functional_norms["sigma_inv_mean"] == pytest.approx(1.0)
        assert integrate(sol.estimate.values, sol.estimate.grid) == pytest.approx(1.0, abs=1e-6)

    def test_held_spectrum_is_selected_on_its_own_grid(self):
        x = np.random.default_rng([100, 1]).normal(size=500)
        grid = make_grid(x, n=2 ** 12, pad_fraction=0.3)
        sol, rep = diffusion_pipeline(bin_linear(x, grid))
        ref = isj_select(bin_linear(x, make_grid(x, 2 ** 12, 0.3)))
        assert sol.estimate.grid == grid
        assert rep.t2_star == ref.t2_star
        np.testing.assert_array_equal(build_pilot(bin_linear(x, grid)).p, sol.pilot.p)

    def test_time_stable_across_grid_resolutions(self):
        x = np.random.default_rng([100, 0]).normal(size=1000)
        t_hi = diffusion_pipeline(x, n=2 ** 14)[1].t_star
        t_lo = diffusion_pipeline(x, n=2 ** 13)[1].t_star
        assert abs(t_hi - t_lo) / t_hi < 0.20

    def test_beats_normal_reference_on_claw(self):
        from diffkde.testbed import run_benchmark
        res = run_benchmark("claw", N=1000, trials=10, method_a="diffusion",
                            method_b="sj", seed=100)
        assert res.ratio_median < 1.0


class TestAsymptoticKernel:
    def test_uniform_pilot_is_gaussian(self):
        pm = _uniform_pilot(n=2 ** 10)
        t = 0.02
        xs = np.linspace(0.2, 0.8, 13)
        vals = asymptotic_kernel(xs, 0.5, t, pm)
        assert np.allclose(vals, norm.pdf(xs, 0.5, np.sqrt(t)), rtol=1e-6)

    def test_diagonal_value(self):
        pm = _gauss_pilot(alpha=1.0, n=2 ** 10)
        x0 = 0.7
        px = np.interp(x0, pm.grid.nodes, pm.p)
        ax = np.interp(x0, pm.grid.nodes, pm.a)
        t = 0.01
        expect = np.sqrt(px / ax) / np.sqrt(2.0 * np.pi * t)
        assert asymptotic_kernel(x0, x0, t, pm) == pytest.approx(expect, rel=1e-12)

    def test_out_of_grid(self):
        pm = _uniform_pilot()
        with pytest.raises(ValueError):
            asymptotic_kernel(2.0, 0.5, 0.01, pm)


class TestFellerCheck:
    def test_unit_diffusivity_never_explodes(self):
        assert feller_explosion_check(_gauss_pilot(alpha=0.0)) is False
        assert feller_explosion_check(_uniform_pilot()) is False

    def test_gaussian_pilot_alpha_one(self):
        assert feller_explosion_check(_gauss_pilot(alpha=1.0)) is False

    def test_rapidly_growing_diffusivity_explodes(self):
        pm = _gauss_pilot(alpha=1.0, n=2 ** 12, half=8.0)
        object.__setattr__(pm, "a", np.exp(pm.grid.nodes ** 2))
        assert feller_explosion_check(pm) is True


class TestCsiszarDivergence:
    def test_zero_at_equality(self):
        pm = _gauss_pilot(alpha=1.0)
        from diffkde import DensityEstimate1D
        g = DensityEstimate1D(pm.grid, pm.p.copy(), 0.01)
        for a in (0.0, 0.5, 1.0, 2.0):
            assert abs(csiszar_divergence(g, pm, a)) < 1e-10

    def test_alpha_two_is_half_pearson(self):
        pm = _gauss_pilot(alpha=1.0)
        from diffkde import DensityEstimate1D
        gv = norm.pdf(pm.grid.nodes, 0.3, 1.1)
        gv /= integrate(gv, pm.grid)
        g = DensityEstimate1D(pm.grid, gv, 0.01)
        direct = 0.5 * integrate((gv - pm.p) ** 2 / pm.p, pm.grid)
        assert csiszar_divergence(g, pm, 2.0) == pytest.approx(direct, rel=1e-6)

    def test_kl_limits(self):
        pm = _gauss_pilot(alpha=1.0)
        from diffkde import DensityEstimate1D
        gv = norm.pdf(pm.grid.nodes, 0.2, 0.9)
        gv /= integrate(gv, pm.grid)
        g = DensityEstimate1D(pm.grid, gv, 0.01)
        kl_gp = integrate(gv * np.log(gv / pm.p), pm.grid)
        kl_pg = integrate(pm.p * np.log(pm.p / gv), pm.grid)
        assert csiszar_divergence(g, pm, 1.0) == pytest.approx(kl_gp, rel=1e-8)
        assert csiszar_divergence(g, pm, 0.0) == pytest.approx(kl_pg, rel=1e-8)

    def test_monotone_decay_toward_pilot(self):
        x = np.random.default_rng(9).uniform(0.2, 0.8, size=400)
        pm = _uniform_pilot(n=2 ** 10)
        binned = bin_linear(x, pm.grid)
        vals = [csiszar_divergence(
            solve_diffusion(binned, pm, t).estimate, pm, 2.0)
            for t in (1e-3, 1e-2, 0.1, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def _reference_loop(x, pm, t, n_steps, count, rng):
    """The Euler sampler as a plain step loop: np.interp lookups, one
    ``standard_normal(count)`` per step and the mod reflection applied to
    every draw.  Also returns the most grid ends one draw was folded
    across, summed over its steps."""
    nodes, sigma = pm.grid.nodes, np.sqrt(pm.sigma2)
    dt = t / n_steps
    lo, R = pm.grid.lo, pm.grid.range
    y = x[rng.integers(0, x.size, size=count)]
    folds = np.zeros(count, dtype=int)
    for _ in range(n_steps):
        mu = np.interp(y, nodes, pm.mu)
        sg = np.interp(y, nodes, sigma)
        y = y + mu * dt + sg * np.sqrt(dt) * rng.standard_normal(count)
        folds += np.abs(np.floor((y - lo) / R)).astype(int)
        r = np.mod(y - lo, 2.0 * R)
        y = lo + np.where(r > R, 2.0 * R - r, r)
    return y, int(folds.max())


class TestEulerSample:
    def test_draws_stay_in_domain(self):
        x = np.random.default_rng(10).normal(size=300)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        draws = euler_sample(x, pm, 0.05, 200, 2000, np.random.default_rng(0))
        assert np.all(np.isfinite(draws))
        assert draws.min() >= pm.grid.lo and draws.max() <= pm.grid.hi

    def test_deterministic_given_rng(self):
        x = np.random.default_rng(10).normal(size=100)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        a = euler_sample(x, pm, 0.02, 150, 500, np.random.default_rng(42))
        b = euler_sample(x, pm, 0.02, 150, 500, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_small_time_stays_near_data(self):
        x = np.random.default_rng(10).normal(size=200)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        draws = euler_sample(x, pm, 1e-6, 100, 1000, np.random.default_rng(1))
        assert abs(draws.mean() - x.mean()) < 0.05

    def test_matches_interp_reference_loop(self):
        # the sampler's uniform-grid lookup against np.interp, same stream
        x = np.random.default_rng(12).normal(size=400)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        y, _ = _reference_loop(x, pm, 0.03, 150, 2000, np.random.default_rng(3))
        draws = euler_sample(x, pm, 0.03, 150, 2000, np.random.default_rng(3))
        assert np.max(np.abs(draws - y)) <= 1e-12

    @pytest.mark.parametrize("case", ["boundary_at_zero", "multiple_folds"])
    def test_matches_reference_loop_under_reflection(self, case):
        if case == "boundary_at_zero":
            # criterion 4's flipped exponential on a grid ending at 0: many
            # draws start next to the end and reflect there
            x = -np.random.default_rng(100).exponential(size=1000)
            g = Grid1D(min(-12.0, float(x.min()) - 1.0), 0.0, 2 ** 12)
            sol, report = diffusion_pipeline(x, grid=g)
            pm, t, min_folds = sol.pilot, report.t_star, 1
        else:
            # sigma = 1 and a mild drift on [0, 1]; sqrt(dt) = 2 carries
            # draws across several grid ends in one step
            g = Grid1D(0.0, 1.0, 2 ** 10)
            pm = PilotModel(g, 1.0 + 0.5 * g.nodes, 1.0)
            x = np.random.default_rng(13).uniform(size=200)
            t, min_folds = 400.0, 2
        y, folds = _reference_loop(x, pm, t, 100, 2000, np.random.default_rng(3))
        assert folds >= min_folds
        draws = euler_sample(x, pm, t, 100, 2000, np.random.default_rng(3))
        assert np.max(np.abs(draws - y)) <= 1e-12
        assert draws.min() >= pm.grid.lo and draws.max() <= pm.grid.hi

    def test_leaves_stream_and_inputs_unchanged(self):
        x = np.random.default_rng(12).normal(size=400)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        x0, mu0, sigma20 = x.copy(), pm.mu.copy(), pm.sigma2.copy()
        ref_rng, rng = np.random.default_rng(3), np.random.default_rng(3)
        _reference_loop(x, pm, 0.03, 150, 2000, ref_rng)
        euler_sample(x, pm, 0.03, 150, 2000, rng)
        assert rng.random() == ref_rng.random()
        assert np.array_equal(x, x0)
        assert np.array_equal(pm.mu, mu0) and np.array_equal(pm.sigma2, sigma20)

    def test_memory_is_per_step(self):
        # one step's buffers are reused; drawing the normals as one
        # (n_steps, count) block would hold 80 MB here
        x = np.random.default_rng(10).normal(size=1000)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        tracemalloc.start()
        try:
            euler_sample(x, pm, 0.02, 100, 10 ** 5, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("t", [-0.01, np.nan, np.inf])
    def test_invalid_t_star(self, t):
        x = np.random.default_rng(10).normal(size=50)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        with pytest.raises(ValueError, match="t_star"):
            euler_sample(x, pm, t, 100, 100, np.random.default_rng(0))

    def test_zero_time_returns_start_points(self):
        x = np.random.default_rng(10).normal(size=50)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        draws = euler_sample(x, pm, 0.0, 100, 100, np.random.default_rng(0))
        start = x[np.random.default_rng(0).integers(0, x.size, size=100)]
        assert np.array_equal(draws, start)

    def test_sample_outside_pilot_grid(self):
        x = np.random.default_rng(10).normal(size=50)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        with pytest.raises(ValueError, match="sample outside pilot grid"):
            euler_sample(x + 100.0, pm, 0.01, 100, 100, np.random.default_rng(0))

    def test_validation(self):
        x = np.random.default_rng(10).normal(size=50)
        pm = build_pilot(bin_linear(x, make_grid(x, 2 ** 12)))
        with pytest.raises(ValueError):
            euler_sample(x, pm, 0.01, 50, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            euler_sample(x, pm, 0.01, 200, 0, np.random.default_rng(0))
