"""Two-dimensional estimation: binning, mixed-derivative functionals
against a literal double-sum oracle, the fixed-point selector, spectral
smoothing, and the masked-domain heat solver."""

import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval
from scipy import ndimage
from scipy.linalg import expm
from scipy.special import ive

from diffkde import (
    BinnedHistogram,
    DensityEstimate2D,
    DomainMask,
    Grid1D,
    Grid2D,
    bin_linear_2d,
    gauss_kde_2d,
    integrate_2d,
    isj2d_select,
    make_grid_2d,
    normal_ref_2d_select,
    registry,
    solve_heat_masked,
)
from diffkde.grids import cosine_moments
from diffkde.kde2d import (
    _diag_entries,
    _masked_operator,
    _select_2d,
    gamma_2d,
    psi_hat,
    t_stage_2d,
)
from reference import unfloored_uncut


def _unit_grid(n=2 ** 8):
    return Grid2D(Grid1D(0.0, 1.0, n), Grid1D(0.0, 1.0, n))


def _gauss_deriv_factor(d, order, s):
    """phi^(order)(d; s) for even order, via probabilists' Hermite."""
    coef = np.zeros(order + 1)
    coef[-1] = 1.0
    z = d / np.sqrt(s)
    return s ** (-order / 2.0) * hermeval(z, coef) * np.exp(-0.5 * z * z) / np.sqrt(
        2.0 * np.pi * s)


def direct_psi(pts, i, j, t_ij):
    """Free-space double-sum oracle for the mixed derivative functional
    E[f^(2i,2j)(X)]: N^-2 sum_{k,m} phi^(2i)(dx; 2t) phi^(2j)(dy; 2t),
    which carries the sign (-1)^{i+j} on its own."""
    N = pts.shape[0]
    s = 2.0 * t_ij
    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    term = _gauss_deriv_factor(dx, 2 * i, s) * _gauss_deriv_factor(dy, 2 * j, s)
    return float(term.sum() / N ** 2)


def per_call_psi(i, j, t_ij, binned2d):
    """The spectral mixed functional with the 2D moments recomputed."""
    c = cosine_moments(cosine_moments(binned2d.weights, axis=0), axis=1)
    n1, n2 = c.shape
    k = np.arange(n1)
    l = np.arange(n2)
    wk = np.where(k == 0, 1.0, 2.0)
    wl = np.where(l == 0, 1.0, 2.0)
    kx = (np.pi * k) ** 2
    ly = (np.pi * l) ** 2
    term = (wk * kx ** i * np.exp(-kx * t_ij))[:, None] * (
        wl * ly ** j * np.exp(-ly * t_ij))[None, :]
    return float((-1.0) ** (i + j) * np.sum(term * c * c))


def iterated_fixed_point_2d(pts, k=4, n=2 ** 8):
    """Plain iteration of t = gamma(t) from 0.05, stopped at an absolute
    step below eps.  Returns (t_star, t_x1, t_x2), or None when 100 steps
    do not reach the stop."""
    grid = make_grid_2d(pts, n, 0.1)
    binned = bin_linear_2d(pts, grid)
    N = pts.shape[0]
    eps = float(np.finfo(float).eps)
    z = 0.05
    for _ in range(100):
        z_new = gamma_2d(z, k, binned, N)[0]
        if abs(z_new - z) < eps:
            t1, t2 = _diag_entries(gamma_2d(z_new, k, binned, N)[1], N)
            return z_new, t1 * grid.x1.range ** 2, t2 * grid.x2.range ** 2
        z = z_new
    return None


def _shapes_2d(rng, N):
    z = rng.normal(size=(N, 2))
    yield "gaussian", z
    yield "correlated", np.column_stack([z[:, 0], 0.9 * z[:, 0] + 0.3 * z[:, 1]])
    yield "anisotropic", z * [10.0, 1.0]
    yield "bimodal", z + np.where(rng.random(N) < 0.5, -3.0, 3.0)[:, None]
    u = rng.uniform(-1.0, 1.0, size=(3 * N, 2))
    yield "ellipse", u[(u[:, 0] / 1.0) ** 2 + (u[:, 1] / 0.5) ** 2 < 1.0][:N]


class TestBinning2D:
    def test_corner_split(self):
        g = _unit_grid(16)
        mid = 0.5 * (g.x1.nodes[4] + g.x1.nodes[5])
        b = bin_linear_2d([[mid, g.x2.nodes[7]]], g)
        assert b.weights[4, 7] == pytest.approx(0.5)
        assert b.weights[5, 7] == pytest.approx(0.5)
        assert b.weights.sum() == pytest.approx(1.0)

    def test_mass_and_means(self):
        p = np.random.default_rng(0).uniform(0.1, 0.9, size=(500, 2))
        g = _unit_grid(64)
        b = bin_linear_2d(p, g)
        assert b.weights.sum() == pytest.approx(1.0, abs=1e-12)
        m1 = (b.weights.sum(axis=1) @ g.x1.nodes)
        assert m1 == pytest.approx(p[:, 0].mean(), abs=1e-10)

    def test_outside_grid(self):
        with pytest.raises(ValueError, match="outside"):
            bin_linear_2d([[1.5, 0.5]], _unit_grid(16))

    def test_matches_add_at_reference(self):
        pts = np.random.default_rng(33).normal(size=(20000, 2))
        g = make_grid_2d(pts, n=2 ** 7)
        ref = np.zeros(g.shape)
        pos = [(pts[:, c] - a.lo) / a.step for c, a in enumerate((g.x1, g.x2))]
        idx = [np.minimum(q.astype(np.int64), 2 ** 7 - 2) for q in pos]
        fx, fy = (q - i for q, i in zip(pos, idx))
        for dx in (0, 1):
            for dy in (0, 1):
                wx = fx if dx else 1.0 - fx
                wy = fy if dy else 1.0 - fy
                np.add.at(ref, (idx[0] + dx, idx[1] + dy), wx * wy)
        ref /= pts.shape[0]
        assert np.max(np.abs(bin_linear_2d(pts, g).weights - ref)) <= 1e-15

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            bin_linear_2d(np.ones((3, 3)), _unit_grid(16))
        with pytest.raises(ValueError):
            bin_linear_2d([[0.5, np.nan]], _unit_grid(16))

    def test_make_grid_2d_padding(self):
        p = np.array([[0.0, 10.0], [1.0, 20.0]])
        g = make_grid_2d(p, n=16, pad_fraction=0.1)
        assert g.x1.lo == pytest.approx(-0.1) and g.x1.hi == pytest.approx(1.1)
        assert g.x2.lo == pytest.approx(9.0) and g.x2.hi == pytest.approx(21.0)

    def test_integrate_2d_constant(self):
        g = Grid2D(Grid1D(0.0, 2.0, 32), Grid1D(0.0, 3.0, 64))
        assert integrate_2d(np.ones(g.shape), g) == pytest.approx(6.0)


class TestPsiHat:
    @pytest.mark.parametrize("i,j", [(1, 1), (2, 0), (0, 2), (2, 1)])
    def test_double_sum_oracle(self, i, j):
        rng = np.random.default_rng(30)
        pts = 0.35 + 0.3 * rng.beta(2.0, 2.0, size=(50, 2))
        b = bin_linear_2d(pts, _unit_grid(2 ** 10))
        t_ij = 2e-3
        assert psi_hat(i, j, t_ij, b) == pytest.approx(
            direct_psi(pts, i, j, t_ij), rel=1e-3)

    def test_index_symmetry_under_transpose(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(0.2, 0.8, size=(200, 2))
        b = bin_linear_2d(pts, _unit_grid(2 ** 8))
        bt = BinnedHistogram(b.grid, b.weights.T)
        assert psi_hat(1, 2, 3e-3, b) == pytest.approx(
            psi_hat(2, 1, 3e-3, bt), rel=1e-12)

    def test_invalid_t(self):
        b = bin_linear_2d([[0.5, 0.5]], _unit_grid(16))
        with pytest.raises(ValueError):
            psi_hat(1, 1, 0.0, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any 0 * inf
            for t_ij in (np.inf, np.nan):
                with pytest.raises(ValueError, match="t_ij must be finite"):
                    psi_hat(1, 1, t_ij, b)

    def test_held_spectrum_matches_per_call_formula(self):
        pts = np.random.default_rng(32).normal(size=(1000, 2)) * [1.0, 2.0]
        b = bin_linear_2d(pts, make_grid_2d(pts, 2 ** 8, 0.1))
        # repeated pairs and times exercise the cached axis factors; a
        # histogram of the same weights made afresh holds no moments yet
        for t in (1e-6, 1e-4, 1e-3, 5e-2, 1e-4):
            for i, j in ((0, 2), (2, 0), (1, 1), (3, 1), (0, 4), (2, 3), (1, 1)):
                held = psi_hat(i, j, t, b)
                assert held == pytest.approx(per_call_psi(i, j, t, b), rel=1e-12), (i, j, t)
                fresh = BinnedHistogram(b.grid, b.weights)
                assert psi_hat(i, j, t, fresh) == pytest.approx(held, rel=1e-12)


class TestStage2D:
    def test_formula(self):
        # q(1)q(2) < 0, so level-4 (positive) functionals give a positive bracket
        i, j, N = 1, 2, 800
        pa, pb = 0.4, 0.6  # psi_{i+1,j}, psi_{i,j+1}: i+j even, positive
        q = {1: -1.0 / np.sqrt(2.0 * np.pi), 2: 3.0 / np.sqrt(2.0 * np.pi)}  # q(j)
        expect = ((1.0 + 2.0 ** (-i - j - 1)) / 3.0 * (
            -2.0 * q[i] * q[j]) / (N * (pa + pb))) ** (1.0 / (2 + i + j))
        assert t_stage_2d(i, j, pa, pb, N) == pytest.approx(expect, rel=1e-13)

    def test_nonpositive_bracket(self):
        # q(1)^2 > 0, so a positive psi sum makes the bracket negative
        with pytest.raises(ArithmeticError):
            t_stage_2d(1, 1, 0.4, 0.5, 800)


class TestSelector2D:
    def test_selects_on_the_grid_of_a_histogram(self):
        # a bin_linear_2d result is selected on its own grid; the pinned
        # values keep that grid choice bit for bit
        reg = registry()
        p = np.column_stack([reg["bimodal_pm2"].sample(800, np.random.default_rng(71)),
                             reg["skewed_bimodal"].sample(800, np.random.default_rng(72))])
        assert isj2d_select(bin_linear_2d(p, make_grid_2d(p, 64, 0.2)))[:3] == (
            0.0006198451283331838, 0.04395508897771606, 0.07185480218178444)

    @pytest.mark.parametrize("select", [isj2d_select, normal_ref_2d_select])
    def test_histogram_without_its_sample_is_refused(self, select):
        pts = np.random.default_rng(3).normal(size=(200, 2))
        b = bin_linear_2d(pts, make_grid_2d(pts))
        with pytest.raises(ValueError, match="no sample"):
            select(BinnedHistogram(b.grid, b.weights))

    def test_recursion_depth_insensitive(self):
        pts = np.random.default_rng(1).multivariate_normal(
            [0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]], size=1000)
        z4 = isj2d_select(pts)[0]
        z5 = _select_2d(bin_linear_2d(pts, make_grid_2d(pts)), 5)[0]
        assert abs(z4 - z5) / z4 < 0.15

    def test_isotropic_sample_gives_isotropic_bandwidths(self):
        pts = np.random.default_rng(1).normal(size=(4000, 2))
        _, t1, t2, rep = isj2d_select(pts)
        assert abs(t1 / t2 - 1.0) < 0.15
        assert rep.converged and rep.method == "isj2d"

    def test_axis_swap_swaps_bandwidths(self):
        pts = np.random.default_rng(2).normal(size=(600, 2)) * [1.0, 3.0]
        _, t1, t2, _ = isj2d_select(pts)
        _, s1, s2, _ = isj2d_select(pts[:, ::-1])
        assert s1 == pytest.approx(t2, rel=1e-8)
        assert s2 == pytest.approx(t1, rel=1e-8)

    def test_per_axis_affine_equivariance(self):
        pts = np.random.default_rng(3).normal(size=(800, 2))
        _, t1, t2, _ = isj2d_select(pts)
        scaled = pts * [2.5, 1.0] + [40.0, -7.0]
        _, s1, s2, _ = isj2d_select(scaled)
        assert s1 == pytest.approx(2.5 ** 2 * t1, rel=1e-6)
        assert s2 == pytest.approx(t2, rel=1e-6)

    def test_matches_iteration_where_it_converges(self):
        compared = 0
        for s in range(3):
            for name, pts in _shapes_2d(np.random.default_rng([21, s]), 1000):
                ref = iterated_fixed_point_2d(pts)
                if ref is None:
                    continue
                compared += 1
                t_star, t1, t2, rep = isj2d_select(pts)
                assert rep.converged and rep.iterations < 100
                assert (t_star, t1, t2) == pytest.approx(ref, rel=1e-9), (name, s)
        assert compared >= 12

    def test_matches_the_unfloored_selector(self):
        # the five shapes above and a two-component correlated mixture,
        # 50 draws each: the floor only skips ladder points below the root
        samples = []
        for s in range(50):
            rng = np.random.default_rng([23, s])
            samples += [(f"{name}/{s}", pts) for name, pts in _shapes_2d(rng, 1000)]
            z = rng.normal(size=(1000, 2)) @ [[1.0, 0.15], [0.0, 0.29]]
            samples.append((f"mixture/{s}", np.where(
                rng.random(1000)[:, None] < 0.6, z, [2.0, 1.0] + 0.5 * z[:, ::-1])))
        got = [isj2d_select(pts)[:3] for _, pts in samples]
        with pytest.MonkeyPatch.context() as mp:
            unfloored_uncut(mp)
            ref = [isj2d_select(pts)[:3] for _, pts in samples]
        for (name, _), a, b in zip(samples, got, ref):
            assert a == pytest.approx(b, rel=1e-12), name

    def test_root_below_one_step_is_taken_from_a_refined_grid(self):
        # at 32^2 nodes the only root sits at 0.74 steps; at 64^2 at 1.5
        pts = np.random.default_rng(3).normal(size=(10_000, 2))
        coarse, fine = isj2d_select(pts, n=32), isj2d_select(pts, n=64)
        assert coarse[:3] == fine[:3] and coarse[3].converged
        assert np.sqrt(fine[0]) * 63 > 1.0

    @pytest.mark.parametrize("axis", [0, 1])
    def test_zero_range_axis_raises(self, axis):
        pts = np.random.default_rng(6).normal(size=(200, 2))
        pts[:, axis] = 1.5
        for select in (isj2d_select, normal_ref_2d_select):
            with pytest.raises(ValueError, match="zero range"):
                select(pts)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            isj2d_select(np.random.default_rng(4).normal(size=(40, 2)))

    def test_normal_reference_agrees_on_gaussian(self):
        pts = np.random.default_rng(2).normal(size=(2000, 2))
        _, t1, t2, _ = isj2d_select(pts)
        _, s1, s2, rep = normal_ref_2d_select(pts)
        assert abs(s1 - t1) / t1 < 0.30
        assert abs(s2 - t2) / t2 < 0.30
        assert rep.method == "normal_ref_2d"

    def test_gamma_validation(self):
        b = bin_linear_2d([[0.5, 0.5], [0.4, 0.6]], _unit_grid(16))
        with pytest.raises(ValueError):
            gamma_2d(0.01, 2, b, 2)
        with pytest.raises(ValueError):
            gamma_2d(-1.0, 4, b, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (np.inf, np.nan):
                with pytest.raises(ValueError, match="t must be finite"):
                    gamma_2d(t, 4, b, 2)


class TestGaussKde2D:
    @pytest.mark.parametrize("t", [np.inf, (0.01, np.inf), (np.nan, 0.01)])
    def test_non_finite_t(self, t):
        b = bin_linear_2d([[0.5, 0.5]], _unit_grid(16))
        with pytest.raises(ValueError, match="finite"):
            gauss_kde_2d(b, t)

    def test_single_point_peak(self):
        g = _unit_grid(2 ** 8)
        b = bin_linear_2d([[0.5, 0.5]], g)
        t = 1e-3
        est = gauss_kde_2d(b, t)
        # far from the boundary the peak is the free-space kernel height
        assert est.values.max() == pytest.approx(1.0 / (2.0 * np.pi * t), rel=1e-2)

    def test_matches_free_space_oracle_in_interior(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.35, 0.65, size=(60, 2))
        g = _unit_grid(2 ** 8)
        t = 2e-3
        est = gauss_kde_2d(bin_linear_2d(pts, g), t)
        ii = np.arange(80, 176)  # central window
        X1, X2 = np.meshgrid(g.x1.nodes[ii], g.x2.nodes[ii], indexing="ij")
        dx = X1[..., None] - pts[:, 0]
        dy = X2[..., None] - pts[:, 1]
        oracle = np.exp(-(dx ** 2 + dy ** 2) / (2.0 * t)).mean(-1) / (2.0 * np.pi * t)
        assert np.max(np.abs(est.values[np.ix_(ii, ii)] - oracle)) < 1e-3 * oracle.max()

    def test_anisotropic_pair(self):
        g = _unit_grid(2 ** 7)
        b = bin_linear_2d([[0.5, 0.5]], g)
        est = gauss_kde_2d(b, (4e-3, 1e-3))
        # wider in x1 than in x2: compare equal offsets along each axis
        v = est.values
        i0 = j0 = 2 ** 6
        assert v[i0 + 10, j0] > v[i0, j0 + 10]

    def test_mass(self):
        pts = np.random.default_rng(6).uniform(0.1, 0.9, size=(300, 2))
        est = gauss_kde_2d(bin_linear_2d(pts, _unit_grid(2 ** 8)), 0.01)
        assert integrate_2d(est.values, est.grid) == pytest.approx(1.0, abs=1e-8)

    def test_invalid_t(self):
        b = bin_linear_2d([[0.5, 0.5]], _unit_grid(16))
        with pytest.raises(ValueError):
            gauss_kde_2d(b, (0.01, 0.0))


class TestMaskedHeat:
    @pytest.mark.parametrize("t", [np.inf, (0.01, np.inf), np.nan, -0.01])
    def test_invalid_time(self, t):
        # an infinite time once raised OverflowError, which the CLI
        # reported as an internal error
        g = _unit_grid(2 ** 4)
        b = bin_linear_2d([[0.5, 0.5]], g)
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            solve_heat_masked(b, DomainMask(g, np.ones(g.shape, dtype=bool)), t)

    def test_full_rectangle_matches_spectral(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0.2, 0.8, 800),
                               rng.uniform(0.3, 0.7, 800)])
        g = _unit_grid(2 ** 8)
        b = bin_linear_2d(pts, g)
        mask = DomainMask(g, np.ones(g.shape, dtype=bool))
        t = 0.13
        masked = solve_heat_masked(b, mask, t)
        spectral = gauss_kde_2d(b, t)
        assert np.max(np.abs(masked.values - spectral.values)) <= 1e-4 * (
            spectral.values.max())

    def test_equal_pair_matches_scalar_time(self):
        g = _unit_grid(2 ** 6)
        inside = np.zeros(g.shape, dtype=bool)
        inside[5:60, 8:50] = True
        pts = np.random.default_rng(9).uniform([0.2, 0.2], [0.8, 0.7], size=(300, 2))
        b = bin_linear_2d(pts, g)
        scalar = solve_heat_masked(b, DomainMask(g, inside), 0.02)
        pair = solve_heat_masked(b, DomainMask(g, inside), (0.02, 0.02))
        assert pair.t == scalar.t == (0.02, 0.02)
        assert np.max(np.abs(pair.values - scalar.values)) <= 1e-14 * scalar.values.max()

    def test_per_axis_times_match_spectral_on_full_rectangle(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0.2, 0.8, 800),
                               rng.uniform(0.3, 0.7, 800)])
        g = _unit_grid(2 ** 8)
        b = bin_linear_2d(pts, g)
        mask = DomainMask(g, np.ones(g.shape, dtype=bool))
        tt = (0.13, 0.03)
        masked = solve_heat_masked(b, mask, tt)
        spectral = gauss_kde_2d(b, tt)
        assert masked.t == tt
        assert np.max(np.abs(masked.values - spectral.values)) <= 1e-4 * (
            spectral.values.max())
        # the solve really is anisotropic: the common-time answer is far off
        iso = solve_heat_masked(b, mask, 0.08)
        assert np.max(np.abs(iso.values - spectral.values)) > 1e-2 * spectral.values.max()

    def test_mass_conserved_and_outside_zero(self):
        g = _unit_grid(2 ** 7)
        inside = np.zeros(g.shape, dtype=bool)
        inside[20:100, 30:110] = True
        mask = DomainMask(g, inside)
        rng = np.random.default_rng(8)
        lo1, hi1 = g.x1.nodes[25], g.x1.nodes[95]
        lo2, hi2 = g.x2.nodes[35], g.x2.nodes[105]
        pts = np.column_stack([rng.uniform(lo1, hi1, 400),
                               rng.uniform(lo2, hi2, 400)])
        b = bin_linear_2d(pts, g)
        est = solve_heat_masked(b, mask, 0.05)
        assert integrate_2d(est.values, est.grid) == pytest.approx(1.0, abs=1e-9)
        assert np.all(est.values[~inside] == 0.0)

    def test_long_time_uniform_inside(self):
        g = _unit_grid(2 ** 7)
        inside = np.zeros(g.shape, dtype=bool)
        inside[30:90, 30:90] = True
        mask = DomainMask(g, inside)
        pts = np.column_stack([np.full(50, g.x1.nodes[60]),
                               np.full(50, g.x2.nodes[60])])
        b = bin_linear_2d(pts, g)
        est = solve_heat_masked(b, mask, 5.0)
        v = est.values[inside]
        assert np.ptp(v) < 1e-6 * v.mean()

    @pytest.mark.parametrize("tt", [(0.01, 0.01), (0.02, 0.002), (0.5, 0.5)])
    @pytest.mark.parametrize("shape", ["interior", "edge", "two_components"])
    def test_matches_dense_exponential(self, shape, tt):
        """Against expm(W^-1 S) applied to rough data on a 32^2 grid.  The
        edge mask holds the half- and quarter-weight nodes of the grid edge;
        heat moves no mass between the two components of the last mask."""
        g = _unit_grid(32)
        X1, X2 = np.meshgrid(g.x1.nodes, g.x2.nodes, indexing="ij")
        inside = {
            "interior": (X1 - 0.5) ** 2 + (X2 - 0.5) ** 2 < 0.35 ** 2,
            "edge": X1 ** 2 + (X2 - 0.3) ** 2 < 0.6 ** 2,
            "two_components": ((X1 > 0.1) & (X1 < 0.35) & (X2 > 0.1) & (X2 < 0.35))
            | ((X1 > 0.55) & (X1 < 0.9) & (X2 > 0.5) & (X2 < 0.95)),
        }[shape]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the two-component mask warns
            mask = DomainMask(g, inside)
        wts = np.where(inside, np.random.default_rng(40).random(g.shape), 0.0)
        b = BinnedHistogram(g, wts / wts.sum())
        (S1, S2), w = _masked_operator(mask)
        S = (tt[0] * S1 + tt[1] * S2).toarray()
        ref = expm(S / w[:, None]) @ (b.weights[inside] / w)
        est = solve_heat_masked(b, mask, tt)
        assert np.max(np.abs(est.values[inside] - ref)) <= 1e-10 * ref.max()
        labels, parts = ndimage.label(inside)
        assert parts == (2 if shape == "two_components" else 1)
        for j in range(1, parts + 1):
            part = labels == j
            mass = integrate_2d(np.where(part, est.values, 0.0), g)
            assert abs(mass - b.weights[part].sum()) <= 1e-11
        # the report: Gershgorin bound of W^-1/2 S W^-1/2, the stopping
        # degree, the mass error and the minimum before clipping
        stats = est.solver_stats
        half = 0.5 * np.abs(S / np.sqrt(np.outer(w, w))).sum(axis=1).max()
        assert stats["method"] == "chebyshev"
        assert stats["bound"] == pytest.approx(2.0 * half, rel=1e-12)
        k = stats["degree"]
        assert k > np.sqrt(half) and ive(k, half) < 1e-13
        assert k - 1 <= np.sqrt(half) or ive(k - 1, half) >= 1e-13
        assert stats["mass_error"] <= 1e-11
        assert stats["min_before_clip"] == pytest.approx(ref.min(), abs=1e-10 * ref.max())

    def test_zero_time_reports_no_work(self):
        g = _unit_grid(16)
        b = bin_linear_2d([[0.5, 0.5]], g)
        est = solve_heat_masked(b, DomainMask(g, np.ones(g.shape, bool)), (0.0, 0.0))
        assert est.solver_stats["degree"] == 0 and est.solver_stats["mass_error"] == 0.0
        assert integrate_2d(est.values, est.grid) == pytest.approx(1.0, rel=1e-14)

    def test_data_outside_mask_rejected(self):
        g = _unit_grid(2 ** 7)
        inside = np.zeros(g.shape, dtype=bool)
        inside[40:80, 40:80] = True
        b = bin_linear_2d([[0.05, 0.05]], g)
        with pytest.raises(ValueError, match="outside the mask"):
            solve_heat_masked(b, DomainMask(g, inside), 0.01)

    def test_mask_validation(self):
        g = _unit_grid(16)
        with pytest.raises(ValueError):
            DomainMask(g, np.zeros(g.shape, dtype=bool))
        two = np.zeros(g.shape, dtype=bool)
        two[1:3, 1:3] = True
        two[10:12, 10:12] = True
        with pytest.warns(UserWarning, match="disconnected"):
            DomainMask(g, two)

    def test_grid_mismatch(self):
        b = bin_linear_2d([[0.5, 0.5]], _unit_grid(16))
        other = _unit_grid(32)
        with pytest.raises(ValueError):
            solve_heat_masked(b, DomainMask(other, np.ones(other.shape, bool)), 0.01)


class TestEstimate2DContainer:
    def test_shape_checks(self):
        g = _unit_grid(16)
        with pytest.raises(ValueError):
            DensityEstimate2D(g, np.ones((8, 8)), (0.01, 0.01))
        with pytest.raises(ValueError):
            BinnedHistogram(g, np.ones((8, 16)))
