"""End-to-end acceptance suite.

Ten criteria covering selector benchmarks, the adaptive diffusion
estimator against its comparators, boundary behavior, oracle
equivalences, PDE structural properties, the small-time kernel
approximation, samplers, and the 2D pipeline.  Each test emits a single
PASS/FAIL line on the terminal.
"""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeval
from scipy import ndimage
from scipy.stats import ks_1samp, norm

from diffkde import (
    BinnedHistogram,
    DomainMask,
    Grid1D,
    Grid2D,
    bin_linear,
    bin_linear_2d,
    diffusion_pipeline,
    euler_sample,
    gauss_kde_2d,
    gauss_kde_exact,
    gauss_kde_spectral,
    hall_park_estimate,
    integrate,
    integrate_2d,
    isj2d_select,
    lscv_select,
    normal_ref_2d_select,
    solve_diffusion,
    solve_heat_masked,
    theta_sample,
)
from diffkde.bandwidth import functional_norm
from diffkde.diffusion import PilotModel, _operator_bands
from diffkde.grids import trapezoid_weights
from diffkde.kde2d import bin_linear_2d as _b2
from diffkde.kde2d import psi_hat
from diffkde.testbed import registry, run_benchmark

from reference import (
    asymptotic_kernel,
    csiszar_divergence,
    mode_count,
    theta_kernel_cosine,
    theta_kernel_images,
)


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_selector_separated_bimodal(capsys):
    res = run_benchmark("separated_pm30", N=1000, trials=10,
                        method_a="isj", method_b="sj", seed=100)
    ok = res.ratio_median <= 0.2
    _emit(capsys, 1, ok,
          f"separated modes +-30: median ISE ratio {res.ratio_median:.3f} <= 0.2")


def test_criterion_02_selector_benchmark_bands(capsys):
    r8 = run_benchmark("separated_bimodal", N=100, trials=10,
                       method_a="isj", method_b="sj", seed=100).ratio_median
    r14 = run_benchmark("five_modes", N=1000, trials=10,
                        method_a="isj", method_b="sj", seed=100).ratio_median
    r7 = run_benchmark("outlier", N=1000, trials=10,
                       method_a="isj", method_b="sj", seed=100).ratio_median
    ok = (r8 < 0.8) and (r14 < 0.5) and (0.8 <= r7 <= 1.3)
    _emit(capsys, 2, ok,
          f"benchmark bands: separated_bimodal {r8:.3f} < 0.8, "
          f"five_modes {r14:.3f} < 0.5, outlier {r7:.3f} in [0.8, 1.3]")


def test_criterion_03_diffusion_vs_abramson(capsys):
    r9 = run_benchmark("log_normal", N=1000, trials=10,
                       method_a="diffusion", method_b="abramson",
                       seed=100).ratio_median
    r7 = run_benchmark("bimodal_pm2", N=1000, trials=10,
                       method_a="diffusion", method_b="abramson",
                       seed=100).ratio_median
    ok = (r9 < 0.5) and (r7 < 0.9)
    _emit(capsys, 3, ok,
          f"diffusion vs variable-bandwidth: log_normal {r9:.3f} < 0.5, "
          f"bimodal_pm2 {r7:.3f} < 0.9")


def test_criterion_04_diffusion_vs_boundary_corrected(capsys):
    ratios = []
    for trial in range(10):
        rng = np.random.default_rng([100, trial])
        x = -rng.exponential(size=1000)
        g = Grid1D(min(-12.0, float(x.min()) - 1.0), 0.0, 2 ** 14)
        truth = np.exp(g.nodes)
        sol, _ = diffusion_pipeline(x, grid=g)
        ise_d = integrate((sol.estimate.values - truth) ** 2, g)
        t = lscv_select(x).t
        hp = hall_park_estimate(x, g.nodes, t, beta=0.0)
        ise_h = integrate((hp - truth) ** 2, g)
        ratios.append(ise_d / ise_h)
    med = float(np.median(ratios))
    ok = med < 1.0
    _emit(capsys, 4, ok,
          f"flipped exponential, diffusion vs boundary-corrected: "
          f"median ratio {med:.3f} < 1")


def test_criterion_05_boundary_consistency(capsys):
    t = 0.05248 ** 2
    g = Grid1D(0.0, 1.0, 2 ** 10)
    th, pl = [], []
    for trial in range(100):
        rng = np.random.default_rng([200, trial])
        x = rng.beta(1.0, 4.0, size=1000)
        th.append(gauss_kde_spectral(bin_linear(x, g), t).values[0])
        pl.append(gauss_kde_exact(x, [0.0], t)[0])
    th, pl = np.array(th), np.array(pl)
    dev_t, band_t = abs(th.mean() - 4.0), 3.0 * th.std()
    dev_p, band_p = abs(pl.mean() - 2.0), 3.0 * pl.std()
    ok = (dev_t < band_t) and (dev_p < band_p)
    _emit(capsys, 5, ok,
          f"boundary values: reflection {th.mean():.3f} vs 4 "
          f"(|dev| {dev_t:.3f} < {band_t:.3f}), plain {pl.mean():.3f} vs 2 "
          f"(|dev| {dev_p:.3f} < {band_p:.3f})")


def _direct_functional_norm(x, j, t_j):
    N = x.size
    s = 2.0 * t_j
    d = (x[:, None] - x[None, :]) / np.sqrt(s)
    coef = np.zeros(2 * j + 1)
    coef[-1] = 1.0
    phi = np.exp(-0.5 * d * d) / np.sqrt(2.0 * np.pi * s)
    return float((-1.0) ** j * s ** (-j) * np.sum(hermeval(d, coef) * phi) / N ** 2)


def _direct_psi(pts, i, j, t_ij):
    N = pts.shape[0]
    s = 2.0 * t_ij

    def deriv(d, order):
        coef = np.zeros(order + 1)
        coef[-1] = 1.0
        z = d / np.sqrt(s)
        return s ** (-order / 2.0) * hermeval(z, coef) * np.exp(
            -0.5 * z * z) / np.sqrt(2.0 * np.pi * s)

    dx = pts[:, 0][:, None] - pts[:, 0][None, :]
    dy = pts[:, 1][:, None] - pts[:, 1][None, :]
    return float((deriv(dx, 2 * i) * deriv(dy, 2 * j)).sum() / N ** 2)


def test_criterion_06_oracle_equivalences(capsys):
    fails = []
    # spectral vs direct-sum Gaussian KDE, 1e-4 relative
    x = np.random.default_rng(2).normal(size=200)
    g = Grid1D(x.min() - 3.0, x.max() + 3.0, 2 ** 12)
    est = gauss_kde_spectral(bin_linear(x, g), 0.05)
    exact = gauss_kde_exact(x, g.nodes, 0.05)
    if np.max(np.abs(est.values - exact)) > 1e-4 * exact.max():
        fails.append("spectral-vs-exact")
    # derivative-norm estimator vs O(N^2) sum, 1e-3 relative, N <= 200
    rng = np.random.default_rng(12)
    xi = 0.3 + 0.4 * rng.beta(2.0, 2.0, size=150)
    binned = bin_linear(xi, Grid1D(0.0, 1.0, 2 ** 14))
    for j, tj in ((1, 2e-3), (2, 1e-3)):
        a = functional_norm(binned, j, tj)
        b = _direct_functional_norm(xi, j, tj)
        if abs(a - b) / abs(b) > 1e-3:
            fails.append(f"functional_norm j={j}")
    # mixed 2D functional vs O(N^2) sum
    pts = 0.35 + 0.3 * np.random.default_rng(30).beta(2.0, 2.0, size=(50, 2))
    g2 = Grid2D(Grid1D(0.0, 1.0, 2 ** 10), Grid1D(0.0, 1.0, 2 ** 10))
    b2 = _b2(pts, g2)
    for ij in ((1, 1), (2, 1)):
        a = psi_hat(ij[0], ij[1], 2e-3, b2)
        b = _direct_psi(pts, ij[0], ij[1], 2e-3)
        if abs(a - b) / abs(b) > 1e-3:
            fails.append(f"psi_hat {ij}")
    # reflection-kernel dual representations, 1e-10
    lat = np.linspace(0.0, 1.0, 11)
    for t in (1e-3, 1e-2, 0.1, 1.0):
        d = np.abs(theta_kernel_images(lat[:, None], lat[None, :], t)
                   - theta_kernel_cosine(lat[:, None], lat[None, :], t))
        if d.max() > 1e-10:
            fails.append(f"theta duals t={t}")
    # diffusion solver with uniform pilot vs reflection estimator, 1e-6 sup
    xu = np.random.default_rng(3).uniform(0.1, 0.9, size=200)
    gu = Grid1D(0.0, 1.0, 2 ** 12)
    pm = PilotModel(gu, np.ones(gu.n), 1.0)
    a = solve_diffusion(bin_linear(xu, gu), pm, 0.01).estimate.values
    b = gauss_kde_spectral(bin_linear(xu, gu), 0.01).values
    if np.max(np.abs(a - b)) > 1e-6 * b.max():
        fails.append("uniform-pilot-vs-theta")
    ok = not fails
    _emit(capsys, 6, ok, "oracle equivalences: "
          + ("all matched" if ok else "mismatches: " + ", ".join(fails)))


def test_criterion_07_pde_property_suite(capsys):
    fails = []
    g = Grid1D(-6.0, 6.0, 2 ** 10)
    p = norm.pdf(g.nodes)
    p = np.maximum(p, 1e-12 * p.max())
    p /= integrate(p, g)
    pm = PilotModel(g, p, 1.0)
    x = np.clip(np.random.default_rng(4).normal(size=300), -5.9, 5.9)
    # mass conserved over 50 successive short solves
    bands = _operator_bands(pm)
    u = bin_linear(x, g).weights / trapezoid_weights(g)
    for _ in range(50):
        u = solve_diffusion(u, pm, 2e-4).estimate.values
        if abs(integrate(u, g) - 1.0) > 1e-8:
            fails.append("mass")
            break
    # discrete stationarity of the pilot
    stat = solve_diffusion(pm.p.copy(), pm, 0.5).estimate.values
    if np.max(np.abs(stat - pm.p)) > 1e-8 * pm.p.max():
        fails.append("stationarity")
    # composition in t: exp(0.01 M) exp(0.01 M) u = exp(0.02 M) u
    ic = bin_linear(x, g)
    half = solve_diffusion(ic, pm, 0.01)
    full = solve_diffusion(half.estimate.values, pm, 0.01)
    direct = solve_diffusion(ic, pm, 0.02)
    if np.max(np.abs(full.estimate.values - direct.estimate.values)) > 1e-8:
        fails.append("composition")
    # detailed balance of the generator
    M = np.diag(bands[1]) + np.diag(bands[0][1:], 1) + np.diag(bands[2][:-1], -1)
    S = np.diag(trapezoid_weights(g)) @ M @ np.diag(pm.p)
    if np.max(np.abs(S - S.T)) > 1e-10 * np.max(np.abs(S)):
        fails.append("detailed-balance")
    # divergence to the pilot strictly decreasing along a 10-point ladder
    ts = np.logspace(-3.0, 0.5, 10)
    divs = [csiszar_divergence(solve_diffusion(ic, pm, t).estimate, pm, 2.0)
            for t in ts]
    if not all(a > b for a, b in zip(divs, divs[1:])):
        fails.append("divergence-monotone")
    # mode count nonincreasing in t on the claw sample
    xc = registry()["claw"].sample(2000, np.random.default_rng(10))
    from diffkde import make_grid
    gc = make_grid(xc, n=2 ** 12)
    bc = bin_linear(xc, gc)
    counts = [mode_count(gauss_kde_spectral(bc, t))
              for t in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)]
    if not all(a >= b for a, b in zip(counts, counts[1:])):
        fails.append("mode-count")
    ok = not fails
    _emit(capsys, 7, ok, "PDE properties: "
          + ("all hold" if ok else "violations: " + ", ".join(fails)))


def test_criterion_08_small_time_kernel_approximation(capsys):
    g = Grid1D(-1.0, 1.0, 2 ** 13)
    p = norm.pdf(g.nodes)
    p = np.maximum(p, 1e-12 * p.max())
    p /= integrate(p, g)
    pm = PilotModel(g, p, 1.0)
    iy = int(np.argmin(np.abs(g.nodes - 0.3)))
    ix = int(np.argmin(np.abs(g.nodes - 0.31)))
    w = np.zeros(g.n)
    w[iy] = 1.0
    ic = BinnedHistogram(g, w)
    x, y = g.nodes[ix], g.nodes[iy]
    devs = []
    for t in (1e-2, 1e-3, 1e-4):
        kp = solve_diffusion(ic, pm, t).estimate.values[ix]
        devs.append(abs(kp / asymptotic_kernel(x, y, t, pm) - 1.0))
    ok = devs[0] > devs[1] > devs[2] and devs[2] < 0.05
    _emit(capsys, 8, ok,
          "small-time kernel ratio deviations "
          + " > ".join(f"{d:.2e}" for d in devs) + f", final < 5%")


def test_criterion_09_samplers_ks(capsys):
    # interval-kernel sampler against the quadrature CDF of its density
    y, t = 0.5, 0.04
    draws = theta_sample(np.full(10 ** 5, y), t, np.random.default_rng(9))
    g = Grid1D(0.0, 1.0, 2 ** 12)
    pdf = theta_kernel_images(g.nodes, y, t)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * g.step)))
    cdf /= cdf[-1]
    ks_theta = ks_1samp(draws, lambda q: np.interp(q, g.nodes, cdf)).statistic
    # SDE sampler against the quadrature CDF of the PDE solution
    xs = np.random.default_rng(70).normal(size=1000)
    sol, rep = diffusion_pipeline(xs, n=2 ** 12)
    draws_e = euler_sample(xs, sol.pilot, rep.t_star, n_steps=200,
                           count=10 ** 5, rng=np.random.default_rng(71))
    gg = sol.estimate.grid
    pdf_e = sol.estimate.values
    cdf_e = np.concatenate(([0.0], np.cumsum(
        0.5 * (pdf_e[1:] + pdf_e[:-1]) * gg.step)))
    cdf_e /= cdf_e[-1]
    ks_euler = ks_1samp(draws_e, lambda q: np.interp(q, gg.nodes, cdf_e)).statistic
    ok = ks_theta < 0.015 and ks_euler < 0.015
    _emit(capsys, 9, ok,
          f"sampler KS distances: reflection {ks_theta:.4f}, "
          f"SDE {ks_euler:.4f}, both < 0.015")


def test_criterion_10_two_dimensional(capsys):
    # part 1: far-apart four-Gaussian mixture, data-driven vs normal-ref
    centers = np.array([(-8.0, -8.0), (-8.0, 8.0), (8.0, -8.0), (8.0, 8.0)])
    G = Grid2D(Grid1D(-12.0, 12.0, 2 ** 8), Grid1D(-12.0, 12.0, 2 ** 8))
    X1, X2 = np.meshgrid(G.x1.nodes, G.x2.nodes, indexing="ij")
    truth = np.zeros(G.shape)
    for cx, cy in centers:
        truth += 0.25 * np.exp(-0.5 * ((X1 - cx) ** 2 + (X2 - cy) ** 2)) / (
            2.0 * np.pi)
    ratios = []
    for trial in range(10):
        rng = np.random.default_rng([300, trial])
        pts = centers[rng.integers(0, 4, 400)] + rng.normal(size=(400, 2))
        b = bin_linear_2d(pts, G)
        _, t1, t2, _ = isj2d_select(pts)
        _, s1, s2, _ = normal_ref_2d_select(pts)
        ia = integrate_2d((gauss_kde_2d(b, (t1, t2)).values - truth) ** 2, G)
        ib = integrate_2d((gauss_kde_2d(b, (s1, s2)).values - truth) ** 2, G)
        ratios.append(ia / ib)
    med = float(np.median(ratios))
    # part 2: masked solve on an ellipse
    n = 2 ** 8
    Ge = Grid2D(Grid1D(-1.0, 1.0, n), Grid1D(-1.0, 1.0, n))
    E1, E2 = np.meshgrid(Ge.x1.nodes, Ge.x2.nodes, indexing="ij")
    ell = (E1 / 0.8) ** 2 + (E2 / 0.5) ** 2 <= 1.0
    # two dilation rings so bilinear binning cannot leak mass outside
    inside = ndimage.binary_dilation(ell, iterations=2)
    rng = np.random.default_rng(100)
    pts = []
    while len(pts) < 600:
        c = rng.uniform(-1.0, 1.0, size=(1000, 2))
        keep = (c[:, 0] / 0.8) ** 2 + (c[:, 1] / 0.5) ** 2 <= 1.0
        pts.extend(c[keep].tolist())
    pts = np.array(pts[:600])
    est = solve_heat_masked(bin_linear_2d(pts, Ge), DomainMask(Ge, inside), 0.13)
    mass_err = abs(integrate_2d(est.values, Ge) - 1.0)
    v = est.values[inside]
    cv = float(v.std() / v.mean())
    ok = med <= 0.3 and mass_err <= 1e-6 and cv < 0.15
    _emit(capsys, 10, ok,
          f"2D: selector median ratio {med:.3f} <= 0.3; masked ellipse mass "
          f"error {mass_err:.1e} <= 1e-6, interior CV {cv:.3f} < 0.15")
