"""Adaptive density estimation by linear diffusion.

The estimator evolves the binned empirical measure under

    dg/dt = (1/2) d/dx [ a(x) d/dx (g/p) ],     a = p^alpha,

with zero flux at both grid ends.  p is a pilot density; its stationary
role makes the smoothing locally adaptive (more smoothing where p is
small).  The spatial discretization is a conservative flux form that
keeps three structural identities exact: total mass, stationarity of p,
and the symmetry behind detailed balance.

Detailed balance makes the tridiagonal generator M similar to a symmetric
matrix with spectrum in (-inf, 0], so the semi-discrete solution
exp(tM) u is computed in one shot as a contour integral of the resolvent,
discretized by the trapezoid rule on an optimized Talbot (cotangent)
contour: Trefethen, Weideman & Schmelzer, BIT 46 (2006) 653-670, and
Weideman & Trefethen, Math. Comp. 76 (2007) 1341-1356.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .bandwidth import isj_select
from .grids import (
    BinnedHistogram,
    DensityEstimate1D,
    Grid1D,
    _as_sample,
    _check_time,
    _histogram,
    bin_linear,
    integrate,
    trapezoid_weights,
)
from .kde1d import gauss_kde_spectral

P_FLOOR_REL = 1e-12
# Talbot contour nodes on (-pi, pi); conjugate symmetry halves the solves
N_CONTOUR = 24


@dataclass(frozen=True)
class PilotModel:
    """Pilot density p with diffusivity a = p^alpha and SDE coefficients."""

    grid: Grid1D
    p: np.ndarray
    alpha: float
    a: np.ndarray = field(init=False)
    mu: np.ndarray = field(init=False)
    sigma2: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.grid.n,):
            raise ValueError("p length must equal grid.n")
        if not np.all(np.isfinite(p)) or p.min() <= 0:
            raise ValueError("pilot must be strictly positive and finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        a = p ** self.alpha
        da = np.gradient(a, self.grid.step)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "mu", da / (2.0 * p))
        object.__setattr__(self, "sigma2", a / p)


@dataclass
class DiffusionSolution:
    estimate: DensityEstimate1D
    pilot: PilotModel
    solver_stats: dict


def build_pilot(sample, alpha: float = 1.0) -> PilotModel:
    """Gaussian-KDE pilot at the plug-in bandwidth, floored and renormalized,
    on the grid the selector reads: ``make_grid(sample)``, or a
    :func:`~diffkde.grids.bin_linear` result's own."""
    binned = _histogram(sample)
    return _pilot(binned, alpha, isj_select(binned).t_star)


def _pilot(binned: BinnedHistogram, alpha: float, t: float) -> PilotModel:
    p = gauss_kde_spectral(binned, t).values.copy()
    p = np.maximum(p, P_FLOOR_REL * p.max())
    p /= integrate(p, binned.grid)
    return PilotModel(binned.grid, p, alpha)


def _operator_bands(pilot: PilotModel):
    """Tridiagonal generator M of du/dt = M u in solve_banded layout.

    Edge fluxes F_{i+1/2} = a_{i+1/2} [(u/p)_{i+1} - (u/p)_i]/h with zero
    flux at both ends; du_i/dt = (F_{i+1/2} - F_{i-1/2}) / (2 w_i) with
    trapezoid node weights w.  By construction w.M = 0 (mass), M p = 0
    (stationarity) and diag(w) M diag(p) is symmetric (detailed balance).
    """
    n = pilot.grid.n
    h = pilot.grid.step
    w = trapezoid_weights(pilot.grid)
    p = pilot.p
    ae = 0.5 * (pilot.a[:-1] + pilot.a[1:])  # edge diffusivities
    lower = np.zeros(n)
    diag = np.zeros(n)
    upper = np.zeros(n)
    diag[:-1] -= ae / p[:-1]
    diag[1:] -= ae / p[1:]
    upper[1:] = ae / p[1:]
    lower[:-1] = ae / p[:-1]
    scale = 1.0 / (2.0 * w * h)
    diag *= scale
    upper[1:] *= scale[:-1]
    lower[:-1] *= scale[1:]
    return np.vstack([upper, diag, lower])


def solve_banded(l_and_u, ab, b) -> np.ndarray:
    """scipy.linalg.solve_banded, imported at the first resolvent solve of
    the contour sum rather than with the package."""
    from scipy import linalg
    return linalg.solve_banded(l_and_u, ab, b)


def _apply(bands: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = bands[1] * u
    out[:-1] += bands[0][1:] * u[1:]
    out[1:] += bands[2][:-1] * u[:-1]
    return out


def _expm_apply(bands: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
    """exp(tM) u by the trapezoid rule on the optimized cotangent contour.

    exp(tM) u = (1/2 pi i) int e^z (zI - tM)^{-1} u dz along
    z(th) = N (0.5017 th cot(0.6407 th) - 0.6122 + 0.2645 i th), th in
    (-pi, pi), which wraps the real spectrum of tM.  The N midpoint nodes
    pair off as conjugates, so N/2 complex tridiagonal solves suffice; the
    error decays like 3.89^-N for any t.
    """
    th = (np.arange(N_CONTOUR // 2) + 0.5) * (2.0 * np.pi / N_CONTOUR)
    c = np.cos(0.6407 * th) / np.sin(0.6407 * th)
    z = N_CONTOUR * (0.5017 * th * c - 0.6122 + 0.2645j * th)
    dz = N_CONTOUR * (0.5017 * (c - 0.6407 * th * (1.0 + c * c)) + 0.2645j)
    weights = np.exp(z) * dz * (2.0 / N_CONTOUR)
    lhs = -t * bands.astype(complex)
    diag = lhs[1].copy()
    out = np.zeros_like(u)
    for zk, wk in zip(z, weights):
        lhs[1] = diag + zk
        out += (wk * solve_banded((1, 1), lhs, u)).imag
    return out


def _initial_values(ic, pilot: PilotModel) -> np.ndarray:
    if isinstance(ic, BinnedHistogram):
        if ic.grid != pilot.grid:
            raise ValueError("histogram grid differs from pilot grid")
        return ic.weights / trapezoid_weights(pilot.grid)
    u = np.asarray(ic, dtype=float)
    if u.shape != (pilot.grid.n,):
        raise ValueError("initial values length must equal grid.n")
    return u.copy()


def solve_diffusion(ic, pilot: PilotModel, t: float) -> DiffusionSolution:
    """Evolve an initial measure to time t under the pilot diffusion.

    ``ic`` is a BinnedHistogram (node masses) or node density values on
    the pilot grid.  The semi-discrete solution exp(tM) u is evaluated by
    a 24-node trapezoid rule on an optimized Talbot contour (Trefethen,
    Weideman & Schmelzer 2006; Weideman & Trefethen 2007): 12 complex
    tridiagonal resolvent solves whatever t is, with no time steps.
    ``solver_stats`` records those solves as
    ``steps`` (``rejected`` is always 0), the mass error and the minimum
    before negative round-off is clipped.
    """
    if not np.all(np.isfinite(pilot.p)):
        raise ValueError("non-finite pilot")
    _check_time(t)
    u = _initial_values(ic, pilot)
    grid = pilot.grid
    stats = {"steps": 0, "rejected": 0}
    if t > 0.0:
        mass0 = integrate(u, grid)
        u = _expm_apply(_operator_bands(pilot), u, t)
        stats["steps"] = N_CONTOUR // 2
        stats["mass_error"] = float(abs(integrate(u, grid) - mass0))
    stats["min_before_clip"] = float(u.min())
    est = DensityEstimate1D(grid, np.clip(u, 0.0, None), float(t))
    return DiffusionSolution(est, pilot, stats)


def lf_norm(ic, pilot: PilotModel, t2: float) -> float:
    """||Lf||^2 = ||M g(t2)||^2 at the stage-two time t2.

    g(t2) comes from one contour solve; the generator is then applied
    exactly, so no time difference (and no difference step) is involved.
    """
    _check_time(t2, "t2", positive=True)
    g = solve_diffusion(ic, pilot, t2).estimate.values
    d = _apply(_operator_bands(pilot), g)
    return float(integrate(d * d, pilot.grid))


def sigma_inv_mean(sample, pilot: PilotModel) -> float:
    """Mean of 1/sigma over the data, sigma interpolated from grid values."""
    x = _as_sample(sample)
    if x.min() < pilot.grid.lo or x.max() > pilot.grid.hi:
        raise ValueError("sample outside pilot grid")
    s = np.interp(x, pilot.grid.nodes, np.sqrt(pilot.sigma2))
    return float(np.mean(1.0 / s))


def diffusion_t_star(lf_norm_val: float, sigma_inv_mean_val: float, N: int) -> float:
    """t* = ( E[1/sigma] / (2 N sqrt(pi) ||Lf||^2) )^{2/5}."""
    if not (lf_norm_val > 0 and sigma_inv_mean_val > 0):
        raise ValueError("inputs must be positive")
    return (sigma_inv_mean_val / (2.0 * N * np.sqrt(np.pi) * lf_norm_val)) ** 0.4


def diffusion_pipeline(sample, alpha: float = 1.0, n: int = 2 ** 14,
                       grid: Grid1D | None = None):
    """Full adaptive estimate: pilot, second-stage time, t*, final solve.

    ``sample`` is a sample, selected on ``make_grid(sample, n)``, or a
    :func:`~diffkde.grids.bin_linear` result, selected on its own grid.
    The pilot and the initial condition share one binning on ``grid``, by
    default the selector's.
    """
    selector = _histogram(sample, n)
    x = selector.sample
    binned = (selector if grid is None or grid == selector.grid else
              bin_linear(x, grid))
    report = isj_select(selector)
    pilot = _pilot(binned, alpha, report.t_star)
    lf = lf_norm(binned, pilot, report.t2_star)
    si = sigma_inv_mean(x, pilot)
    t_star = diffusion_t_star(lf, si, x.size)
    sol = solve_diffusion(binned, pilot, t_star)
    return sol, replace(report, t_star=t_star, method="diffusion", functional_norms={
        "lf_norm": lf, "sigma_inv_mean": si, **report.functional_norms})


def euler_sample(sample, pilot: PilotModel, t_star: float, n_steps: int,
                 count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw from the diffusion estimate by Euler steps of the pilot SDE.

    Each draw starts at a uniformly chosen data point and follows
    dY = mu(Y) dt + sigma(Y) dW for total time t_star, reflecting at the
    grid ends (the sampler-side image of the zero-flux condition).

    mu and sigma are linear between grid nodes.  Per-cell tables, built
    once per call, hold mu*dt and sigma*sqrt(dt) at each cell's left node
    and their slopes across the cell, so a step is one index-and-fraction
    computation, four gathers and two multiply-adds into reused buffers.
    Each step draws its normals with ``rng.standard_normal(out=...)``:
    the stream of ``rng.standard_normal(count)`` per step, so the draws,
    and the state ``rng`` is left in, are those of a plain step loop.
    Only draws that left [lo, hi] are reflected, then clamped to it
    against round-off.

    Raises ValueError if ``t_star`` is negative or not finite (0 returns
    the start points), if the sample lies outside the pilot grid, if
    ``n_steps`` < 100 or if ``count`` <= 0.
    """
    if n_steps < 100:
        raise ValueError("n_steps must be >= 100")
    if count <= 0:
        raise ValueError("count must be positive")
    _check_time(t_star, "t_star")
    x = _as_sample(sample)
    grid = pilot.grid
    lo, hi, R = grid.lo, grid.hi, grid.range
    if x.min() < lo or x.max() > hi:
        raise ValueError("sample outside pilot grid")
    dt = t_star / n_steps
    a = pilot.mu * dt
    b = np.sqrt(pilot.sigma2 * dt)
    # slope 0 after the last node: a draw at hi reads that node's values
    da = np.append(np.diff(a), 0.0)
    db = np.append(np.diff(b), 0.0)
    inv_h = 1.0 / grid.step
    y = x[rng.integers(0, x.size, size=count)]
    f, z, g, u = (np.empty(count) for _ in range(4))
    i = np.empty(count, dtype=np.intp)
    for _ in range(n_steps):
        np.subtract(y, lo, out=f)
        f *= inv_h
        i[...] = f  # truncation is the floor: every draw lies in [lo, hi]
        f -= i
        rng.standard_normal(out=z)
        np.take(da, i, out=g, mode="wrap")  # i is in range; "raise" mode buffers out
        g *= f
        g += np.take(a, i, out=u, mode="wrap")
        y += g
        np.take(db, i, out=g, mode="wrap")
        g *= f
        g += np.take(b, i, out=u, mode="wrap")
        g *= z
        y += g
        out = (y < lo) | (y > hi)
        if out.any():
            w = np.mod(y[out] - lo, 2.0 * R)
            y[out] = np.clip(lo + np.where(w > R, 2.0 * R - w, w), lo, hi)
    return y
