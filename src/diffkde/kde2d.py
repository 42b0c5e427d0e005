"""Two-dimensional spectral KDE, plug-in bandwidth selection, and a
masked-domain heat solver for densities supported on irregular regions.

The selector is the 2D analogue of the fixed-point plug-in rule: a
recursion over mixed derivative functionals psi_{i,j} on the unit
square, solved for the smallest fixed point of gamma(t) = t, followed by
diagonal bandwidth entries computed from the level-2 functionals at that
root.  The 2D cosine moments of the binned sample are computed once and
held by its histogram, which every functional and the smoother read.

scipy's ndimage, sparse and special are imported inside the masked-domain
code that calls them, so the free-space paths load no scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bandwidth import (
    BandwidthReport,
    _double_factorial_odd,
    _grid_fixed_point,
    gaussian_reference_norm,
)
from .grids import (
    BinnedHistogram,
    Grid1D,
    _binned,
    _cells,
    _check_time,
    _sampled,
    make_grid,
    trapezoid_weights,
)

_K = 4  # the level the psi recursion starts from


@dataclass(frozen=True)
class Grid2D:
    x1: Grid1D
    x2: Grid1D

    @property
    def shape(self):
        return (self.x1.n, self.x2.n)


@dataclass(frozen=True)
class DensityEstimate2D:
    grid: Grid2D
    values: np.ndarray
    t: tuple
    solver_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError("values shape must match grid")
        object.__setattr__(self, "values", np.clip(v, 0.0, None))


@dataclass(frozen=True)
class DomainMask:
    grid: Grid2D
    inside: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.inside, dtype=bool)
        if m.shape != self.grid.shape:
            raise ValueError("mask shape must match grid")
        if not m.any():
            raise ValueError("mask has no interior nodes")
        from scipy import ndimage
        _, parts = ndimage.label(m)
        if parts > 1:
            warnings.warn(f"mask has {parts} disconnected components")
        object.__setattr__(self, "inside", m)


def _as_sample2d(points) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] == 0:
        raise ValueError("need a nonempty (N, 2) point array")
    if not np.all(np.isfinite(p)):
        raise ValueError("points contain non-finite values")
    return p


def make_grid_2d(points, n: int = 2 ** 8, pad_fraction: float = 0.1) -> Grid2D:
    """Product of the :func:`~diffkde.grids.make_grid` grids of each axis."""
    p = _as_sample2d(points)
    return Grid2D(make_grid(p[:, 0], n, pad_fraction), make_grid(p[:, 1], n, pad_fraction))


def _histogram_2d(points, n: int = 2 ** 8) -> BinnedHistogram:
    """A 2D histogram that carries its points, as it is, or the points
    binned on ``make_grid_2d(points, n)``: what a 2D selector reads."""
    if isinstance(points, BinnedHistogram):
        return _sampled(points)
    p = _as_sample2d(points)
    return bin_linear_2d(p, make_grid_2d(p, n))


def bin_linear_2d(points, grid: Grid2D) -> BinnedHistogram:
    """Bilinear binning: each point splits 1/N over its four corner nodes."""
    p = _as_sample2d(points)
    w = np.zeros(grid.shape)
    (i1, fx), (i2, fy) = (_cells(p[:, c], g) for c, g in enumerate((grid.x1, grid.x2)))
    n2 = grid.x2.n
    flat = i1 * n2 + i2
    for dx in (0, 1):
        for dy in (0, 1):
            wx = fx if dx else 1.0 - fx
            wy = fy if dy else 1.0 - fy
            w += np.bincount(flat + (dx * n2 + dy), wx * wy, w.size).reshape(w.shape)
    return _binned(grid, w / p.shape[0], p)


def integrate_2d(values, grid: Grid2D) -> float:
    w1 = trapezoid_weights(grid.x1)
    w2 = trapezoid_weights(grid.x2)
    return float(w1 @ np.asarray(values, dtype=float) @ w2)


def psi_hat(i: int, j: int, t_ij: float, binned2d: BinnedHistogram) -> float:
    """Plug-in estimate of the mixed functional E[f^(2i,2j)(X)] at pilot
    time t_ij, on the unit square.

    Carries the natural sign (-1)^{i+j}: with unit-square cosine moments
    c_kl of the node weights,

        psi_hat = (-1)^{i+j} sum_{k,l} w_k w_l c_kl^2 (pi k)^{2i} (pi l)^{2j}
                  exp(-(k^2 + l^2) pi^2 t_ij),

    w_k = 1 for k = 0 and 2 otherwise.  This signed convention is what
    makes the stage recursion's bracket positive at every level.  The
    moments are those ``binned2d`` holds, computed on its first use.
    """
    if not t_ij > 0:
        raise ValueError("t_ij must be positive")
    return binned2d.psi(i, j, t_ij)


def t_stage_2d(i: int, j: int, psi_ip1_j: float, psi_i_jp1: float, N: int) -> float:
    """t_{i,j} = [ (1+2^{-i-j-1})/3 * (-2 q(i) q(j)) /
                   (N (psi_{i+1,j} + psi_{i,j+1})) ]^{1/(2+i+j)},

    q(i) q(j) = (-1)^{i+j} (2i-1)!! (2j-1)!! / (2 pi)."""
    qq = (-1.0) ** (i + j) * _double_factorial_odd(i) * _double_factorial_odd(j) / (
        2.0 * np.pi)
    val = (1.0 + 2.0 ** (-i - j - 1)) / 3.0 * (-2.0 * qq) / (N * (psi_ip1_j + psi_i_jp1))
    if not val > 0:
        raise ArithmeticError(f"stage ({i},{j}): nonpositive bracket")
    return val ** (1.0 / (2 + i + j))


def _gamma_levels(t, k, binned2d, N, seed_level=None):
    """Run the psi/t recursion from level k down to 2; return gamma and the
    level-2 set.

    Level m holds {psi_hat_{i,j}: i+j=m}.  With seed_level given (a dict
    {(i,j): psi} at level k+1) the level-k pilot times come from the
    stage formula on those seeds rather than from the common input t.
    """
    psis = seed_level
    for level in range(k, 1, -1):
        times = {(i, level - i): t if psis is None else t_stage_2d(
                     i, level - i, psis[(i + 1, level - i)], psis[(i, level - i + 1)], N)
                 for i in range(level + 1)}
        psis = {(i, j): psi_hat(i, j, tij, binned2d) for (i, j), tij in times.items()}
    g = (2.0 * np.pi * N * (psis[(0, 2)] + psis[(2, 0)] + 2.0 * psis[(1, 1)])) ** (
        -1.0 / 3.0)
    return g, psis


def gamma_2d(t: float, k: int, binned2d: BinnedHistogram, N: int):
    """gamma(t) of the 2D fixed-point rule; also returns the level-2 set."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if not t > 0:
        raise ValueError("t must be positive")
    return _gamma_levels(t, k, binned2d, N)


def _diag_entries(psis, N):
    p02, p20, p11 = psis[(0, 2)], psis[(2, 0)], psis[(1, 1)]
    common = p11 + np.sqrt(p20 * p02)
    t1 = (p02 ** 0.75 / (4.0 * np.pi * N * p20 ** 0.75 * common)) ** (1.0 / 3.0)
    t2 = (p20 ** 0.75 / (4.0 * np.pi * N * p02 ** 0.75 * common)) ** (1.0 / 3.0)
    return t1, t2


def _select_2d(binned2d: BinnedHistogram, k: int, normal_ref: bool = False):
    """Shared driver for both 2D selectors; normal_ref switches the mode.

    Without normal_ref, solve gamma(t) = t for its smallest root above one
    grid step of the finer axis.  With it, seed level k+1 from the
    product-Gaussian closed form at the per-axis sample standard
    deviations.  ``binned2d`` is the histogram of the sample.
    Raises ValueError on fewer than 50 points or an axis of zero range.
    """
    p, grid = binned2d.sample, binned2d.grid
    N = p.shape[0]
    if N < 50:
        raise ValueError("need at least 50 points")
    if np.any(p.min(axis=0) == p.max(axis=0)):
        raise ValueError("degenerate sample: zero range")
    if normal_ref:
        s1 = float(np.std(p[:, 0])) / grid.x1.range
        s2 = float(np.std(p[:, 1])) / grid.x2.range
        seed = {(i, k + 1 - i): (-1.0) ** (k + 1)
                * gaussian_reference_norm(i, s1) * gaussian_reference_norm(k + 1 - i, s2)
                for i in range(k + 2)}
        t_star, psis = _gamma_levels(None, k, binned2d, N, seed_level=seed)
        evaluations, method = 0, "normal_ref_2d"
    else:
        t_star, evaluations, binned2d = _grid_fixed_point(
            lambda t, b: gamma_2d(t, k, b, N)[0], binned2d)
        _, psis = gamma_2d(t_star, k, binned2d, N)
        method = "isj2d"
    t1u, t2u = _diag_entries(psis, N)
    report = BandwidthReport(
        t_star=t_star, t2_star=t_star, iterations=evaluations,
        functional_norms={f"psi_{i}{j}": v for (i, j), v in psis.items()},
        converged=True, method=method)
    return t_star, t1u * grid.x1.range ** 2, t2u * grid.x2.range ** 2, report


def isj2d_select(points, n: int = 2 ** 8):
    """2D fixed-point bandwidth selection.

    Solves gamma(t) = t (the recursion started at level 4) for its smallest
    root above one grid step of the finer axis on the unit-square bracket
    [0, 0.1] with the same routine as the 1D selector, from 2D cosine
    moments of the sample binned on ``make_grid_2d(points, n)``, computed
    once (or of a :func:`bin_linear_2d` result, on its own grid; ``n`` is
    then unused), and refined as the 1D grid is when every
    root lies below one step.  Returns (t_star, t_x1, t_x2, report): the
    unit-square fixed point and the data-scale diagonal squared bandwidths.
    Raises ArithmeticError when the bracket holds no root above one grid
    step, ValueError when an axis has zero range.
    """
    return _select_2d(_histogram_2d(points, n), _K)


def normal_ref_2d_select(points):
    """Plug-in selection seeded at the top level by a normal reference.

    Level 5 functionals are taken from the product-Gaussian closed form
    psi_{i,j} = (-1)^{i+j} ||f1^(i)||^2 ||f2^(j)||^2 at the per-axis
    sample standard deviations; the rest of the recursion is data driven,
    on ``make_grid_2d(points)`` or a :func:`bin_linear_2d` result's own
    grid.
    """
    return _select_2d(_histogram_2d(points), _K, normal_ref=True)


def gauss_kde_2d(binned2d: BinnedHistogram, t) -> DensityEstimate2D:
    """Separable zero-flux heat smoothing of 2D node weights.

    ``binned2d`` is smoothed from its cosine moments; ``t`` is a common
    data-scale squared bandwidth or a (t_x1, t_x2) pair, each axis smoothed
    at t / range^2, and must be finite.
    """
    t1, t2 = (t, t) if np.isscalar(t) else t
    _check_time(t1, positive=True)
    _check_time(t2, positive=True)
    g = binned2d.grid
    vals = binned2d.smooth((t1 / g.x1.range ** 2, t2 / g.x2.range ** 2))
    vals = vals / (g.x1.range * g.x2.range)
    vals[np.abs(vals) < 1e-15] = 0.0
    return DensityEstimate2D(g, vals, (float(t1), float(t2)))


def _masked_operator(mask: DomainMask):
    """Sparse symmetric per-axis (S1, S2) with W du/dt = (t1 S1 + t2 S2) u
    evolved to time 1: conservative 5-point fluxes across inside-inside
    edges only (zero flux elsewhere)."""
    from scipy import sparse
    g = mask.grid
    n1, n2 = g.shape
    m = mask.inside
    w1 = trapezoid_weights(g.x1)
    w2 = trapezoid_weights(g.x2)
    ids = -np.ones(g.shape, dtype=np.int64)
    nin = int(m.sum())
    ids[m] = np.arange(nin)

    def axis_operator(a, b, conduct):
        return sparse.coo_matrix(
            (np.concatenate([conduct, conduct, -conduct, -conduct]),
             (np.concatenate([a, b, a, b]), np.concatenate([b, a, a, b]))),
            shape=(nin, nin)).tocsr()

    pair = m[:-1, :] & m[1:, :]
    S1 = axis_operator(ids[:-1, :][pair], ids[1:, :][pair],
                       0.5 * np.broadcast_to(w2, (n1 - 1, n2))[pair] / g.x1.step)
    pair = m[:, :-1] & m[:, 1:]
    S2 = axis_operator(ids[:, :-1][pair], ids[:, 1:][pair],
                       0.5 * np.broadcast_to(w1[:, None], (n1, n2 - 1))[pair] / g.x2.step)
    return (S1, S2), np.outer(w1, w2)[m]


def solve_heat_masked(binned2d: BinnedHistogram, mask: DomainMask, t) -> DensityEstimate2D:
    """Heat flow to time t inside the mask with zero flux at its boundary.

    ``t`` is a common data-scale squared bandwidth or a (t_x1, t_x2) pair,
    as in :func:`gauss_kde_2d`: each axis's edge conductances are scaled
    by its time and the flow runs to time 1: y = W^1/2 u goes to exp(A) y,
    A = W^-1/2 (t1 S1 + t2 S2) W^-1/2, as the Chebyshev series in (A + bI)/b,
    b the Gershgorin half-bound, coefficients 2 ive(k, b) halved at k = 0
    (Tal-Ezer & Kosloff 1984), cut at the first k > sqrt(b) with ive(k, b)
    < 1e-13.  Mass inside the mask is conserved; outside values are 0.
    ``solver_stats`` holds the degree k (matvec count), the bound 2b, the
    mass error and the minimum before negative round-off is clipped.
    """
    g = binned2d.grid
    if mask.grid != g:
        raise ValueError("mask grid differs from data grid")
    if binned2d.weights[~mask.inside].sum() > 1e-12:
        raise ValueError("data mass outside the mask")
    t1, t2 = (t, t) if np.isscalar(t) else t
    _check_time(t1)
    _check_time(t2)
    from scipy import sparse
    from scipy.special import ive
    (S1, S2), w = _masked_operator(mask)
    r = np.sqrt(w)
    v = y = binned2d.weights[mask.inside] / r
    A = sparse.diags(1.0 / r) @ (t1 * S1 + t2 * S2) @ sparse.diags(1.0 / r)
    b = 0.5 * float(abs(A).sum(axis=1).max())
    stats = {"method": "chebyshev", "degree": 0, "bound": 2.0 * b, "mass_error": 0.0}
    if b > 0:
        k = np.arange(int(8.0 * np.sqrt(b)) + 40)  # reaches the cut for every b
        c = ive(k, b)
        c = c[:np.flatnonzero((k > np.sqrt(b)) & (c < 1e-13))[0] + 1]
        M = ((2.0 / b) * A + 2.0 * sparse.identity(y.size)).tocsr()  # 2 (A + bI)/b
        v, y_prev, y_k = c[0] * y, y, 0.5 * (M @ y)  # y_k = T_k((A + bI)/b) y
        for ck in c[1:-1]:
            v += 2.0 * ck * y_k
            y_prev, y_k = y_k, M @ y_k - y_prev
        v += 2.0 * c[-1] * y_k
        stats.update(degree=c.size - 1, mass_error=float(abs(r @ v - r @ y)))
    u = v / r
    stats["min_before_clip"] = float(u.min())
    vals = np.zeros(g.shape)
    vals[mask.inside] = np.clip(u, 0.0, None)
    return DensityEstimate2D(g, vals, (float(t1), float(t2)), stats)


def __getattr__(name):
    # kde2d.splu names scipy's sparse LU for the benchmark's trace without
    # importing it with the module; no solver here factorizes
    if name == "splu":
        from scipy.sparse.linalg import splu
        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
