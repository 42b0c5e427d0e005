"""Uniform grids, linear binning, cosine transforms, heat smoothing and
quadrature.

Everything downstream (spectral smoothing, plug-in bandwidth selection,
PDE solvers) operates on the uniform node lattices defined here, in one
and two dimensions.  Grids carry ``n`` equally spaced nodes including both
endpoints, so the node step is ``(hi - lo) / (n - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D lattice of ``n`` nodes on [lo, hi], n a power of two."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 16 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def range(self) -> float:
        return self.hi - self.lo

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    def to_unit(self, x):
        """Map data coordinates onto [0, 1]."""
        return (np.asarray(x, dtype=float) - self.lo) / self.range


@dataclass(frozen=True)
class BinnedHistogram:
    """Node weights of a linearly binned sample; weights sum to one."""

    grid: Grid1D
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.n,):
            raise ValueError("weights length must equal grid.n")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class DensityEstimate1D:
    """Density values on a grid together with the squared bandwidth used."""

    grid: Grid1D
    values: np.ndarray
    t: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError("values length must equal grid.n")
        if v.min() < -1e-12:
            raise ValueError(f"density dips below -1e-12 (min {v.min():.3e})")
        object.__setattr__(self, "values", np.clip(v, 0.0, None))

    @property
    def integral(self) -> float:
        return integrate(self.values, self.grid)


def _as_sample(sample) -> np.ndarray:
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return x


def make_grid(sample, n: int = 2 ** 14, pad_fraction: float = 0.1) -> Grid1D:
    """Build a grid covering the sample, padded by ``pad_fraction`` of its range.

    This is the one padding rule: the selectors, the estimators, the CLI
    and the 2D grids (one call per axis) all bin on it.  A degenerate
    sample (all points equal) is expanded by 1.0 in data units on each side
    so the grid is always nonempty; the selectors refuse such a sample.
    """
    if pad_fraction < 0:
        raise ValueError("pad_fraction must be >= 0")
    x = _as_sample(sample)
    lo, hi = float(x.min()), float(x.max())
    rng = hi - lo
    if rng == 0.0:
        return Grid1D(lo - 1.0, hi + 1.0, n)
    return Grid1D(lo - pad_fraction * rng, hi + pad_fraction * rng, n)


def _cells(x: np.ndarray, grid: Grid1D):
    """Left node index and fraction towards the right node of each point.

    Raises ValueError for a point outside the grid.
    """
    if x.min() < grid.lo or x.max() > grid.hi:
        raise ValueError("sample point outside grid")
    pos = x - grid.lo
    pos /= grid.step
    idx = pos.astype(np.int64)
    np.minimum(idx, grid.n - 2, out=idx)
    pos -= idx
    return idx, pos


def bin_linear(sample, grid: Grid1D) -> BinnedHistogram:
    """Distribute each point's 1/N mass between its two bracketing nodes."""
    x = _as_sample(sample)
    idx, frac = _cells(x, grid)  # node idx gets 1 - frac, node idx + 1 gets frac
    right = np.bincount(idx, frac, grid.n)
    w = np.bincount(idx, minlength=grid.n) - right
    w[1:] += right[:-1]
    return BinnedHistogram(grid, w / x.size)


def integrate(values, grid: Grid1D) -> float:
    """Trapezoid quadrature of node values over the grid."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n,):
        raise ValueError("length mismatch with grid")
    return float(np.trapezoid(v, dx=grid.step))


def trapezoid_weights(grid: Grid1D) -> np.ndarray:
    w = np.full(grid.n, grid.step)
    w[0] = w[-1] = 0.5 * grid.step
    return w


# ---------------------------------------------------------------------------
# Node-aligned cosine sums.
#
# With nodes u_j = j/(n-1) on [0, 1], the moments c_k = sum_j v_j cos(pi k u_j)
# and the synthesis f_i = b_0 + 2 sum_{k>=1} b_k cos(pi k u_i) are both plain
# type-I DCTs up to endpoint bookkeeping.  These are the exact transforms for
# smoothing a node-supported measure with the Neumann heat kernel.
# ---------------------------------------------------------------------------

def cosine_moments(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """c_k = sum_j v_j cos(pi k j/(n-1)) along ``axis``, k = 0..n-1."""
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    d = dct(v, type=1, axis=axis)
    first = np.take(v, [0], axis=axis)
    last = np.take(v, [-1], axis=axis)
    sign = np.ones(n)
    sign[1::2] = -1.0
    shape = [1] * v.ndim
    shape[axis] = n
    return 0.5 * (d + first + sign.reshape(shape) * last)


def cosine_synthesis(coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
    """f_i = b_0 + 2 sum_{k>=1} b_k cos(pi k i/(n-1)) along ``axis``."""
    b = np.asarray(coeffs, dtype=float)
    n = b.shape[axis]
    d = dct(b, type=1, axis=axis)
    last = np.take(b, [-1], axis=axis)
    sign = np.ones(n)
    sign[1::2] = -1.0
    shape = [1] * b.ndim
    shape[axis] = n
    return d + sign.reshape(shape) * last


def _heat_smooth(weights: np.ndarray, unit_times) -> np.ndarray:
    """Evolve node weights on the unit interval or square by the zero-flux
    heat flow, to time ``unit_times[axis]`` along each axis.

    The one smoother behind both spectral estimators: cosine moments along
    every axis, damping of mode k by exp(-(pi k)^2 t / 2), synthesis.
    """
    c = weights
    for axis in range(c.ndim):
        c = cosine_moments(c, axis=axis)
    for axis, t in enumerate(unit_times):
        shape = [1] * c.ndim
        shape[axis] = -1
        k = np.arange(c.shape[axis]).reshape(shape)
        c = c * np.exp(-0.5 * (np.pi * k) ** 2 * t)
    for axis in range(c.ndim):
        c = cosine_synthesis(c, axis=axis)
    return c
