"""Uniform grids, linear binning, cosine transforms, quadrature and the
binned histogram that holds its cosine moments.

Everything downstream (spectral smoothing, plug-in bandwidth selection,
PDE solvers) operates on the uniform node lattices defined here, in one
and two dimensions.  Grids carry ``n`` equally spaced nodes including both
endpoints, so the node step is ``(hi - lo) / (n - 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_BLOCK = 2 ** 15  # points per bin_linear block: its two buffers stay in cache


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
    def shape(self):
        return (self.n,)

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
class DensityEstimate1D:
    """Density values on a grid together with the squared bandwidth used."""

    grid: Grid1D
    values: np.ndarray
    t: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError("values length must equal grid.n")
        if not v.min() >= -1e-12:  # NaN fails this too
            raise ValueError(f"density is NaN or dips below -1e-12 (min {v.min():.3e})")
        object.__setattr__(self, "values", np.clip(v, 0.0, None))


def _as_sample(sample, finite: bool = True) -> np.ndarray:
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if finite and not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    return x


def _check_time(t, name: str = "t", positive: bool = False) -> None:
    """Refuse, naming it, a time that is NaN, infinite, negative, or 0 when ``positive``."""
    if not (math.isfinite(t) and (t > 0 if positive else t >= 0)):
        raise ValueError(f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {t}")


def make_grid(sample, n: int = 2 ** 14, pad_fraction: float = 0.1) -> Grid1D:
    """Build a grid covering the sample, padded by ``pad_fraction`` of its range.

    This is the one padding rule: the selectors, the estimators, the CLI
    and the 2D grids (one call per axis) all bin on it.  A degenerate
    sample (all points equal) is expanded by 1.0 in data units on each side
    so the grid is always nonempty; the selectors refuse such a sample.
    """
    if pad_fraction < 0:
        raise ValueError("pad_fraction must be >= 0")
    x = _as_sample(sample, finite=False)
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN propagates to both
        raise ValueError("sample contains non-finite values")
    rng = hi - lo
    if rng == 0.0:
        return Grid1D(lo - 1.0, hi + 1.0, n)
    return Grid1D(lo - pad_fraction * rng, hi + pad_fraction * rng, n)


def _cells(x: np.ndarray, grid: Grid1D, pos=None, idx=None):
    """Left node index and fraction towards the right node of each point,
    written into the buffers ``idx`` and ``pos`` when they are given.

    Raises ValueError for a point outside the grid or a NaN.
    """
    if not (grid.lo <= x.min() and x.max() <= grid.hi):  # NaN fails this too
        raise ValueError("sample point outside grid")
    pos = np.subtract(x, grid.lo, out=pos)
    pos /= grid.step
    idx = np.empty(x.size, dtype=np.int64) if idx is None else idx
    idx[...] = pos  # truncation: every position is >= 0
    np.minimum(idx, grid.n - 2, out=idx)
    pos -= idx
    return idx, pos


def bin_linear(sample, grid: Grid1D) -> BinnedHistogram:
    """Distribute each point's 1/N mass between its two bracketing nodes.

    The sample is read once, in blocks of ``_BLOCK`` points placed by
    :func:`_cells` into two reused buffers, each block checked against the
    grid while it sits in cache.  np.add.at sums the fractions in the order
    of one weighted bincount of the whole sample, so the weights do not
    depend on the block size, and counts the points exactly; each block
    costs O(block), whatever the number of nodes.
    """
    x = _as_sample(sample, finite=False)
    right, counts = np.zeros(grid.n), np.zeros(grid.n, dtype=np.int64)
    buf = np.empty(min(x.size, _BLOCK))
    ibuf = np.empty(buf.size, dtype=np.int64)
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        try:
            idx, frac = _cells(block, grid, buf[:block.size], ibuf[:block.size])
        except ValueError:
            _as_sample(x)  # a non-finite value anywhere is reported first
            raise
        np.add.at(right, idx, frac)
        np.add.at(counts, idx, 1)
    w = counts - right  # node idx gets 1 - frac, node idx + 1 gets frac
    w[1:] += right[:-1]
    return _binned(grid, w / x.size, x)


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
# smoothing a node-supported measure with the Neumann heat kernel.  The DCT is
# the real part of numpy's FFT of the even extension of the values, which
# equals scipy.fft.dct(type=1) bit for bit and keeps scipy out of the plug-in
# paths.
# ---------------------------------------------------------------------------

def _dct1(v: np.ndarray, axis: int) -> np.ndarray:
    """Type-I DCT along ``axis``: the FFT of [v_0, ..., v_{n-1}, v_{n-2},
    ..., v_1], whose imaginary part cancels."""
    tail = [slice(None)] * v.ndim
    tail[axis] = slice(-2, 0, -1)
    return np.fft.rfft(np.concatenate([v, v[tuple(tail)]], axis=axis), axis=axis).real


def cosine_moments(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """c_k = sum_j v_j cos(pi k j/(n-1)) along ``axis``, k = 0..n-1."""
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    d = _dct1(v, axis)
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
    d = _dct1(b, axis)
    last = np.take(b, [-1], axis=axis)
    sign = np.ones(n)
    sign[1::2] = -1.0
    shape = [1] * b.ndim
    shape[axis] = n
    return d + sign.reshape(shape) * last


@dataclass(frozen=True)
class BinnedHistogram:
    """Node weights of a linearly binned sample on a 1D or 2D grid, summing
    to one, and their cosine moments.

    :func:`bin_linear` and :func:`~diffkde.kde2d.bin_linear_2d` attach the
    sample they binned as ``sample``, which the selectors read; a histogram
    made from its grid and weights alone has none.  The moments are taken
    on first use of ``moments`` and then read by every selector functional
    and smoother of the histogram.  The axis weights w_k (pi k)^{2j}
    (w_0 = 1, else 2) are cached per axis and order; in 1D they carry c_k^2
    too, so a functional is one exp and one dot (in 2D two exps and a
    bilinear form).
    """

    grid: Grid1D  # or kde2d.Grid2D
    weights: np.ndarray
    sample: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != self.grid.shape:
            raise ValueError("weights shape must match grid")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_weighted", {})

    @cached_property
    def moments(self) -> np.ndarray:
        c = self.weights
        for axis in range(c.ndim):
            c = cosine_moments(c, axis=axis)
        return c

    @cached_property
    def c2(self) -> np.ndarray:
        return self.moments * self.moments

    @cached_property
    def k2(self) -> list:
        return [(np.pi * np.arange(n)) ** 2 for n in self.weights.shape]

    def _weights(self, axis: int, j: int) -> np.ndarray:
        p = self._weighted.get((axis, j))
        if p is None:
            k2 = self.k2[axis]
            p = np.where(k2 == 0.0, 1.0, 2.0) * k2 ** j
            if self.c2.ndim == 1:
                p *= self.c2
            self._weighted[(axis, j)] = p
        return p

    def norm(self, j: int, t: float) -> float:
        """2 sum_{k>=1} c_k^2 (pi k)^{2j} exp(-(pi k)^2 t) of a 1D histogram;
        mode 0 carries no power at j >= 1 and is left out of the sum, and
        the sum stops at mode :func:`_last_mode`, past which every term is
        below e^-40."""
        end = _last_mode(j, t, self.weights.size) + 1
        e = self.k2[0][1:end] * -t
        return float(self._weights(0, j)[1:end] @ np.exp(e, out=e))

    def psi(self, i: int, j: int, t: float) -> float:
        """The signed mixed functional of a 2D histogram (kde2d.psi_hat)."""
        a = self._weights(0, i) * np.exp(-self.k2[0] * t)
        b = self._weights(1, j) * np.exp(-self.k2[1] * t)
        return float((-1.0) ** (i + j) * (a @ self.c2 @ b))

    def refined(self) -> "BinnedHistogram":
        """The same sample binned on the same interval with twice the nodes
        along each axis."""
        g = self.grid
        if isinstance(g, Grid1D):
            return bin_linear(self.sample, Grid1D(g.lo, g.hi, 2 * g.n))
        from . import kde2d  # kde2d builds on this module
        return kde2d.bin_linear_2d(
            self.sample, type(g)(*(Grid1D(a.lo, a.hi, 2 * a.n) for a in (g.x1, g.x2))))

    def smooth(self, unit_times) -> np.ndarray:
        """The node weights evolved by the zero-flux heat flow to time
        ``unit_times[axis]`` along each axis: mode k damped by
        exp(-(pi k)^2 t / 2), then the cosine synthesis."""
        c = self.moments
        for axis, t in enumerate(unit_times):
            shape = [1] * c.ndim
            shape[axis] = -1
            c = c * np.exp(-0.5 * self.k2[axis].reshape(shape) * t)
        for axis in range(c.ndim):
            c = cosine_synthesis(c, axis=axis)
        return c


def _binned(grid, weights, sample) -> BinnedHistogram:
    """The histogram of ``sample`` with these node weights, carrying it."""
    binned = BinnedHistogram(grid, weights)
    object.__setattr__(binned, "sample", sample)
    return binned


def _sampled(binned: BinnedHistogram) -> BinnedHistogram:
    """``binned`` itself, once it is known to carry its sample."""
    if binned.sample is None:
        raise ValueError("the histogram carries no sample: a selector reads the sample, "
                         "which bin_linear and bin_linear_2d attach")
    return binned


_LOG_CUT = 40.0  # norm terms past their peak and below e^-40 are dropped


def _last_mode(j: int, t: float, n: int) -> int:
    """The first mode K past the peak (pi k)^2 = j/t of (pi k)^{2j}
    exp(-(pi k)^2 t) where (pi k)^2 t - j ln (pi k)^2 > 40, capped at n - 1.

    With y = (pi k)^2 t the test reads y - j ln y > C = 40 - j ln t, whose
    left side grows past its minimum at the peak y = j.  Newton's method
    from y >= 2j meets that convex function's root from above after its
    first step, so K never drops a mode that the test keeps.
    """
    C = _LOG_CUT - j * math.log(t)
    y = float(j)  # every term past the peak is below the cut
    if C > j - j * math.log(j):
        y = max(C, 2.0 * j)
        for _ in range(4):
            y -= (y - j * math.log(y) - C) / (1.0 - j / y)
    k = math.sqrt(y / t) / math.pi
    return n - 1 if k >= n - 1 else int(k) + 1


def _histogram(sample, n: int = 2 ** 14) -> BinnedHistogram:
    """A 1D histogram that carries its sample, as it is, or the sample
    binned on ``make_grid(sample, n)``: what a 1D selector reads."""
    if isinstance(sample, BinnedHistogram):
        return _sampled(sample)
    x = _as_sample(sample, finite=False)  # make_grid refuses non-finite values
    return bin_linear(x, make_grid(x, n))
