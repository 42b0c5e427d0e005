"""Reference estimators used in the benchmark comparisons, each but the
last evaluated as a cosine series:

- least-squares cross-validation scores every bandwidth from the cosine
  moments of the binned sample on a 2^14-node grid padded by 10% (the
  spectral form Silverman, Appl. Stat. 31 (1982), used), so a call costs
  a few hundred modes per bandwidth rather than a sum over all pairs;
- Abramson's variable-bandwidth (square-root law) estimator places a
  Gaussian kernel reflected at the ends of the evaluation grid on each
  point, summed as one cosine series of that grid, so its mass on the grid
  is one;
- the sinc kernel's estimate is the cosine series of the sample's own
  range [min x, max x] truncated at frequency 1/h (the orthogonal-series
  estimator of Kronmal and Tarter, JASA 63 (1968)); it is zero outside
  that range, its mass is one there, and it may take negative values;
- the Hall-Park boundary-corrected estimator stays a direct kernel sum.

The first three scale to N = 10^5 in tens of megabytes: their work is
O(N K) in blocks, K the number of modes kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import _as_sample, _check_time, _histogram, bin_linear, cosine_synthesis
from .kde1d import SQRT_2PI, _normal_cdf, _normal_pdf, gauss_kde_exact, gauss_kde_spectral

_LADDER_SIZE = 61
_LADDER_REL = (1e-4, 1.0)  # bounds as fractions of squared data range
_LSCV_LOG_TOL = 1e-6  # LSCV's refinement stops at this bracket width in log t
_LOG_CUT = 40.0  # modes whose kernel damping is below e^-40 are dropped
_BLOCK = 2 ** 18  # entries of one (points x modes) block of a series sum
_F0_FLOOR = 1e-10  # Hall-Park: no location shift where the plain KDE is below this


@dataclass
class LscvResult:
    t: float
    score_curve: list = field(default_factory=list)
    degenerate: bool = False


def _mode_count(unit_t: float, n: int) -> int:
    """Modes k = 0..K-1 of a Gaussian kernel at unit time ``unit_t``: every
    mode with exp(-(pi k)^2 unit_t / 2) >= e^-40, at most n."""
    return min(n, int(math.sqrt(2.0 * _LOG_CUT / unit_t) / math.pi) + 2)


def _cosine_sum(u, K: int, s=None) -> np.ndarray:
    """sum_i cos(pi k u_i) for k = 0..K-1 or, given unit times s,
    sum_i cos(pi k u_i) exp(-(pi k)^2 s_i / 2) with the modes of each point
    cut where that factor falls below e^-40.

    The points go in blocks of at most _BLOCK (point, mode) entries, taken
    in order of s so that a block of wide kernels stops at the few modes it
    needs.
    """
    out = np.zeros(K)
    if s is not None:
        order = np.argsort(s)
        u, s = u[order], s[order]
    i = 0
    while i < u.size:
        end = K if s is None else _mode_count(float(s[i]), K)  # s[i] is the block's least
        rows = slice(i, i + max(1, _BLOCK // end))
        k = np.pi * np.arange(end)
        block = np.cos(np.multiply.outer(u[rows], k))
        if s is not None:
            block *= np.exp(-0.5 * np.multiply.outer(s[rows], k * k))
        out[:end] += block.sum(axis=0)
        i = rows.stop
    return out


def _cosine_series(u, coef) -> np.ndarray:
    """sum_k coef_k cos(pi k u) at each point u, in blocks of at most
    _BLOCK (point, mode) entries."""
    out = np.empty(u.size)
    k = np.pi * np.arange(coef.size)
    step = max(1, _BLOCK // coef.size)
    for i in range(0, u.size, step):
        out[i:i + step] = np.cos(np.multiply.outer(u[i:i + step], k)) @ coef
    return out


def _lscv_score(binned, N: int, t, K: int):
    """LSCV(t) = int f_hat^2 - 2 mean_{i != j} kappa(X_i, X_j; t) of the
    reflection-kernel estimate on the histogram's grid, for an array t.

    With s = t / R^2, e_k = exp(-(pi k)^2 s / 2), w_0 = 1, w_k = 2 and c_k
    the normalized cosine moments: int f_hat^2 = sum w c^2 e^2 / R, the
    all-pairs kernel sum is N^2 sum w c^2 e / R, and the diagonal is
    N sum w e (1 + c_2k) / 2 / R, as cos^2 = (1 + cos 2x) / 2.  Modes past
    K are below e^-40 of mode 0 at every t on the ladder.
    """
    R = binned.grid.range
    c = binned.moments
    k2 = binned.k2[0][:K]
    w = np.full(K, 2.0)
    w[0] = 1.0
    wc2 = w * c[:K] ** 2
    wdiag = 0.5 * w * (1.0 + c[:2 * K:2])
    e = np.exp(-0.5 * np.multiply.outer(np.asarray(t, dtype=float) / R ** 2, k2))
    pairs = (N * N * (e @ wc2) - N * (e @ wdiag)) / (N * (N - 1.0))
    return ((e * e) @ wc2 - 2.0 * pairs) / R


def lscv_select(sample) -> LscvResult:
    """Least-squares cross-validation on a log ladder with local refinement.

    The score is that of the reflection-kernel estimate on the sample's
    2^14-node grid padded by 10%, or on a :func:`~diffkde.grids.bin_linear`
    result's own grid, computed from the cosine moments of the binned
    sample (:func:`_lscv_score`).  The minimum is refined from the same
    score, 9 points a round between the best point's neighbours in log t.
    """
    binned = _histogram(sample)
    x, n = binned.sample, binned.grid.n
    N = x.size
    if N < 10:
        raise ValueError("need at least 10 points")
    rng2 = (float(x.max()) - float(x.min())) ** 2
    if rng2 == 0.0:
        raise ValueError("degenerate sample: zero range")
    ts = rng2 * np.logspace(np.log10(_LADDER_REL[0]), np.log10(_LADDER_REL[1]),
                            _LADDER_SIZE)
    # c_2k is read up to 2(K - 1), which stays within the grid's n modes
    K = min(_mode_count(ts[0] / binned.grid.range ** 2, n), (n + 1) // 2)
    scores = _lscv_score(binned, N, ts, K)
    best = int(np.argmin(scores))
    curve = list(zip(ts.tolist(), scores.tolist()))
    if np.ptp(scores) < 1e-12 * max(1.0, abs(scores).max()):
        warnings.warn("LSCV score curve is flat; returning ladder midpoint")
        return LscvResult(float(ts[_LADDER_SIZE // 2]), curve, degenerate=True)
    if best in (0, _LADDER_SIZE - 1):
        # score still decreasing at the ladder boundary; at the lower end this
        # is the classic small-t degeneracy (e.g. duplicate-heavy samples)
        warnings.warn("LSCV minimum at ladder edge; selection unreliable, "
                      "returning ladder midpoint")
        return LscvResult(float(ts[_LADDER_SIZE // 2]), curve, degenerate=True)
    lo, hi = math.log(ts[best - 1]), math.log(ts[best + 1])
    while hi - lo > _LSCV_LOG_TOL:
        lt = np.linspace(lo, hi, 9)
        i = int(np.argmin(_lscv_score(binned, N, np.exp(lt), K)))
        lo, hi = lt[max(i - 1, 0)], lt[min(i + 1, lt.size - 1)]
    return LscvResult(math.exp(0.5 * (lo + hi)), curve)


def abramson_estimate(sample, grid, t: float) -> np.ndarray:
    """Variable-bandwidth estimator with the square-root law, on the nodes
    of ``grid``, which must hold the sample.

    Per-point scales lambda_i^2 = G / f_hat(X_i; t), G the geometric mean
    of the pilot values; the pilot is the heat-flow estimate at the same
    squared bandwidth t on ``grid``, interpolated at the data.  Point i
    carries a Gaussian kernel of variance t lambda_i^2 reflected at both
    ends of the grid, so with u_i the unit positions and s_i the unit
    times, the estimate is the cosine series of
    c_k = mean_i cos(pi k u_i) exp(-(pi k)^2 s_i / 2), each point's terms
    cut where that damping falls below e^-40.
    """
    _check_time(t, positive=True)
    x = _as_sample(sample)
    pilot = np.interp(x, grid.nodes, gauss_kde_spectral(bin_linear(x, grid), t).values)
    if pilot.min() <= 0:
        raise ValueError("pilot vanishes at a data point")
    G = float(np.exp(np.mean(np.log(pilot))))
    s = (t / grid.range ** 2) * (G / pilot)  # per-point unit times
    vals = cosine_synthesis(_cosine_sum(grid.to_unit(x), grid.n, s) / x.size) / grid.range
    return np.clip(vals, 0.0, None)  # round-off negatives of a positive sum


def sinc_kde(sample, grid, t: float) -> np.ndarray:
    """Sinc-kernel estimate on the nodes of ``grid``: the cosine series of
    the sample's range [a, b] = [min x, max x] kept up to frequency
    pi k / (b - a) <= 1 / sqrt(t), the frequency at which the sinc kernel
    K(x) = sin(x)/(pi x) cuts off the empirical characteristic function.

    f(y) = (1 + 2 sum_{k=1}^{K} a_k cos(pi k (y - a)/(b - a))) / (b - a) on
    [a, b] and 0 outside, a_k = mean_i cos(pi k (X_i - a)/(b - a)), so its
    integral over [a, b] is exactly 1.  Values may be negative; that is
    inherent to the kernel.
    """
    _check_time(t, positive=True)
    x = _as_sample(sample)
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        raise ValueError("degenerate sample: zero range")
    K = int((hi - lo) / (np.pi * np.sqrt(t))) + 1  # modes 0..K-1
    coef = 2.0 * _cosine_sum((x - lo) / (hi - lo), K) / x.size
    coef[0] = 1.0  # mode 0 carries weight 1, the others 2
    nodes = grid.nodes
    inside = (nodes >= lo) & (nodes <= hi)
    vals = np.zeros(grid.n)
    vals[inside] = _cosine_series((nodes[inside] - lo) / (hi - lo), coef) / (hi - lo)
    return vals


def hall_park_estimate(sample, xs, t: float, beta: float) -> np.ndarray:
    """Boundary-corrected estimator for data truncated from above at beta.

    f_hat(x) = sum phi((x - X_i + a(x))/h) / (N h Phi((beta - x)/h)),
    a(x) = t (f0'/f0)(x) rho((beta - x)/h), rho(u) = -phi(u)/Phi(u),
    h = sqrt(t).  rho -> 0 away from the boundary, so the estimator
    reduces to the mass-renormalized plain KDE in the interior.
    """
    _check_time(t, positive=True)
    x = _as_sample(sample)
    if x.max() > beta:
        raise ValueError("data above the truncation point")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.max() > beta:
        raise ValueError("evaluation points above the truncation point")
    h = np.sqrt(t)
    u = (beta - xs) / h
    f0 = gauss_kde_exact(x, xs, t)
    z = (xs[:, None] - x[None, :]) / h
    df0 = (-z * np.exp(-0.5 * z * z)).mean(axis=1) / (SQRT_2PI * t)
    rho = -_normal_pdf(u) / _normal_cdf(u)
    # log-derivative of the shiftless (mass-renormalized) estimator
    # f0 / Phi(u): the raw-KDE term plus the boundary renormalization term
    dlog = df0 / np.maximum(f0, _F0_FLOOR) + _normal_pdf(u) / (h * _normal_cdf(u))
    alpha = np.where(f0 > _F0_FLOOR, t * dlog * rho, 0.0)
    zz = (xs[:, None] - x[None, :] + alpha[:, None]) / h
    num = np.exp(-0.5 * zz * zz).sum(axis=1) / (SQRT_2PI * h)
    return num / (x.size * _normal_cdf(u))
