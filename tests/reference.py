"""Reference forms that only the tests read: the two series of the interval
(theta) kernel, the small-t closed form of the diffusion kernel, the Feller
explosion test of a pilot, the Csiszar divergence, a mode counter, the
mean of a benchmark mixture, the fixed-point scan and 1D functional
norm without the grid-step floor and the underflow cut, the direct
sums the comparators were once computed by: the LSCV score over all
distinct pairs, Abramson's estimator and the sinc kernel on the whole line,
the node-aligned cosine transforms on scipy's type-I DCT, and the 1D
linear binning and fixed-point stage chain in whole-array numpy.

Named ``reference`` rather than ``oracles``: ``tests/`` and ``bench/`` are
both top-level module roots in one pytest run, and ``bench/workloads.py``
imports its own ``oracles`` module.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dct

from diffkde import DensityEstimate1D, gauss_kde_exact, integrate
from diffkde.bandwidth import _LADDER, _MAX_REFINE, _RTOL
from diffkde.comparators import _LADDER_REL, _LADDER_SIZE, LscvResult
from diffkde.diffusion import PilotModel
from diffkde.grids import _last_mode, trapezoid_weights
from diffkde.kde1d import SQRT_2PI, _phi

_LOG_TINY = 40.0  # exp(-40) < 5e-18, safely below every tolerance used here


def _unit_pairs(x, y):
    """x and y broadcast together, with a trailing axis for the series
    terms; both must lie in [0, 1]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any((x < 0) | (x > 1)) or np.any((y < 0) | (y > 1)):
        raise ValueError("x and y must lie in [0, 1]")
    shape = np.broadcast(x, y).shape
    return np.broadcast_to(x, shape)[..., None], np.broadcast_to(y, shape)[..., None]


def theta_kernel_images(x, y, t: float, K: int | None = None):
    """Interval kernel via reflected Gaussian images.

    kappa(x, y; t) = sum_k phi(x, 2k + y; t) + phi(x, 2k - y; t), truncated
    where the neglected tail is below 1e-14.  Preferred for small t.
    """
    xb, yb = _unit_pairs(x, y)
    if K is None:
        # images at |2k| - 2 or further; keep exp(-(2K-2)^2/(2t)) negligible
        K = max(5, int(np.ceil(1.0 + 0.5 * np.sqrt(2.0 * t * _LOG_TINY))))
    ks = np.arange(-K, K + 1)
    total = _phi(xb - (2 * ks + yb), t) + _phi(xb - (2 * ks - yb), t)
    out = total.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def theta_kernel_cosine(x, y, t: float, K: int | None = None):
    """Interval kernel via its cosine series; preferred for larger t."""
    xb, yb = _unit_pairs(x, y)
    if K is None:
        K = max(5, int(np.ceil(np.sqrt(2.0 * _LOG_TINY / t) / np.pi)))
    ks = np.arange(1, K + 1)
    damp = np.exp(-0.5 * (np.pi * ks) ** 2 * t)
    out = 1.0 + 2.0 * (damp * np.cos(np.pi * ks * xb) * np.cos(np.pi * ks * yb)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def mode_count(estimate: DensityEstimate1D) -> int:
    """Number of strict interior local maxima; plateaus count once."""
    v = estimate.values
    d = np.sign(np.diff(v))
    d = d[d != 0]
    if d.size == 0:
        return 0
    return int(np.sum((d[:-1] > 0) & (d[1:] < 0)))


def mixture_mean(mixture) -> float:
    """Mean of a testbed GaussianMixture (of exp(Z) under its exp transform)."""
    if mixture.exp_transform:
        return float(sum(w * np.exp(m + 0.5 * s * s) for w, m, s in mixture.components))
    return float(sum(w * m for w, m, _ in mixture.components))


def asymptotic_kernel(x, y, t: float, pilot: PilotModel):
    """Small-t closed form of the diffusion kernel.

    kappa~(x,y;t) = p(x) / ( sqrt(2 pi t) [p(x)a(x)a(y)p(y)]^{1/4} )
                    * exp( -s(x,y)^2 / (2t) ),
    s(x,y) = int_y^x sqrt(p/a), evaluated by cumulative trapezoid sums.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    nodes = pilot.grid.nodes
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any((x < pilot.grid.lo) | (x > pilot.grid.hi)) or np.any(
            (y < pilot.grid.lo) | (y > pilot.grid.hi)):
        raise ValueError("points outside pilot grid")
    integrand = np.sqrt(pilot.p / pilot.a)
    cum = np.concatenate(([0.0], np.cumsum(
        0.5 * (integrand[:-1] + integrand[1:]) * pilot.grid.step)))
    s = np.interp(x, nodes, cum) - np.interp(y, nodes, cum)
    px, ax = np.interp(x, nodes, pilot.p), np.interp(x, nodes, pilot.a)
    py, ay = np.interp(y, nodes, pilot.p), np.interp(y, nodes, pilot.a)
    out = px / (np.sqrt(2.0 * np.pi * t) * (px * ax * ay * py) ** 0.25) * np.exp(
        -0.5 * s * s / t)
    return float(out) if out.ndim == 0 else out


def feller_explosion_check(pilot: PilotModel) -> bool:
    """Decide whether the pilot diffusion explodes in finite time.

    The process explodes iff the iterated tail integral
    int int p(y)/a(x) dy dx converges on either side.  On the grid the
    partial integrals are examined toward each edge: geometric decay of
    the increments marks convergence; a ~= 1 is always nonexplosive.
    """
    if np.allclose(pilot.a, 1.0):
        return False
    w = trapezoid_weights(pilot.grid)
    mid = pilot.grid.n // 2
    for side in (slice(mid - 1, None, -1), slice(mid, None)):  # left, then right
        inner = np.cumsum((w * pilot.p)[side])
        partial = np.cumsum(w[side] * (1.0 / pilot.a)[side] * inner)
        # compare growth over the outer quarter vs the one before it
        q = partial.size // 4
        inc_last = partial[-1] - partial[-q]
        inc_prev = partial[-q] - partial[-2 * q]
        if inc_prev <= 0 or inc_last < 0.25 * inc_prev:
            return True
    return False


def csiszar_divergence(g: DensityEstimate1D, p, alpha_div: float) -> float:
    """f-divergence D(g -> p) with psi(x) = (x^a - x)/(a(a-1)).

    Limits a -> 1 and a -> 0 are the two Kullback-Leibler directions;
    a = 2 is half the Pearson chi-square distance.
    """
    pv = p.p if isinstance(p, PilotModel) else np.asarray(p, dtype=float)
    grid = g.grid
    gv = np.maximum(g.values, 1e-300)
    pv = np.maximum(pv, 1e-300)
    if alpha_div == 1.0:
        return float(integrate(gv * np.log(gv / pv), grid))
    if alpha_div == 0.0:
        return float(integrate(pv * np.log(pv / gv), grid))
    a = alpha_div
    val = integrate(pv ** (1.0 - a) * gv ** a, grid)
    return float((val - 1.0) / (a * (a - 1.0)))


def _alternating(a: np.ndarray, axis: int) -> np.ndarray:
    """(-1)^k along ``axis`` of ``a``, shaped to broadcast against it."""
    n = a.shape[axis]
    sign = np.ones(n)
    sign[1::2] = -1.0
    shape = [1] * a.ndim
    shape[axis] = n
    return sign.reshape(shape)


def dct_cosine_moments(values, axis: int = -1) -> np.ndarray:
    """``grids.cosine_moments`` on scipy.fft.dct(type=1)."""
    v = np.asarray(values, dtype=float)
    d = dct(v, type=1, axis=axis)
    return 0.5 * (d + np.take(v, [0], axis=axis) + _alternating(v, axis) * np.take(v, [-1], axis=axis))


def dct_cosine_synthesis(coeffs, axis: int = -1) -> np.ndarray:
    """``grids.cosine_synthesis`` on scipy.fft.dct(type=1)."""
    b = np.asarray(coeffs, dtype=float)
    return dct(b, type=1, axis=axis) + _alternating(b, axis) * np.take(b, [-1], axis=axis)


def full_norm(binned, j: int, t: float) -> float:
    """2 sum_{k>=1} c_k^2 (pi k)^{2j} exp(-(pi k)^2 t) over every mode of a
    1D histogram: ``BinnedHistogram.norm`` without its cut."""
    return float(binned._weights(0, j)[1:] @ np.exp(-binned.k2[0][1:] * t))


def bincount_bin_linear(sample, grid) -> np.ndarray:
    """``grids.bin_linear``'s node weights from one pass over the whole
    sample: its positions and indices in two sample-sized arrays, then one
    weighted and one plain ``np.bincount``."""
    x = np.asarray(sample, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    if x.min() < grid.lo or x.max() > grid.hi:
        raise ValueError("sample point outside grid")
    pos = x - grid.lo
    pos /= grid.step
    idx = np.minimum(pos.astype(np.int64), grid.n - 2)
    pos -= idx
    right = np.bincount(idx, pos, grid.n)
    w = np.bincount(idx, minlength=grid.n) - right
    w[1:] += right[:-1]
    return w / x.size


def numpy_stage_t(j: int, norm_next: float, N: int) -> float:
    """``bandwidth.stage_t`` with its constant built in numpy on each call."""
    num = (1.0 + 2.0 ** (-j - 0.5)) / 3.0 * float(np.prod(np.arange(1, 2 * j, 2, dtype=float)))
    return (num / (N * np.sqrt(np.pi / 2.0) * norm_next)) ** (2.0 / (3 + 2 * j))


def numpy_gamma_chain(t: float, l: int, binned, N: int):
    """``bandwidth.gamma_chain`` on :func:`numpy_stage_t`, each norm's
    exponential taken on a fresh array, as -(pi k)^2 t."""
    times, norms = {}, {}
    for j in range(l, 0, -1):
        end = _last_mode(j + 1, t, binned.weights.size) + 1
        norms[j + 1] = float(binned._weights(0, j + 1)[1:end] @ np.exp(-binned.k2[0][1:end] * t))
        t = times[j] = numpy_stage_t(j, norms[j + 1], N)
    return t, times, norms


def unfloored_fixed_point(f):
    """Smallest root of t - f(t) on the whole ladder, from its first point
    1e-12 up, with no floor: the first sign change, refined by Illinois
    regula falsi.  Returns the root and the number of evaluations of f."""
    calls = 0

    def h(t):
        nonlocal calls
        calls += 1
        v = t - f(t)
        if not np.isfinite(v):
            raise ArithmeticError("non-finite fixed-point residual")
        return v

    a = fa = None
    for b in _LADDER:
        fb = h(b)
        if fb == 0.0:
            return float(b), calls
        if fa is not None and (fa < 0.0) != (fb < 0.0):
            break
        a, fa = b, fb
    else:
        raise ArithmeticError("no sign change on the ladder")
    c, side = b, 0
    for _ in range(_MAX_REFINE):
        if b - a <= _RTOL * b:
            return float(c), calls
        c = b - fb * (b - a) / (fb - fa)
        fc = h(c)
        if fc == 0.0:
            return float(c), calls
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
    raise ArithmeticError("refinement stalled")


def unfloored_uncut(monkeypatch):
    """Put the reference scan and norm in the selectors' place, so that
    ``isj_select`` and ``isj2d_select`` compute the cut-free, floor-free
    results they are checked against."""
    from diffkde import bandwidth, grids
    monkeypatch.setattr(grids.BinnedHistogram, "norm", full_norm)
    monkeypatch.setattr(bandwidth, "_smallest_fixed_point",
                        lambda f, floor: unfloored_fixed_point(f))


def pairwise_sq(x: np.ndarray) -> np.ndarray:
    """Squared differences over the N(N-1)/2 distinct pairs."""
    i, j = np.triu_indices(x.size, 1)
    return (x[i] - x[j]) ** 2


def lscv_score_pairs(d2: np.ndarray, N: int, t: float) -> float:
    """LSCV(t) of the whole-line Gaussian KDE from the distinct-pair squared
    differences d2: ||f_hat||^2 = N^-2 sum_{i,j} phi(d; 2t), the
    leave-one-out cross term uses phi(d; t), and exp(-d^2/2t) =
    exp(-d^2/4t)^2 needs no second exp."""
    e = np.exp(-0.25 * d2 / t)
    term1 = (N + 2.0 * e.sum()) / (N * N * np.sqrt(4.0 * np.pi * t))
    term2 = 4.0 * (e * e).sum() / (N * (N - 1) * np.sqrt(2.0 * np.pi * t))
    return term1 - term2


def direct_lscv_select(sample, pairs=pairwise_sq, score=lscv_score_pairs) -> LscvResult:
    """``lscv_select`` on the direct sum ``score(pairs(x), N, t)``: the same
    ladder, the same two fallbacks to its midpoint and the same bounded
    refinement between the neighbours of the best ladder point."""
    from scipy.optimize import minimize_scalar
    x = np.asarray(sample, dtype=float)
    N = x.size
    d2 = pairs(x)
    ts = np.ptp(x) ** 2 * np.logspace(np.log10(_LADDER_REL[0]), np.log10(_LADDER_REL[1]),
                                      _LADDER_SIZE)
    scores = np.array([score(d2, N, t) for t in ts])
    best = int(np.argmin(scores))
    curve = list(zip(ts.tolist(), scores.tolist()))
    if (np.ptp(scores) < 1e-12 * max(1.0, abs(scores).max())
            or best in (0, _LADDER_SIZE - 1)):
        return LscvResult(float(ts[_LADDER_SIZE // 2]), curve, degenerate=True)
    res = minimize_scalar(lambda lt: score(d2, N, np.exp(lt)),
                          bounds=(np.log(ts[best - 1]), np.log(ts[best + 1])),
                          method="bounded")
    return LscvResult(float(np.exp(res.x)), curve)


def direct_abramson(sample, xs, t: float) -> np.ndarray:
    """Abramson's estimator as a direct sum of whole-line Gaussian kernels at
    the points xs, its pilot the direct-sum KDE at the data."""
    x = np.asarray(sample, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    pilot = gauss_kde_exact(x, x, t)
    h = np.sqrt(t * np.exp(np.mean(np.log(pilot))) / pilot)  # per-point bandwidths
    z = (xs[:, None] - x[None, :]) / h[None, :]
    return (np.exp(-0.5 * z * z) / (SQRT_2PI * h[None, :])).mean(axis=1)


def direct_sinc(sample, xs, t: float) -> np.ndarray:
    """The sinc-kernel estimate sum_i sin(u_i)/(pi u_i) / (N h), u_i =
    (x - X_i)/h, as a direct sum on the whole line."""
    x = np.asarray(sample, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    h = np.sqrt(t)
    u = (xs[:, None] - x[None, :]) / h
    return (np.sinc(u / np.pi) / np.pi).mean(axis=1) / h
