"""Reference estimators used in the benchmark comparisons: least-squares
cross-validation, Abramson's variable-bandwidth estimator, the sinc
(higher-order) kernel, and the Hall-Park boundary-corrected estimator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import _as_sample
from .kde1d import SQRT_2PI, _normal_cdf, _normal_pdf, gauss_kde_exact

_LADDER_SIZE = 61
_LADDER_REL = (1e-4, 1.0)  # bounds as fractions of squared data range
_F0_FLOOR = 1e-10  # Hall-Park: no location shift where the plain KDE is below this


@dataclass
class LscvResult:
    t: float
    score_curve: list = field(default_factory=list)
    degenerate: bool = False


def _pairwise_sq(x: np.ndarray) -> np.ndarray:
    """Squared differences over the N(N-1)/2 distinct pairs."""
    i, j = np.triu_indices(x.size, 1)
    return (x[i] - x[j]) ** 2


def _lscv_score(d2: np.ndarray, N: int, t: float) -> float:
    """LSCV(t) from the distinct-pair squared differences d2:
    ||f_hat||^2 = N^-2 sum_{i,j} phi(d; 2t), the leave-one-out cross term
    uses phi(d; t), and exp(-d^2/2t) = exp(-d^2/4t)^2 needs no second exp."""
    e = np.exp(-0.25 * d2 / t)
    term1 = (N + 2.0 * e.sum()) / (N * N * np.sqrt(4.0 * np.pi * t))
    term2 = 4.0 * (e * e).sum() / (N * (N - 1) * np.sqrt(2.0 * np.pi * t))
    return term1 - term2


def lscv_select(sample) -> LscvResult:
    """Least-squares cross-validation on a log ladder with local refinement."""
    from scipy.optimize import minimize_scalar  # deferred: slow to import
    x = _as_sample(sample)
    N = x.size
    if N < 10:
        raise ValueError("need at least 10 points")
    rng2 = (float(x.max()) - float(x.min())) ** 2
    if rng2 == 0.0:
        raise ValueError("degenerate sample: zero range")
    d2 = _pairwise_sq(x)
    ts = rng2 * np.logspace(np.log10(_LADDER_REL[0]), np.log10(_LADDER_REL[1]),
                            _LADDER_SIZE)
    scores = np.array([_lscv_score(d2, N, t) for t in ts])
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
    lo = ts[best - 1]
    hi = ts[best + 1]
    res = minimize_scalar(lambda lt: _lscv_score(d2, N, np.exp(lt)),
                          bounds=(np.log(lo), np.log(hi)), method="bounded")
    return LscvResult(float(np.exp(res.x)), curve)


def abramson_estimate(sample, xs, t: float) -> np.ndarray:
    """Variable-bandwidth estimator with the square-root law.

    Per-point scales lambda_i^2 = G / f_hat(X_i; t), G the geometric mean
    of the pilot values: the pilot is the fixed-bandwidth estimate at the
    same squared bandwidth t.
    """
    x = _as_sample(sample)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    pilot = gauss_kde_exact(x, x, t)
    if pilot.min() <= 0:
        raise ValueError("pilot vanishes at a data point")
    G = float(np.exp(np.mean(np.log(pilot))))
    lam = np.sqrt(G / pilot)
    h = np.sqrt(t) * lam  # per-point bandwidths
    z = (xs[:, None] - x[None, :]) / h[None, :]
    return (np.exp(-0.5 * z * z) / (SQRT_2PI * h[None, :])).mean(axis=1)


def sinc_kde(sample, xs, t: float) -> np.ndarray:
    """Higher-order kernel estimator with K(x) = sin(x)/(pi x), K(0) = 1/pi.

    Values may be negative; that is inherent to the kernel.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    x = _as_sample(sample)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    h = np.sqrt(t)
    u = (xs[:, None] - x[None, :]) / h
    return (np.sinc(u / np.pi) / np.pi).mean(axis=1) / h


def hall_park_estimate(sample, xs, t: float, beta: float) -> np.ndarray:
    """Boundary-corrected estimator for data truncated from above at beta.

    f_hat(x) = sum phi((x - X_i + a(x))/h) / (N h Phi((beta - x)/h)),
    a(x) = t (f0'/f0)(x) rho((beta - x)/h), rho(u) = -phi(u)/Phi(u),
    h = sqrt(t).  rho -> 0 away from the boundary, so the estimator
    reduces to the mass-renormalized plain KDE in the interior.
    """
    if not t > 0:
        raise ValueError("t must be positive")
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
