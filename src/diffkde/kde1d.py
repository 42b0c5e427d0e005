"""Gaussian kernel density estimation and its boundary-consistent variant.

The plain Gaussian estimator lives on the whole real line; the
reflection ("theta") kernel solves the same heat flow on a bounded
interval with zero-flux ends, which keeps the estimate a bona fide
density and removes the factor-two bias at the endpoints.
"""

from __future__ import annotations

import numpy as np

from .grids import BinnedHistogram, DensityEstimate1D, _as_sample, _check_time

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _normal_pdf(x, mean=0.0, std=1.0) -> np.ndarray:
    """N(mean, std^2) density, in the floating-point steps of scipy.stats.norm."""
    z = (np.asarray(x, dtype=float) - mean) / std
    return np.exp(-z ** 2 / 2.0) / SQRT_2PI / std


def _normal_cdf(x, mean=0.0, std=1.0) -> np.ndarray:
    """N(mean, std^2) distribution function, as scipy.stats.norm.cdf."""
    from scipy.special import ndtr  # deferred: Hall-Park and the testbed alone call it
    return ndtr((np.asarray(x, dtype=float) - mean) / std)


def _phi(u: np.ndarray, t: float) -> np.ndarray:
    return np.exp(-0.5 * u * u / t) / (SQRT_2PI * np.sqrt(t))


def gauss_kde_exact(sample, xs, t: float) -> np.ndarray:
    """Direct-sum Gaussian KDE; the oracle for every spectral evaluation."""
    _check_time(t, positive=True)
    x = _as_sample(sample)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _phi(xs[:, None] - x[None, :], t).mean(axis=1)


def gauss_kde_spectral(binned: BinnedHistogram, t: float) -> DensityEstimate1D:
    """Heat-equation (zero-flux) solution on the grid interval at time t.

    ``binned`` is smoothed from its cosine moments at the unit time
    t / range^2; t must be finite.
    Coincides with the reflection-kernel estimator on the interval; in the
    interior of a grid padded by at least ~6*sqrt(t) it agrees with
    :func:`gauss_kde_exact` to a few parts in 1e4.
    """
    _check_time(t, positive=True)
    grid = binned.grid
    vals = binned.smooth((t / grid.range ** 2,)) / grid.range
    vals[np.abs(vals) < 1e-15] = 0.0
    return DensityEstimate1D(grid, np.clip(vals, 0.0, None), t)


def theta_sample(y, t: float, rng: np.random.Generator):
    """Draw from the interval kernel centred at y by reflecting a normal draw.

    Y = y + N(0, t) is folded into [0, 1] by reflecting at both endpoints
    (W = Y mod 2 on [0, 2), then X = W if W <= 1 else 2 - W).  An array
    ``y`` draws once per centre, as one call per centre would; many draws
    at one centre take an array of copies of it.
    """
    _check_time(t)
    y = np.asarray(y, dtype=float)
    if not np.all((0.0 <= y) & (y <= 1.0)):
        raise ValueError("y must lie in [0, 1]")
    z = rng.normal(y, np.sqrt(t))
    w = np.mod(z, 2.0)
    x = np.where(w > 1.0, 2.0 - w, w)
    return float(x) if x.ndim == 0 else x
