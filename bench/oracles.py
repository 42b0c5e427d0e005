"""Targets and references the benchmark owns.

Nothing here calls a diffkde estimator, so a change to the program cannot
move its own reference:

- truth densities are evaluated with scipy.stats from the mixture
  component tables below (the same components as the testbed registry;
  ``test_bench.py`` asserts that they still agree);
- the oracle for Gaussian estimates is a direct sum over the sample,
  with the images that reflecting grid ends add;
- the ellipse-truncated 2D target is normalised by the benchmark's own
  midpoint quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.stats import multivariate_normal, norm

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Mixture1D:
    """Normal mixture; with ``log`` the target is exp(Z), Z ~ mixture."""

    components: tuple  # of (weight, mean, std)
    log: bool = False

    def _arrays(self):
        w, m, s = (np.array(c, dtype=float) for c in zip(*self.components))
        return w, m, s

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        w, m, s = self._arrays()
        if not self.log:
            return sum(wi * norm.pdf(x, mi, si) for wi, mi, si in zip(w, m, s))
        out = np.zeros_like(x)
        pos = x > 0
        lx = np.log(x[pos])
        out[pos] = sum(wi * norm.pdf(lx, mi, si) for wi, mi, si in zip(w, m, s)) / x[pos]
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        w, m, s = self._arrays()
        if not self.log:
            return sum(wi * norm.cdf(x, mi, si) for wi, mi, si in zip(w, m, s))
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = sum(wi * norm.cdf(np.log(x[pos]), mi, si)
                       for wi, mi, si in zip(w, m, s))
        return out

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        w, m, s = self._arrays()
        idx = rng.choice(w.size, size=count, p=w / w.sum())
        z = rng.normal(m[idx], s[idx])
        return np.exp(z) if self.log else z

    @functools.lru_cache(maxsize=None)
    def quantiles(self, levels: tuple) -> np.ndarray:
        """Quantiles by bisection on the cdf, computed once per target."""
        w, m, s = self._arrays()
        lo = np.full(len(levels), float(np.min(m - 12.0 * s)))
        hi = np.full(len(levels), float(np.max(m + 12.0 * s)))
        if self.log:
            lo, hi = np.exp(lo), np.exp(hi)
        levels = np.asarray(levels, dtype=float)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < levels
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FlippedExponential:
    """Density exp(x) on x <= 0 (a boundary target with its edge at 0)."""

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, np.exp(np.minimum(x, 0.0)), 0.0)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return -rng.exponential(size=count)

    def quantiles(self, levels: tuple) -> np.ndarray:
        return np.log(np.asarray(levels, dtype=float))


def _mix(comps, log=False):
    return Mixture1D(tuple(tuple(float(v) for v in c) for c in comps), log)


# Component tables of the testbed registry cases the workloads use.
MIXTURES = {
    "claw": _mix([(0.5, 0.0, 1.0)] + [(0.1, k / 2.0 - 1.0, 0.1) for k in range(5)]),
    "bimodal_pm2": _mix([(0.5, -2.0, 0.5), (0.5, 2.0, 0.5)]),
    "log_normal": _mix([(1.0, 0.0, 1.0)], log=True),
    "separated_pm30": _mix([(0.5, -30.0, 1.0), (0.5, 30.0, 1.0)]),
    "ten_modes": _mix([(0.1, 100.0 * k, float(k + 1)) for k in range(10)]),
}

# Oracle nodes sit at the centres of ten equal-mass slices of the target,
# so every node lies where the target has mass (for ten_modes, whose
# components each hold a tenth of the mass, they are its ten modes).
ORACLE_LEVELS = tuple((k + 0.5) / 10.0 for k in range(10))


@dataclass(frozen=True)
class Mixture2D:
    """Mixture of correlated bivariate normals: (weight, mean, std, rho)."""

    components: tuple

    def _frozen(self):
        out = []
        for w, mu, sd, rho in self.components:
            cov = np.array([[sd[0] ** 2, rho * sd[0] * sd[1]],
                            [rho * sd[0] * sd[1], sd[1] ** 2]])
            out.append((w, np.asarray(mu, dtype=float), cov))
        return out

    def pdf(self, pts):
        pts = np.asarray(pts, dtype=float)
        return sum(w * multivariate_normal(mu, cov).pdf(pts)
                   for w, mu, cov in self._frozen())

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        comps = self._frozen()
        w = np.array([c[0] for c in comps])
        idx = rng.choice(len(comps), size=count, p=w / w.sum())
        out = np.empty((count, 2))
        for i, (_, mu, cov) in enumerate(comps):
            sel = idx == i
            out[sel] = rng.multivariate_normal(mu, cov, size=int(sel.sum()))
        return out

    def oracle_points(self) -> np.ndarray:
        """Component means and points one std away along each axis."""
        pts = []
        for _, mu, sd, _ in self.components:
            pts.append(mu)
            pts.extend([(mu[0] + sd[0], mu[1]), (mu[0] - sd[0], mu[1]),
                        (mu[0], mu[1] + sd[1]), (mu[0], mu[1] - sd[1])])
        return np.asarray(pts, dtype=float)


FREE_2D = Mixture2D((
    (0.6, (0.0, 0.0), (1.0, 0.3), 0.5),
    (0.4, (2.0, 1.0), (0.4, 0.8), -0.3),
))


@dataclass(frozen=True)
class EllipseTruncated2D:
    """A 2D mixture restricted to the ellipse (x/a)^2 + (y/b)^2 <= 1."""

    mixture: Mixture2D
    a: float
    b: float

    def inside(self, x1, x2):
        return (np.asarray(x1) / self.a) ** 2 + (np.asarray(x2) / self.b) ** 2 <= 1.0

    @functools.cached_property
    def mass(self) -> float:
        """Mixture mass inside the ellipse by the midpoint rule on m x m cells."""
        m = 2000
        h1, h2 = 2.0 * self.a / m, 2.0 * self.b / m
        c1 = -self.a + h1 * (np.arange(m) + 0.5)
        c2 = -self.b + h2 * (np.arange(m) + 0.5)
        total = 0.0
        for row in np.array_split(np.arange(m), 8):
            X1, X2 = np.meshgrid(c1[row], c2, indexing="ij")
            keep = self.inside(X1, X2)
            total += float(self.mixture.pdf(np.dstack([X1, X2]))[keep].sum())
        return total * h1 * h2

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((0, 2))
        while out.shape[0] < count:
            c = self.mixture.sample(2 * count, rng)
            out = np.vstack([out, c[self.inside(c[:, 0], c[:, 1])]])
        return out[:count]


MASKED_2D = EllipseTruncated2D(Mixture2D((
    (0.55, (-0.35, -0.1), (0.35, 0.25), 0.4),
    (0.45, (0.4, 0.2), (0.3, 0.35), -0.3),
)), a=0.95, b=0.8)


# --- direct-sum oracle ------------------------------------------------------

def reflected_kernel(xs, data, t: float, lo: float, hi: float) -> np.ndarray:
    """Gaussian kernel at variance t with the images of both grid ends.

    Returns the (len(xs), len(data)) kernel matrix of a heat flow with
    zero flux at lo and hi, truncated after one reflection per end (the
    next images are further than a full grid width away).
    """
    xs = np.asarray(xs, dtype=float)[:, None]
    y = np.asarray(data, dtype=float)[None, :]
    k = np.zeros((xs.shape[0], y.shape[1]))
    for img in (y, 2.0 * lo - y, 2.0 * hi - y):
        d = xs - img
        k += np.exp(-0.5 * d * d / t)
    return k / (_SQRT_2PI * np.sqrt(t))


def direct_kde_1d(xs, data, t, lo, hi) -> np.ndarray:
    """Direct sum of the reflected Gaussian kernel at the nodes xs.

    The image of y in an end e sits at 2e - y, so phi(x - (2e - y)) =
    phi(y - (2e - x)): each node sums the sorted sample over windows of
    12 standard deviations around x, 2 lo - x and 2 hi - x.  Points outside
    every window contribute below exp(-72) of a kernel peak each.
    """
    y = np.sort(np.asarray(data, dtype=float))
    reach = 12.0 * np.sqrt(t)
    out = np.zeros(len(xs))
    for i, x in enumerate(xs):
        for c in (x, 2.0 * lo - x, 2.0 * hi - x):
            a, b = np.searchsorted(y, (c - reach, c + reach))
            d = y[a:b] - c
            out[i] += np.exp(-0.5 * d * d / t).sum()
    return out / (y.size * _SQRT_2PI * np.sqrt(t))


def direct_kde_2d(pts, data, t1, t2, box, chunk: int = 50_000) -> np.ndarray:
    """Product of reflected kernels; box = (lo1, hi1, lo2, hi2)."""
    pts = np.asarray(pts, dtype=float)
    data = np.asarray(data, dtype=float)
    acc = np.zeros(pts.shape[0])
    for s in range(0, data.shape[0], chunk):
        d = data[s:s + chunk]
        k1 = reflected_kernel(pts[:, 0], d[:, 0], t1, box[0], box[1])
        k2 = reflected_kernel(pts[:, 1], d[:, 1], t2, box[2], box[3])
        acc += (k1 * k2).sum(axis=1)
    return acc / data.shape[0]


def snap(nodes: np.ndarray, xs) -> np.ndarray:
    """Indices of the grid nodes nearest to xs."""
    xs = np.asarray(xs, dtype=float)
    idx = np.clip(np.searchsorted(nodes, xs), 1, nodes.size - 1)
    return idx - ((xs - nodes[idx - 1]) < (nodes[idx] - xs))


def max_rel_dev(values, reference) -> float:
    return float(np.max(np.abs(np.asarray(values) - reference) / reference))


# --- quadrature on the estimate's own grid ----------------------------------

def trapezoid_1d(values, nodes) -> float:
    return float(np.trapezoid(values, nodes))


def trapezoid_2d(values, nodes1, nodes2) -> float:
    return float(np.trapezoid(np.trapezoid(values, nodes2, axis=1), nodes1))
