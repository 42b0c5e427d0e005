"""Benchmark targets and the ISE comparison harness.

The registry holds the standard normal-mixture test suite (claw, combs,
separated and skewed bimodals, multi-modal families) plus a log-normal
transform target, with fixed wide evaluation grids per case so that the
integrated squared error is computed on a support holding essentially
all target mass.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bandwidth import isj_select, sj_normal_ref_select
from .comparators import abramson_estimate, hall_park_estimate, lscv_select, sinc_kde
from .diffusion import diffusion_pipeline
from .grids import DensityEstimate1D, Grid1D, bin_linear, integrate
from .kde1d import _normal_cdf, _normal_pdf, gauss_kde_spectral


@dataclass(frozen=True)
class GaussianMixture:
    """Normal mixture; with exp_transform the target is exp(Z), Z ~ mixture."""

    name: str
    components: tuple  # of (weight, mean, std)
    exp_transform: bool = False

    def __post_init__(self):
        w = np.array([c[0] for c in self.components])
        s = np.array([c[2] for c in self.components])
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(s <= 0):
            raise ValueError("stds must be positive")

    def _mixed(self, f, x):
        """x as an array, the nodes ``on`` where the mixture is taken (x > 0
        under the exp transform, else all) and sum_k w_k f(z; m_k, s_k) at
        those nodes, z = log x under the exp transform and x otherwise."""
        x = np.asarray(x, dtype=float)
        on = x > 0 if self.exp_transform else np.full(x.shape, True)
        z = np.log(x[on]) if self.exp_transform else x[on]
        acc = np.zeros_like(z)
        for w, m, s in self.components:
            acc += w * f(z, m, s)
        return x, on, acc

    def pdf(self, x):
        x, on, acc = self._mixed(_normal_pdf, x)
        out = np.zeros_like(x)
        out[on] = acc / x[on] if self.exp_transform else acc
        return out

    def cdf(self, x):
        x, on, acc = self._mixed(_normal_cdf, x)
        out = np.zeros_like(x)
        out[on] = acc
        return out

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        w = np.array([c[0] for c in self.components])
        idx = rng.choice(len(self.components), size=count, p=w)
        means = np.array([c[1] for c in self.components])[idx]
        stds = np.array([c[2] for c in self.components])[idx]
        z = rng.normal(means, stds)
        return np.exp(z) if self.exp_transform else z

    def support(self):
        """Ten standard deviations past the outermost components; under the
        exp transform [0, exp(m + 5.5 s)], as a 10-sigma log range would be
        uselessly wide."""
        if self.exp_transform:
            return 0.0, float(np.exp(max(m + 5.5 * s for _, m, s in self.components)))
        return (float(min(m - 10.0 * s for _, m, s in self.components)),
                float(max(m + 10.0 * s for _, m, s in self.components)))


def _mix(name, comps, **kw):
    return GaussianMixture(name, tuple(comps), **kw)


def registry() -> dict:
    """The named benchmark targets."""
    third = 1.0 / 3.0
    reg = [
        _mix("claw", [(0.5, 0.0, 1.0)] + [(0.1, k / 2.0 - 1.0, 0.1)
                                          for k in range(5)]),
        _mix("strongly_skewed", [(1.0 / 8.0, 3.0 * ((2.0 / 3.0) ** k - 1.0),
                                  (2.0 / 3.0) ** k) for k in range(8)]),
        _mix("kurtotic_unimodal", [(2 * third, 0.0, 1.0), (third, 0.0, 0.1)]),
        _mix("double_claw", [(0.49, -1.0, 2.0 / 3.0), (0.49, 1.0, 2.0 / 3.0)]
             + [(1.0 / 350.0, (k - 3.0) / 2.0, 0.01) for k in range(7)]),
        _mix("discrete_comb", [(2.0 / 7.0, (12.0 * k - 15.0) / 7.0, 2.0 / 7.0)
                               for k in range(3)]
             + [(1.0 / 21.0, 2.0 * k / 7.0, 1.0 / 21.0) for k in (8, 9, 10)]),
        _mix("asymmetric_double_claw",
             [(0.46, 2.0 * k - 1.0, 2.0 / 3.0) for k in range(2)]
             + [(1.0 / 300.0, -k / 2.0, 0.01) for k in (1, 2, 3)]
             + [(7.0 / 300.0, k / 2.0, 0.07) for k in (1, 2, 3)]),
        _mix("outlier", [(0.1, 0.0, 1.0), (0.9, 0.0, 0.1)]),
        _mix("separated_bimodal", [(0.5, -12.0, 0.5), (0.5, 12.0, 0.5)]),
        _mix("skewed_bimodal", [(0.75, 0.0, 1.0), (0.25, 1.5, third)]),
        _mix("bimodal", [(0.5, 0.0, 0.1), (0.5, 5.0, 1.0)]),
        _mix("log_normal", [(1.0, 0.0, 1.0)], exp_transform=True),
        _mix("asymmetric_claw", [(0.5, 0.0, 1.0)]
             + [(2.0 ** (1 - k) / 31.0, k + 0.5, 2.0 ** (-k) / 10.0)
                for k in range(-2, 3)]),
        _mix("trimodal", [(third, 80.0 * k, (k + 1.0) ** 2) for k in range(3)]),
        _mix("five_modes", [(0.2, 80.0 * k, float(k + 1)) for k in range(5)]),
        _mix("ten_modes", [(0.1, 100.0 * k, float(k + 1)) for k in range(10)]),
        _mix("smooth_comb", [(2.0 ** (5 - k) / 63.0,
                              (65.0 - 96.0 / 2.0 ** k) / 21.0,
                              (32.0 / 63.0) / 2.0 ** k) for k in range(6)]),
        _mix("bimodal_pm2", [(0.5, -2.0, 0.5), (0.5, 2.0, 0.5)]),
        _mix("separated_pm30", [(0.5, -30.0, 1.0), (0.5, 30.0, 1.0)]),
    ]
    return {m.name: m for m in reg}


def case_grid(mixture: GaussianMixture, n: int = 2 ** 14) -> Grid1D:
    lo, hi = mixture.support()
    return Grid1D(lo, hi, n)


def ise(estimate, target) -> float:
    """Integrated squared error of node values against the target pdf.

    ``estimate`` is a DensityEstimate1D or a (values, grid) pair; the
    grid must hold all but 1e-4 of the target's mass.
    """
    if isinstance(estimate, DensityEstimate1D):
        values, grid = estimate.values, estimate.grid
    else:
        values, grid = estimate
        values = np.asarray(values, dtype=float)
    outside = 1.0 - (target.cdf(grid.hi) - target.cdf(grid.lo))
    if outside > 1e-4:
        raise ValueError(f"target mass {outside:.2e} outside the grid")
    d = values - target.pdf(grid.nodes)
    return float(integrate(d * d, grid))


# --- estimation methods available to the benchmark runner -------------------
# Each takes the trial's sample, the case grid and ``lscv_t``, which returns
# the sample's LSCV bandwidth, selected once per trial for both methods.

def _est_isj(x, grid, lscv_t):
    t = isj_select(x).t_star
    return gauss_kde_spectral(bin_linear(x, grid), t).values


def _est_sj(x, grid, lscv_t):
    t = sj_normal_ref_select(x).t_star
    return gauss_kde_spectral(bin_linear(x, grid), t).values


def _est_diffusion(x, grid, lscv_t):
    sol, _ = diffusion_pipeline(x, alpha=1.0, grid=grid)
    return sol.estimate.values


def _est_abramson(x, grid, lscv_t):
    return abramson_estimate(x, grid, lscv_t())


def _est_sinc(x, grid, lscv_t):
    return sinc_kde(x, grid, lscv_t())


def _est_hallpark(x, grid, lscv_t):
    return hall_park_estimate(x, grid.nodes, lscv_t(), beta=grid.hi)


METHODS = {
    "isj": _est_isj,
    "sj": _est_sj,
    "diffusion": _est_diffusion,
    "abramson": _est_abramson,
    "sinc": _est_sinc,
    "hallpark": _est_hallpark,
}


@dataclass
class BenchmarkResult:
    case: str
    N: int
    trials: int
    method_a: str
    method_b: str
    seed: int
    pairs: list  # (trial, ise_a, ise_b)
    failures: list  # (trial, message) of each trial that raised
    ratio_median: float
    ratio_mean: float


def _benchmark_target(case: str, trials: int, method_a: str, method_b: str) -> GaussianMixture:
    """The registry case of a benchmark, once its arguments are checked."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    try:
        target = registry()[case]
    except KeyError:
        raise KeyError(f"unknown case {case!r}") from None
    for m in (method_a, method_b):
        if m not in METHODS:
            raise KeyError(f"unknown method {m!r}")
    return target


def run_benchmark(case: str, N: int, trials: int, method_a: str, method_b: str,
                  seed: int) -> BenchmarkResult:
    """ISE comparison of two methods over seeded independent trials on the
    case's 2^14-node grid.

    Per-trial streams come from default_rng([seed, trial]), so results
    are bit-reproducible for a given seed regardless of trial order.
    """
    target = _benchmark_target(case, trials, method_a, method_b)
    grid = case_grid(target)
    pairs, failures = [], []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        x = target.sample(N, rng)
        lscv_t = cache(lambda: lscv_select(x).t)
        try:
            ia = ise((METHODS[method_a](x, grid, lscv_t), grid), target)
            ib = ise((METHODS[method_b](x, grid, lscv_t), grid), target)
        except (ValueError, ArithmeticError) as exc:
            failures.append((trial, f"{type(exc).__name__}: {exc}"))
            continue
        pairs.append((trial, ia, ib))
    ratios = np.array([a / b for _, a, b in pairs])
    if ratios.size == 0:
        raise ArithmeticError("all trials failed (trial {}: {})".format(*failures[0]))
    return BenchmarkResult(case, N, trials, method_a, method_b, seed, pairs,
                           failures, float(np.median(ratios)),
                           float(np.mean(ratios)))


def benchmark_to_csv(result: BenchmarkResult, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "N", "trial", "ise_a", "ise_b"])
        for trial, a, b in result.pairs:
            w.writerow([result.case, result.N, trial, repr(a), repr(b)])


def benchmark_to_json(result: BenchmarkResult, path: str) -> None:
    doc = {
        "case": result.case,
        "N": result.N,
        "trials": result.trials,
        "method_a": result.method_a,
        "method_b": result.method_b,
        "seed": result.seed,
        "failures": [{"trial": t, "message": m} for t, m in result.failures],
        "ratio_median": result.ratio_median,
        "ratio_mean": result.ratio_mean,
        "pairs": [{"trial": t, "ise_a": a, "ise_b": b}
                  for t, a, b in result.pairs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
