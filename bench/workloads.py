"""The four workloads: seeded inputs, the timed call, and its checks.

A workload hands out passes.  A pass is a fixed list of operations whose
inputs come from one random stream, so every pass runs the same mix of
targets and sizes and only the draws differ.  An operation is one full
estimate or one CLI call; its ``run`` is the only part that is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy import ndimage

import diffkde as D
import diffkde.cli as dcli
from checks import (
    MASS_TOL_HEAT,
    MASS_TOL_KERNEL_SUM,
    Outcome,
    check_bandwidth,
    check_density_1d,
    check_density_2d,
    check_draws,
)
from oracles import (
    FREE_2D,
    MASKED_2D,
    MIXTURES,
    ORACLE_LEVELS,
    FlippedExponential,
    direct_kde_1d,
    direct_kde_2d,
    max_rel_dev,
    snap,
    trapezoid_1d,
    trapezoid_2d,
)


@dataclass(frozen=True)
class Sizes:
    plugin_ns: tuple = (1_000, 100_000, 1_000_000)
    grid_1d: int = 2 ** 14
    adaptive_N: int = 1_000
    adaptive_grid: int = 2 ** 12
    euler_count: int = 10_000
    euler_steps: int = 100
    free_2d_ns: tuple = (1_000, 10_000, 100_000)
    masked_N: int = 10_000
    grid_2d: int = 2 ** 8
    cli_big: int = 100_000
    cli_small: int = 1_000
    cli_2d: int = 10_000
    theta_count: int = 10_000


FULL = Sizes()
SMOKE = Sizes(plugin_ns=(300,), grid_1d=2 ** 12, adaptive_N=200, adaptive_grid=2 ** 8,
              euler_count=200, free_2d_ns=(300,), masked_N=300, grid_2d=2 ** 6,
              cli_big=2_000, cli_small=200, cli_2d=300, theta_count=200)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    known: str | None = None       # the failure reason of a documented defect
    reads: tuple = ()
    writes: str | None = None


def _oracle_1d(nodes, values, truth, sample, t) -> float:
    """Largest relative deviation from the direct sum at the oracle nodes."""
    idx = np.unique(snap(nodes, truth.quantiles(ORACLE_LEVELS)))
    return max_rel_dev(values[idx], direct_kde_1d(nodes[idx], sample, t, nodes[0], nodes[-1]))


def _outcome_1d(nodes, values, truth, nonnegative=True, oracle=None,
                tol=MASS_TOL_HEAT) -> Outcome:
    """Checks, ISE and (given (sample, t)) the direct-sum deviation."""
    values = np.asarray(values, dtype=float)
    reason = check_density_1d(nodes, values, nonnegative, tol)
    if not np.all(np.isfinite(values)):
        return Outcome(reason)
    ise = trapezoid_1d((values - truth.pdf(nodes)) ** 2, nodes)
    err = None if oracle is None else _oracle_1d(nodes, values, truth, *oracle)
    return Outcome(reason, ise, err)


def _outcome_2d(n1, n2, values, truth_on_grid, outside=None, oracle=None) -> Outcome:
    values = np.asarray(values, dtype=float)
    reason = check_density_2d(n1, n2, values, outside)
    if not np.all(np.isfinite(values)):
        return Outcome(reason)
    ise = trapezoid_2d((values - truth_on_grid) ** 2, n1, n2)
    err = None
    if oracle is not None:
        sample, (t1, t2) = oracle
        pts = FREE_2D.oracle_points()
        i, j = snap(n1, pts[:, 0]), snap(n2, pts[:, 1])
        ref = direct_kde_2d(np.column_stack([n1[i], n2[j]]), sample, t1, t2,
                            (n1[0], n1[-1], n2[0], n2[-1]))
        err = max_rel_dev(values[i, j], ref)
    return Outcome(reason, ise, err)


def _mesh(n1, n2):
    X1, X2 = np.meshgrid(n1, n2, indexing="ij")
    return np.dstack([X1, X2])


def _masked_truth(n1, n2):
    X = _mesh(n1, n2)
    inside = MASKED_2D.inside(X[..., 0], X[..., 1])
    return np.where(inside, MASKED_2D.mixture.pdf(X), 0.0) / MASKED_2D.mass


def _within(grid, draw):
    """Redraw points a case grid cannot hold (its support is the target's
    10-sigma range; only the log-normal tail ever leaves it, at ~2e-8)."""
    x = draw()
    out = (x < grid.lo) | (x > grid.hi)
    while out.any():
        x[out] = draw()[: int(out.sum())]
        out = (x < grid.lo) | (x > grid.hi)
    return x


def _case_grid(case, n):
    return D.case_grid(D.registry()[case], n=n)


# --- plugin_1d ---------------------------------------------------------------

class Plugin1D:
    """isj_select -> bin_linear on the case grid -> gauss_kde_spectral."""

    CASES = ("claw", "bimodal_pm2", "log_normal", "separated_pm30", "ten_modes")

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes
        self.grids = {c: _case_grid(c, sizes.grid_1d) for c in self.CASES}

    def describe(self):
        s = self.sizes
        return (f"{len(self.CASES)} targets x N in {list(s.plugin_ns)}, grid n={s.grid_1d}; "
                f"{8 * len(self.CASES) * sum(s.plugin_ns) / 2**20:.1f} MiB of samples per pass")

    def make_pass(self, rng):
        ops = []
        for case in self.CASES:
            mix, grid = MIXTURES[case], self.grids[case]
            for N in self.sizes.plugin_ns:
                x = _within(grid, partial(mix.sample, N, rng))
                ops.append(Op(f"{case}/N={N}", partial(self._fit, x, grid),
                              partial(self._check, x, mix)))
        return ops

    def _fit(self, x, grid):
        report = D.isj_select(x, n=self.sizes.grid_1d)
        return D.gauss_kde_spectral(D.bin_linear(x, grid), report.t_star)

    @staticmethod
    def _check(x, mix, est):
        return _outcome_1d(est.grid.nodes, est.values, mix, oracle=(x, est.t))


# --- adaptive_1d ------------------------------------------------------------

class Adaptive1D:
    """diffusion_pipeline on a case grid, then euler_sample from the fit."""

    CASES = ("claw", "log_normal", "bimodal_pm2", "flipped_exponential")

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes
        self.grids = {c: _case_grid(c, sizes.adaptive_grid) for c in self.CASES[:3]}

    def describe(self):
        s = self.sizes
        return (f"{len(self.CASES)} targets x N={s.adaptive_N}, grid n={s.adaptive_grid}; "
                f"euler_sample {s.euler_count} draws x {s.euler_steps} steps")

    def make_pass(self, rng):
        ops = []
        n = self.sizes.adaptive_grid
        for case in self.CASES:
            if case == "flipped_exponential":
                truth = FlippedExponential()
                x = truth.sample(self.sizes.adaptive_N, rng)
                # the boundary case of acceptance criterion 4: the grid ends at 0
                grid = D.Grid1D(min(-12.0, float(x.min()) - 1.0), 0.0, n)
            else:
                truth, grid = MIXTURES[case], self.grids[case]
                x = _within(grid, partial(truth.sample, self.sizes.adaptive_N, rng))
            euler_seed = int(rng.integers(2 ** 63))
            ops.append(Op(f"{case}/N={x.size}", partial(self._fit, x, grid, euler_seed),
                          partial(self._check, x, truth, grid)))
        return ops

    def _fit(self, x, grid, euler_seed):
        s = self.sizes
        sol, report = D.diffusion_pipeline(x, n=grid.n, grid=grid)
        draws = D.euler_sample(x, sol.pilot, report.t_star, s.euler_steps, s.euler_count,
                               np.random.default_rng(euler_seed))
        return sol, draws

    def _check(self, x, truth, grid, out):
        sol, draws = out
        est = sol.estimate
        res = _outcome_1d(est.grid.nodes, est.values, truth)
        res.reason = res.reason or check_draws(draws, self.sizes.euler_count, grid.lo, grid.hi)
        # The pilot inside the fit is a Gaussian estimate at the plug-in
        # bandwidth; compare it with the direct sum at that bandwidth.
        t_pilot = D.isj_select(x, n=grid.n).t_star
        res.oracle = _oracle_1d(grid.nodes, sol.pilot.p, truth, x, t_pilot)
        return res


# --- domain_2d --------------------------------------------------------------

class Domain2D:
    """Free-space isj2d_select -> bin_linear_2d -> gauss_kde_2d, and the
    masked heat solve on an ellipse-truncated mixture."""

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes
        n = sizes.grid_2d
        self.grid = D.Grid2D(D.Grid1D(-1.0, 1.0, n), D.Grid1D(-1.0, 1.0, n))
        X = _mesh(self.grid.x1.nodes, self.grid.x2.nodes)
        # dilate by two pixels so that bilinear binning puts no mass outside
        self.inside = ndimage.binary_dilation(MASKED_2D.inside(X[..., 0], X[..., 1]),
                                              iterations=2)
        self.mask = D.DomainMask(self.grid, self.inside)
        self.masked_truth = _masked_truth(self.grid.x1.nodes, self.grid.x2.nodes)

    def describe(self):
        s = self.sizes
        return (f"free-space N in {list(s.free_2d_ns)} + masked N={s.masked_N}, "
                f"grid {s.grid_2d}^2, {int(self.inside.sum())} masked nodes")

    def make_pass(self, rng):
        ops = []
        for N in self.sizes.free_2d_ns:
            p = FREE_2D.sample(N, rng)
            ops.append(Op(f"free/N={N}", partial(self._free, p), partial(self._check_free, p)))
        p = MASKED_2D.sample(self.sizes.masked_N, rng)
        ops.append(Op(f"masked/N={p.shape[0]}", partial(self._masked, p), self._check_masked))
        return ops

    def _free(self, p):
        n = self.sizes.grid_2d
        _, t1, t2, _ = D.isj2d_select(p, n=n)
        grid = D.make_grid_2d(p, n=n)
        return D.gauss_kde_2d(D.bin_linear_2d(p, grid), (t1, t2))

    def _masked(self, p):
        _, t1, t2, _ = D.isj2d_select(p, n=self.sizes.grid_2d)
        return D.solve_heat_masked(D.bin_linear_2d(p, self.grid), self.mask, 0.5 * (t1 + t2))

    @staticmethod
    def _check_free(p, est):
        n1, n2 = est.grid.x1.nodes, est.grid.x2.nodes
        return _outcome_2d(n1, n2, est.values, FREE_2D.pdf(_mesh(n1, n2)), oracle=(p, est.t))

    def _check_masked(self, est):
        return _outcome_2d(self.grid.x1.nodes, self.grid.x2.nodes, est.values,
                           self.masked_truth, outside=~self.inside)


# --- cli_compare ------------------------------------------------------------

HALLPARK_DEFECT = "exit 2: error: evaluation points above the truncation point"


def _lscv_defect(selector):
    return f"selector {selector}: report method 'sj_normal_ref'"


def call_cli(argv):
    """diffkde.cli.main in process; returns (exit code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dcli.main(argv)
    lines = err.getvalue().strip().splitlines()
    return code, (lines[-1] if lines else "")


def _cli_failed(out):
    code, err = out
    return Outcome(f"exit {code}: {err}") if code != 0 else None


class CliCompare:
    """diffkde.cli.main(argv) on text files written before each pass."""

    FIXED_T = 0.05

    def __init__(self, sizes: Sizes, workdir: str):
        self.sizes = sizes
        self.dir = workdir

    def _path(self, name):
        return os.path.join(self.dir, name)

    def describe(self):
        s = self.sizes
        return (f"text inputs per pass: claw N={s.cli_big}, bimodal_pm2 and claw "
                f"N={s.cli_small}, 2D N={s.cli_2d} free and masked, {s.grid_2d}^2 mask")

    def _common(self):
        s = self.sizes
        return ["--grid-n", str(s.grid_1d), "--grid-n-2d", str(s.grid_2d)]

    def make_pass(self, rng):
        s = self.sizes
        data = {
            "claw_big.txt": MIXTURES["claw"].sample(s.cli_big, rng),
            "bimodal.txt": MIXTURES["bimodal_pm2"].sample(s.cli_small, rng),
            "claw.txt": MIXTURES["claw"].sample(s.cli_small, rng),
            "free2d.csv": FREE_2D.sample(s.cli_2d, rng),
            "masked2d.csv": MASKED_2D.sample(s.cli_2d, rng),
        }
        for name, arr in data.items():
            np.savetxt(self._path(name), arr, fmt="%.17g", delimiter=",")
        mask_nodes = self._write_mask(data["masked2d.csv"])
        ops = []

        def add(label, argv, check, reads, output, known=None):
            full = argv + ["--input", self._path(reads[0]), "--output", self._path(output)]
            ops.append(Op(label, partial(call_cli, full + self._common()), check, known,
                          tuple(self._path(r) for r in reads), self._path(output)))

        for name, size in (("claw_big.txt", s.cli_big), ("bimodal.txt", s.cli_small)):
            add(f"bandwidth isj N={size}", ["bandwidth", "--selector", "isj"],
                partial(self._check_bandwidth, "isj", "bw.json"), (name,), "bw.json")
        for sel in ("lscv", f"fixed:{self.FIXED_T}"):
            add(f"bandwidth {sel}", ["bandwidth", "--selector", sel],
                partial(self._check_bandwidth, sel, "bw.json"), ("bimodal.txt",), "bw.json",
                known=_lscv_defect(sel))
        add(f"density gauss N={s.cli_big}", ["density", "--method", "gauss"],
            partial(self._check_1d, "claw", data["claw_big.txt"], "f.csv", True,
                    MASS_TOL_HEAT),
            ("claw_big.txt",), "f.csv")
        for method in ("abramson", "sinc", "hallpark"):
            for case, name in (("bimodal_pm2", "bimodal.txt"), ("claw", "claw.txt")):
                add(f"density {method} {case}", ["density", "--method", method],
                    partial(self._check_1d, case, None, "f.csv", method != "sinc",
                            MASS_TOL_KERNEL_SUM),
                    (name,), "f.csv", known=HALLPARK_DEFECT if method == "hallpark" else None)
        add(f"sample theta x{s.theta_count}",
            ["sample", "--method", "theta", "--count", str(s.theta_count), "--seed", "1"],
            partial(self._check_sample, data["bimodal.txt"], "draws.txt"),
            ("bimodal.txt",), "draws.txt")
        add("density 2d", ["density", "--dims", "2"],
            partial(self._check_2d, None, "f2.csv"), ("free2d.csv",), "f2.csv")
        add("density 2d --mask", ["density", "--dims", "2", "--mask", self._path("mask.csv")],
            partial(self._check_2d, mask_nodes, "f2.csv"), ("masked2d.csv", "mask.csv"),
            "f2.csv")
        return ops

    def _write_mask(self, pts):
        """The ellipse, dilated by two pixels, on the grid the CLI derives
        from the data (the sample's range padded by 10% per axis)."""
        n = self.sizes.grid_2d
        axes = []
        for c in range(2):
            lo, hi = float(pts[:, c].min()), float(pts[:, c].max())
            axes.append(np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), n))
        X = _mesh(*axes)
        inside = ndimage.binary_dilation(MASKED_2D.inside(X[..., 0], X[..., 1]), iterations=2)
        np.savetxt(self._path("mask.csv"), inside.astype(int), fmt="%d", delimiter=",")
        return inside

    def _check_bandwidth(self, selector, output, out):
        if (failed := _cli_failed(out)) is not None:
            return failed
        with open(self._path(output)) as fh:
            return Outcome(check_bandwidth(json.load(fh), selector))

    def _check_1d(self, case, sample, output, nonnegative, tol, out):
        if (failed := _cli_failed(out)) is not None:
            return failed
        nodes, values = np.loadtxt(self._path(output), delimiter=",", comments="#").T
        # the CLI's gauss density smooths at isj_select's bandwidth with
        # default settings; the oracle takes that bandwidth from its own call
        oracle = (sample, D.isj_select(sample).t_star) if sample is not None else None
        return _outcome_1d(nodes, values, MIXTURES[case], nonnegative, oracle, tol)

    def _check_sample(self, sample, output, out):
        if (failed := _cli_failed(out)) is not None:
            return failed
        lo, hi = float(sample.min()), float(sample.max())
        pad = 0.1 * (hi - lo)
        return Outcome(check_draws(np.loadtxt(self._path(output)), self.sizes.theta_count,
                                   lo - pad, hi + pad))

    def _check_2d(self, mask, output, out):
        if (failed := _cli_failed(out)) is not None:
            return failed
        rows = np.loadtxt(self._path(output), delimiter=",", comments="#")
        n = self.sizes.grid_2d
        n1, n2 = rows[::n, 0], rows[:n, 1]
        values = rows[:, 2].reshape(n, n)
        if mask is None:
            return _outcome_2d(n1, n2, values, FREE_2D.pdf(_mesh(n1, n2)))
        return _outcome_2d(n1, n2, values, _masked_truth(n1, n2), outside=~mask)


WORKLOADS = {
    "plugin_1d": Plugin1D,
    "adaptive_1d": Adaptive1D,
    "domain_2d": Domain2D,
    "cli_compare": CliCompare,
}
