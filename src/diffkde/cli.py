"""Command-line front end: bandwidth selection, density estimation,
sampling, and ISE benchmarks, all file-in/file-out and deterministic
under a seed.

Exit codes: 0 success, 2 usage or input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import testbed
from .bandwidth import isj_select, sj_normal_ref_select
from .comparators import abramson_estimate, hall_park_estimate, lscv_select, sinc_kde
from .diffusion import build_pilot, diffusion_pipeline, euler_sample
from .grids import Grid1D, bin_linear, integrate, make_grid
from .kde1d import gauss_kde_spectral, theta_sample
from .kde2d import (
    DomainMask,
    bin_linear_2d,
    gauss_kde_2d,
    integrate_2d,
    isj2d_select,
    make_grid_2d,
    solve_heat_masked,
)


def _read_sample(path: str, dims: int) -> np.ndarray:
    rows = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.replace(",", " ").split()
                if len(parts) != dims:
                    raise ValueError(
                        f"{path}:{lineno}: expected {dims} column(s), got {len(parts)}")
                try:
                    rows.append([float(p) for p in parts])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed number") from None
    except OSError as exc:
        raise ValueError(str(exc)) from None
    if not rows:
        raise ValueError("empty sample")
    a = np.asarray(rows, dtype=float)
    return a[:, 0] if dims == 1 else a


def _read_mask(path: str) -> np.ndarray:
    try:
        m = np.loadtxt(path, delimiter=",")
    except OSError as exc:
        raise ValueError(str(exc)) from None
    return m.astype(bool)


def _parse_selector(spec: str):
    if spec.startswith("fixed:"):
        t = float(spec.split(":", 1)[1])
        if not t > 0:
            raise ValueError("fixed:t requires t > 0")
        return "fixed", t
    if spec not in ("isj", "sj", "lscv"):
        raise ValueError(f"unknown selector {spec!r}")
    return spec, None


def _select_t(x: np.ndarray, selector: str, t_fixed, args):
    if selector == "fixed":
        return t_fixed
    if selector == "lscv":
        return lscv_select(x).t
    sel = isj_select if selector == "isj" else sj_normal_ref_select
    return sel(x, n=args.grid_n, pad_fraction=args.pad).t_star


def _isj2d(pts: np.ndarray, args):
    return isj2d_select(pts, n=args.grid_n_2d, pad_fraction=args.pad)


def cmd_bandwidth(args) -> int:
    if args.dims == 2:
        pts = _read_sample(args.input, 2)
        t_star, t1, t2, report = _isj2d(pts, args)
        doc = {"t_star_unit": t_star, "t_x1": t1, "t_x2": t2,
               "iterations": report.iterations, "converged": report.converged,
               "method": report.method, "pad_fraction": report.pad_fraction}
    else:
        x = _read_sample(args.input, 1)
        sel = isj_select if args.selector == "isj" else sj_normal_ref_select
        report = sel(x, n=args.grid_n, pad_fraction=args.pad)
        doc = {"t_star": report.t_star, "t2_star": report.t2_star,
               "iterations": report.iterations, "converged": report.converged,
               "method": report.method, "low_sample": report.low_sample,
               "pad_fraction": report.pad_fraction,
               "functional_norms": {str(k): v for k, v
                                    in report.functional_norms.items()}}
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _density_1d(args) -> tuple:
    x = _read_sample(args.input, 1)
    selector, t_fixed = _parse_selector(args.selector)
    grid = make_grid(x, n=args.grid_n, pad_fraction=args.pad)
    if args.method == "diffusion":
        sol, _ = diffusion_pipeline(x, alpha=args.alpha, n=args.grid_n, grid=grid)
        return grid.nodes, sol.estimate.values, grid
    if args.method in ("gauss", "theta"):
        t = _select_t(x, selector, t_fixed, args)
        est = gauss_kde_spectral(bin_linear(x, grid), t)
        return grid.nodes, est.values, grid
    t = _select_t(x, "lscv" if selector in ("isj", "sj") else selector, t_fixed, args)
    if args.method == "abramson":
        vals = abramson_estimate(x, grid.nodes, t=t, t_pilot=t)
    elif args.method == "sinc":
        vals = sinc_kde(x, grid.nodes, t)
    elif args.method == "hallpark":
        vals = hall_park_estimate(x, grid.nodes, t, beta=float(x.max()))
    else:
        raise ValueError(f"unknown method {args.method!r}")
    return grid.nodes, vals, grid


def cmd_density(args) -> int:
    if args.dims == 2:
        pts = _read_sample(args.input, 2)
        grid = make_grid_2d(pts, n=args.grid_n_2d, pad_fraction=args.pad)
        selector, t_fixed = _parse_selector(args.selector)
        binned = bin_linear_2d(pts, grid)
        if args.mask is not None:
            mask = DomainMask(grid, _read_mask(args.mask))
            t = t_fixed if selector == "fixed" else _isj2d(pts, args)[0]
            est = solve_heat_masked(binned, mask, t)
        else:
            tt = (t_fixed, t_fixed) if selector == "fixed" else _isj2d(pts, args)[1:3]
            est = gauss_kde_2d(binned, tt)
        with open(args.output, "w") as fh:
            fh.write(f"# integral={integrate_2d(est.values, grid)!r}\n")
            n1 = grid.x1.nodes
            n2 = grid.x2.nodes
            for i in range(grid.x1.n):
                for j in range(grid.x2.n):
                    fh.write(f"{float(n1[i])!r},{float(n2[j])!r},"
                             f"{float(est.values[i, j])!r}\n")
        return 0
    nodes, vals, grid = _density_1d(args)
    with open(args.output, "w") as fh:
        fh.write(f"# integral={integrate(vals, grid)!r}\n")
        for xi, vi in zip(nodes, vals):
            fh.write(f"{float(xi)!r},{float(vi)!r}\n")
    return 0


def cmd_sample(args) -> int:
    if args.count <= 0:
        raise ValueError("count must be positive")
    x = _read_sample(args.input, 1)
    rng = np.random.default_rng(args.seed)
    selector, t_fixed = _parse_selector(args.selector)
    if args.method == "theta":
        grid = make_grid(x, n=args.grid_n, pad_fraction=args.pad)
        t = _select_t(x, selector, t_fixed, args)
        t_unit = t / grid.range ** 2
        centers = grid.to_unit(x[rng.integers(0, x.size, size=args.count)])
        draws = np.array([theta_sample(c, t_unit, rng) for c in centers])
        draws = grid.lo + draws * grid.range
    elif args.method == "euler":
        if selector == "fixed":
            pilot = build_pilot(x, args.alpha, n=args.grid_n)
            t = t_fixed
        else:
            sol, report = diffusion_pipeline(x, alpha=args.alpha, n=args.grid_n)
            pilot, t = sol.pilot, report.t_star
        draws = euler_sample(x, pilot, t, n_steps=args.steps, count=args.count,
                             rng=rng)
    else:
        raise ValueError(f"unknown sampler {args.method!r}")
    with open(args.output, "w") as fh:
        for d in draws:
            fh.write(f"{float(d)!r}\n")
    return 0


def cmd_benchmark(args) -> int:
    cases = list(testbed.registry()) if args.case == "all" else [args.case]
    for case in cases:
        result = testbed.run_benchmark(case, args.n, args.trials,
                                       args.method_a, args.method_b, args.seed)
        stem = f"{args.output}/{case}_N{args.n}" if args.output else f"{case}_N{args.n}"
        testbed.benchmark_to_csv(result, stem + ".csv")
        testbed.benchmark_to_json(result, stem + ".json")
        print(f"{case}: median ratio {result.ratio_median:.3f} "
              f"(mean {result.ratio_mean:.3f}, {len(result.pairs)} trials)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="diffkde",
                                description="density estimation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, io=True):
        if io:
            sp.add_argument("--input", required=True)
            sp.add_argument("--output", required=True)
        sp.add_argument("--selector", default="isj",
                        help="isj | sj | lscv | fixed:t")
        sp.add_argument("--grid-n", type=int, default=2 ** 14)
        sp.add_argument("--grid-n-2d", type=int, default=2 ** 8)
        sp.add_argument("--pad", type=float, default=0.1)
        sp.add_argument("--alpha", type=float, default=1.0)
        sp.add_argument("--dims", type=int, choices=(1, 2), default=1)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("bandwidth", help="write a bandwidth report (JSON)")
    common(sp)
    sp.set_defaults(func=cmd_bandwidth)

    sp = sub.add_parser("density", help="write density values on a grid (CSV)")
    common(sp)
    sp.add_argument("--method", default="gauss",
                    help="gauss | theta | diffusion | abramson | sinc | hallpark")
    sp.add_argument("--mask", default=None, help="CSV 0/1 mask (dims=2 only)")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("sample", help="draw from an estimated density")
    common(sp)
    sp.add_argument("--method", default="theta", help="theta | euler")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--steps", type=int, default=100)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("benchmark", help="run ISE comparisons")
    common(sp, io=False)
    sp.add_argument("--case", required=True, help="registry case name or 'all'")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--method-a", default="isj")
    sp.add_argument("--method-b", default="sj")
    sp.add_argument("--output", default=None, help="output directory")
    sp.set_defaults(func=cmd_benchmark)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.dims == 2 and getattr(args, "mask", None) and args.command != "density":
            raise ValueError("--mask is only valid with the density subcommand")
        if getattr(args, "mask", None) and args.dims != 2:
            raise ValueError("--mask requires --dims 2")
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
