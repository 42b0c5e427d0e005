"""Command-line front end: bandwidth selection, density estimation,
sampling, and ISE benchmarks, all file-in/file-out and deterministic
under a seed.

Exit codes: 0 success, 2 usage or input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys

import numpy as np

from . import testbed
from .bandwidth import isj_select, sj_normal_ref_select
from .comparators import abramson_estimate, hall_park_estimate, lscv_select, sinc_kde
from .diffusion import build_pilot, diffusion_pipeline, euler_sample, solve_diffusion
from .grids import bin_linear, integrate, make_grid
from .kde1d import gauss_kde_spectral, theta_sample
from .kde2d import (
    DomainMask,
    bin_linear_2d,
    gauss_kde_2d,
    integrate_2d,
    isj2d_select,
    make_grid_2d,
    normal_ref_2d_select,
    solve_heat_masked,
)


# What _read_sample parses in one call: once its comment lines are dropped,
# the file holds only numbers, blanks and commas.
_COMMENT_LINE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)
_NUMERIC_TEXT = re.compile(r"[0-9eE+\-. \t\n,]*")


def _read_sample(path: str, dims: int) -> np.ndarray:
    """The sample in a UTF-8 text file of ``dims`` numbers a line, split by
    blanks or commas; blank lines and lines starting with # are skipped,
    and so is a byte-order mark at its start.

    A file of numbers alone is parsed in one ``np.loadtxt`` call, split on
    commas if it holds any and on blanks if not.  Every other file, and
    one that call refuses, goes through :func:`_read_lines`, which accepts
    the same files and raises the error that names the offending line.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return _read_lines(path, dims)
    body = _COMMENT_LINE.sub("", text) if "#" in text else text
    if body.strip() and _NUMERIC_TEXT.fullmatch(body):
        try:
            a = np.loadtxt(io.StringIO(body), delimiter="," if "," in body else None,
                           ndmin=2, comments=None)
        except ValueError:
            a = None
        if a is not None and a.shape[1] == dims:
            return a[:, 0] if dims == 1 else a
    return _read_lines(path, dims)


def _read_lines(path: str, dims: int) -> np.ndarray:
    """:func:`_read_sample` one line at a time."""
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
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
    if not rows:
        raise ValueError("empty sample")
    a = np.asarray(rows, dtype=float)
    return a[:, 0] if dims == 1 else a


_LSCV_METHODS = ("abramson", "sinc", "hallpark")


def _resolve(args):
    """The selector --selector names, or the method's own when it is not
    given (lscv for the LSCV-based comparators, isj otherwise), checked
    against what the method and --dims can use: (name, T), T the time of
    fixed:T and None for the other selectors.  A combination the method
    cannot use is an input error; no other selector is substituted."""
    method = getattr(args, "method", None)
    spec = args.selector or ("lscv" if method in _LSCV_METHODS else "isj")
    name, _, value = spec.partition(":")
    name += ":T" if value else ""
    usable = (["isj", "fixed:T"] if method in ("diffusion", "euler") else
              ["isj", "sj", "fixed:T"] if args.dims == 2 else ["isj", "sj", "lscv", "fixed:T"])
    if name not in usable:
        where = f"{args.command}{f' --method {method}' if method else ''} --dims {args.dims}"
        raise ValueError(f"selector {spec!r} is not available for {where}; "
                         f"use one of {', '.join(usable)}")
    try:
        t = float(value) if value else None
    except ValueError:
        t = float("nan")
    if t is not None and not 0 < t < float("inf"):
        raise ValueError(f"selector {spec!r}: fixed:T requires a number T > 0")
    return name, t


def _histogram(x, args):
    """The command's grid for the sample, --grid-n (1D) or --grid-n-2d (2D)
    nodes at --pad, and a function that returns the one histogram of the
    sample on it.  Selector, smoother, pilot and pipeline all read that
    histogram; it bins on the first call, so a command that reads none
    bins nothing, and its moments are taken once, by the first reader."""
    if args.dims == 2:
        grid = make_grid_2d(x, args.grid_n_2d, args.pad)
        return grid, functools.cache(lambda: bin_linear_2d(x, grid))
    grid = make_grid(x, args.grid_n, args.pad)
    return grid, functools.cache(lambda: bin_linear(x, grid))


def _select(x, binned, args):
    """Run the resolved selector on the sample ``x``, binned by
    ``binned()``: (t, report), t the data-scale squared bandwidth in 1D and
    the (t_x1, t_x2) pair in 2D, report the fields of the bandwidth JSON."""
    name, t = _resolve(args)
    if name == "fixed:T":
        if args.dims == 2:
            return (t, t), {"t_x1": t, "t_x2": t, "method": "fixed"}
        return t, {"t_star": t, "method": "fixed"}
    if args.dims == 2:
        sel = isj2d_select if name == "isj" else normal_ref_2d_select
        t_star, t1, t2, report = sel(binned())
        return (t1, t2), {"t_star_unit": t_star, "t_x1": t1, "t_x2": t2,
                          "iterations": report.iterations, "converged": report.converged,
                          "method": report.method, "pad_fraction": args.pad}
    if name == "lscv":
        res = lscv_select(x)
        return res.t, {"t_star": res.t, "method": "lscv", "degenerate": res.degenerate}
    sel = isj_select if name == "isj" else sj_normal_ref_select
    report = sel(binned())
    return report.t_star, {
        "t_star": report.t_star, "t2_star": report.t2_star,
        "iterations": report.iterations, "converged": report.converged,
        "method": report.method, "low_sample": report.low_sample,
        "pad_fraction": args.pad,
        "functional_norms": {str(k): v for k, v in report.functional_norms.items()}}


def _adaptive(binned, args):
    """Adaptive diffusion on the grid of the histogram ``binned()``: the
    whole pipeline under isj; under fixed:T, the plug-in pilot and a solve
    to time T."""
    name, t = _resolve(args)
    if name == "isj":
        return diffusion_pipeline(binned(), alpha=args.alpha)[0]
    return solve_diffusion(binned(), build_pilot(binned(), args.alpha), t)


def _write_csv(path, integral, values, *axes):
    """An integral header line, then one row per node of the product grid
    of ``axes`` (one or two node arrays, the first slowest): its
    coordinates, then its entry of ``values``.  Each number's repr is taken
    once, and the rows are joined one run of the last axis at a time."""
    last = [repr(x) + "," for x in axes[-1].tolist()]
    lead = [repr(x) + "," for x in axes[0].tolist()] if len(axes) == 2 else [""]
    vals = list(map(repr, np.ravel(values).tolist()))
    n = len(last)
    runs = ("".join([p + q + v + "\n" for q, v in zip(last, vals[i * n:(i + 1) * n])])
            for i, p in enumerate(lead))
    with open(path, "w") as fh:
        fh.write(f"# integral={integral!r}\n" + "".join(runs))


def cmd_bandwidth(args) -> int:
    x = _read_sample(args.input, args.dims)
    _, doc = _select(x, _histogram(x, args)[1], args)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def cmd_density(args) -> int:
    x = _read_sample(args.input, args.dims)
    grid, binned = _histogram(x, args)
    if args.dims == 2:
        tt, _ = _select(x, binned, args)
        if args.mask is None:
            est = gauss_kde_2d(binned(), tt)
        else:
            mask = DomainMask(grid, np.loadtxt(args.mask, delimiter=",").astype(bool))
            est = solve_heat_masked(binned(), mask, tt)
        _write_csv(args.output, integrate_2d(est.values, grid), est.values,
                   grid.x1.nodes, grid.x2.nodes)
        return 0
    if args.method == "diffusion":
        vals = _adaptive(binned, args).estimate.values
    else:
        t, _ = _select(x, binned, args)
        if args.method in ("gauss", "theta"):
            vals = gauss_kde_spectral(binned(), t).values
        elif args.method == "abramson":
            vals = abramson_estimate(x, grid, t)
        elif args.method == "sinc":
            vals = sinc_kde(x, grid, t)
        else:
            vals = hall_park_estimate(x, grid.nodes, t, beta=float(x.max()))
    _write_csv(args.output, integrate(vals, grid), vals, grid.nodes)
    return 0


def cmd_sample(args) -> int:
    if args.count <= 0:
        raise ValueError("count must be positive")
    x = _read_sample(args.input, 1)
    rng = np.random.default_rng(args.seed)
    grid, binned = _histogram(x, args)
    if args.method == "theta":
        t, _ = _select(x, binned, args)
        centers = grid.to_unit(x[rng.integers(0, x.size, size=args.count)])
        draws = grid.lo + theta_sample(centers, t / grid.range ** 2, rng) * grid.range
    else:
        sol = _adaptive(binned, args)
        draws = euler_sample(x, sol.pilot, sol.estimate.t, n_steps=args.steps,
                             count=args.count, rng=rng)
    with open(args.output, "w") as fh:
        fh.writelines(f"{d!r}\n" for d in draws.tolist())
    return 0


def cmd_benchmark(args) -> int:
    cases = list(testbed.registry()) if args.case == "all" else [args.case]
    stems = [f"{args.output}/{c}_N{args.n}" if args.output else f"{c}_N{args.n}" for c in cases]
    testbed._benchmark_target(cases[0], args.trials, args.method_a, args.method_b)
    folder = os.path.dirname(stems[0]) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        open(stems[0] + ".csv", "w").close()  # the error writing would raise, before any trial
    for case, stem in zip(cases, stems):
        result = testbed.run_benchmark(case, args.n, args.trials,
                                       args.method_a, args.method_b, args.seed)
        testbed.benchmark_to_csv(result, stem + ".csv")
        testbed.benchmark_to_json(result, stem + ".json")
        print(f"{case}: median ratio {result.ratio_median:.3f} "
              f"(mean {result.ratio_mean:.3f}, {len(result.pairs)} trials, "
              f"{len(result.failures)} failed)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="diffkde",
                                description="density estimation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True)
        sp.add_argument("--output", required=True)
        sp.add_argument("--selector", default=None,
                        help="isj | sj | lscv | fixed:T (default: the method's own)")
        sp.add_argument("--grid-n", type=int, default=2 ** 14,
                        help="1D grid nodes of the selector, smoother, pilot and output "
                             "(lscv bins on its own 2^14 nodes with 10%% padding)")
        sp.add_argument("--grid-n-2d", type=int, default=2 ** 8,
                        help="2D grid nodes per axis of the selector and the estimate")
        sp.add_argument("--pad", type=float, default=0.1,
                        help="padding of each grid end as a fraction of the data range, "
                             "1D and 2D (lscv keeps its own 10%%)")

    sp = sub.add_parser("bandwidth", help="write a bandwidth report (JSON)")
    common(sp)
    sp.add_argument("--dims", type=int, choices=(1, 2), default=1)
    sp.set_defaults(func=cmd_bandwidth)

    sp = sub.add_parser("density", help="write density values on a grid (CSV)")
    common(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--dims", type=int, choices=(1, 2), default=1)
    sp.add_argument("--method", default="gauss", choices=(
        "gauss", "theta", "diffusion") + _LSCV_METHODS)
    sp.add_argument("--mask", default=None, help="CSV 0/1 mask (dims=2 only)")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("sample", help="draw from an estimated density")
    common(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--method", default="theta", choices=("theta", "euler"))
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--steps", type=int, default=100)
    sp.set_defaults(func=cmd_sample, dims=1)

    sp = sub.add_parser("benchmark", help="run ISE comparisons")
    sp.add_argument("--seed", type=int, default=0)
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
        if getattr(args, "mask", None) and args.dims != 2:
            raise ValueError("--mask requires --dims 2")
        if getattr(args, "dims", 1) == 2 and getattr(args, "method", "gauss") != "gauss":
            raise ValueError(f"{args.command} --method {args.method} has no --dims 2 form")
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
