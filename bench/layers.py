"""Per-layer metrics: which diffkde names the traced run wraps, and how the
spans and observed counters turn into the per-layer figures.

Layers are the package's modules.  ``.s`` is wall time inside a name
(nested calls of the same name counted once); ``cli.self_s`` and
``diffusion.solve_diffusion.s`` are self times (span minus children).
"""

from __future__ import annotations

import importlib

from tracing import Tracer, fingerprint

_MODULES = ("grids", "bandwidth", "kde1d", "kde2d", "diffusion",
            "comparators", "testbed", "cli")
LSCV_LADDER = 61  # log-ladder points of lscv_select, one N^2 kernel sum each


def _obs_cosine_moments(tr, args, kwargs, result):
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    tr.observed["cosine_moments.inputs"].append(fingerprint(args[0], axis))


def _obs_iterations(name):
    def observe(tr, args, kwargs, result):
        report = result[3] if isinstance(result, tuple) else result
        tr.observed[name].append(report.iterations)
    return observe


def _obs_solve_diffusion(tr, args, kwargs, result):
    stats = result.solver_stats
    tr.observed["diffusion.steps"].append(stats["steps"])
    tr.observed["diffusion.rejected"].append(stats["rejected"])
    tr.observed["diffusion.mass_err"].append(stats.get("mass_error", 0.0))


def _obs_masked(tr, args, kwargs, result):
    mask = kwargs.get("mask", args[1] if len(args) > 1 else None)
    tr.observed["kde2d.masked_nodes"].append(int(mask.inside.sum()))


def _obs_lscv(tr, args, kwargs, result):
    n = len(args[0] if args else kwargs["sample"])
    tr.observed["comparators.lscv_select.degenerate"].append(int(result.degenerate))
    tr.observed["comparators.kernel_evals"].append(n * n * LSCV_LADDER)


def _obs_kernel_sum(tr, args, kwargs, result):
    n = len(args[0] if args else kwargs["sample"])
    tr.observed["comparators.kernel_evals"].append(n * len(result))


# (module that defines the name, attribute, span name, observer, peak memory)
WRAPPED = [
    ("grids", "bin_linear", "grids.bin_linear", None, False),
    ("grids", "cosine_moments", "grids.cosine_moments", _obs_cosine_moments, False),
    ("grids", "cosine_synthesis", "grids.cosine_synthesis", None, False),
    ("bandwidth", "isj_select", "bandwidth.isj_select",
     _obs_iterations("bandwidth.isj_select.iterations"), False),
    ("bandwidth", "functional_norm", "bandwidth.functional_norm", None, False),
    ("kde1d", "gauss_kde_spectral", "kde1d.gauss_kde_spectral", None, False),
    ("kde1d", "theta_sample", "kde1d.theta_sample", None, False),
    ("diffusion", "solve_diffusion", "diffusion.solve_diffusion", _obs_solve_diffusion, False),
    ("diffusion", "solve_banded", "diffusion.solve_banded", None, False),
    ("diffusion", "lf_norm", "diffusion.lf_norm", None, False),
    ("diffusion", "build_pilot", "diffusion.build_pilot", None, False),
    ("diffusion", "euler_sample", "diffusion.euler_sample", None, False),
    ("kde2d", "isj2d_select", "kde2d.isj2d_select",
     _obs_iterations("kde2d.isj2d_select.iterations"), False),
    ("kde2d", "psi_hat", "kde2d.psi_hat", None, False),
    ("kde2d", "bin_linear_2d", "kde2d.bin_linear_2d", None, False),
    ("kde2d", "gauss_kde_2d", "kde2d.gauss_kde_2d", None, False),
    ("kde2d", "solve_heat_masked", "kde2d.solve_heat_masked", _obs_masked, False),
    ("kde2d", "splu", "kde2d.splu", None, False),
    ("comparators", "lscv_select", "comparators.lscv_select", _obs_lscv, True),
    ("comparators", "abramson_estimate", "comparators.abramson_estimate",
     _obs_kernel_sum, False),
    ("comparators", "sinc_kde", "comparators.sinc_kde", _obs_kernel_sum, False),
    ("comparators", "hall_park_estimate", "comparators.hall_park_estimate",
     _obs_kernel_sum, False),
    ("cli", "main", "cli.main", None, False),
]


def install(tracer: Tracer):
    """Wrap every name of WRAPPED in each diffkde namespace that holds it."""
    package = importlib.import_module("diffkde")
    mods = {m: importlib.import_module(f"diffkde.{m}") for m in _MODULES}
    for home, attr, name, observe, peak in WRAPPED:
        others = [package] + [m for k, m in mods.items() if k != home]
        tracer.wrap([mods[home]] + others, attr, name, observe, peak)


def metrics(tr: Tracer, io: dict, init: dict, overhead_s: float) -> dict:
    """The per-layer figures, each as (value, unit)."""
    obs = tr.observed
    cm_calls = tr.calls("grids.cosine_moments")
    distinct = len(set(obs["cosine_moments.inputs"]))
    solves = tr.calls("diffusion.solve_banded")
    steps, rejected = sum(obs["diffusion.steps"]), sum(obs["diffusion.rejected"])
    # each attempted step-doubling step makes three solves (one full step and
    # two half steps); a rejected attempt is discarded
    attempts = solves / 3.0
    s = tr.inclusive_s
    out = {
        "grids.cosine_moments.calls": (cm_calls, "count"),
        "grids.cosine_moments.s": (s("grids.cosine_moments"), "s"),
        "grids.cosine_moments.calls_per_sample": (cm_calls / distinct if distinct else 0.0,
                                                  "ratio"),
        "grids.bin_linear.s": (s("grids.bin_linear"), "s"),
        "grids.cosine_synthesis.s": (s("grids.cosine_synthesis"), "s"),
        "bandwidth.isj_select.s": (s("bandwidth.isj_select"), "s"),
        "bandwidth.isj_select.iterations": (sum(obs["bandwidth.isj_select.iterations"]),
                                            "count"),
        "bandwidth.functional_norm.calls": (tr.calls("bandwidth.functional_norm"), "count"),
        "kde1d.gauss_kde_spectral.s": (s("kde1d.gauss_kde_spectral"), "s"),
        "kde1d.theta_sample.calls": (tr.calls("kde1d.theta_sample"), "count"),
        "kde1d.theta_sample.s": (s("kde1d.theta_sample"), "s"),
        "diffusion.solve_diffusion.s": (tr.self_s("diffusion.solve_diffusion"), "s"),
        "diffusion.solve_banded.calls": (solves, "count"),
        "diffusion.steps": (steps, "count"),
        "diffusion.rejected": (rejected, "count"),
        "diffusion.step_accept_ratio": ((attempts - rejected) / attempts if attempts else 0.0,
                                        "ratio"),
        "diffusion.lf_norm.s": (s("diffusion.lf_norm"), "s"),
        "diffusion.build_pilot.s": (s("diffusion.build_pilot"), "s"),
        "diffusion.euler_sample.s": (s("diffusion.euler_sample"), "s"),
        "diffusion.mass_err_max": (max(obs["diffusion.mass_err"], default=0.0), "abs"),
        "kde2d.isj2d_select.s": (s("kde2d.isj2d_select"), "s"),
        "kde2d.isj2d_select.iterations": (sum(obs["kde2d.isj2d_select.iterations"]), "count"),
        "kde2d.psi_hat.calls": (tr.calls("kde2d.psi_hat"), "count"),
        "kde2d.bin_linear_2d.s": (s("kde2d.bin_linear_2d"), "s"),
        "kde2d.gauss_kde_2d.s": (s("kde2d.gauss_kde_2d"), "s"),
        "kde2d.solve_heat_masked.s": (s("kde2d.solve_heat_masked"), "s"),
        "kde2d.splu.calls": (tr.calls("kde2d.splu"), "count"),
        "kde2d.masked_nodes": (sum(obs["kde2d.masked_nodes"]), "count"),
        "comparators.lscv_select.s": (s("comparators.lscv_select"), "s"),
        "comparators.lscv_select.calls": (tr.calls("comparators.lscv_select"), "count"),
        "comparators.lscv_select.degenerate": (
            sum(obs["comparators.lscv_select.degenerate"]), "count"),
        "comparators.lscv_select.peak_mb": (
            max(obs["comparators.lscv_select.peak_b"], default=0) / 2 ** 20, "MB"),
        "comparators.abramson_estimate.s": (s("comparators.abramson_estimate"), "s"),
        "comparators.sinc_kde.s": (s("comparators.sinc_kde"), "s"),
        "comparators.hall_park_estimate.s": (s("comparators.hall_park_estimate"), "s"),
        # computed from input sizes (N^2 * ladder + N * nodes), not counted
        "comparators.kernel_evals": (sum(obs["comparators.kernel_evals"]), "count"),
        "cli.main.s": (s("cli.main"), "s"),
        "cli.self_s": (tr.self_s("cli.main"), "s"),
        "cli.bytes_read": (io.get("read", 0), "B"),
        "cli.bytes_written": (io.get("written", 0), "B"),
        "init.scipy_optimize_import_s": (init.get("scipy.optimize", 0.0), "s"),
        "init.scipy_stats_import_s": (init.get("scipy.stats", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (len(tr.spans), "count"),
    }
    return out
