"""diffkde benchmark: one closed-loop caller, seeded inputs, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload plugin_1d --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
untraced, traced, then untraced again, and prints the per-layer metrics
and the tracing overhead.  The last stdout line is one JSON object.  The
program is imported from ``src/`` of the checkout; nothing is installed.

End-to-end metrics (BENCHMARK.json lists bounds):

- setup_s: median wall time of ``import diffkde, diffkde.cli`` in fresh
  interpreters.
- ops_per_s: operations that passed every check, per second spent inside
  operations (input generation and checks are not timed).
- op_p50_s, op_p90_s: latency of all attempted operations.
  These three are computed per pass and reported as the median over passes.
- passed_frac: passed / attempted; documented defects count as failed here.
- ise_gmean: geometric mean of the integrated squared error against the
  true density, over operations that returned a density.
- oracle_rel_err: geometric mean over operations of the largest relative
  deviation of a Gaussian estimate from the benchmark's own direct sum at
  ten fixed interior nodes.
- peak_rss_mb: peak resident memory of this process.

The two accuracy metrics come from the first pass, whose inputs are drawn
from a fixed reference stream in every run: their spread across data draws
(LSCV alone moves an ISE by 10x) would otherwise hide a real change.
Timing covers every pass; passes after the first draw from ``--seed``.

The JSON ``failed`` count is operations that failed other than by a
documented defect (see ``Op.known``); such a failure sets ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# one caller on a shared 2-core machine: keep native libraries single-threaded
# (set before numpy loads them)
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import layers  # noqa: E402
from checks import Outcome  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
REFERENCE_KEY = 10112602  # seeds the reference pass, independent of --seed
IMPORT = "import diffkde, diffkde.cli"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("plugin_1d", "adaptive_1d", "domain_2d", "cli_compare"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up sample, for the benchmark's tests")
    return p.parse_args(argv)


def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds(samples: int) -> list:
    """Import time of the package, each in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"
    out = []
    for _ in range(samples):
        r = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=True)
        out.append(float(r.stdout))
    return out


def import_times() -> dict:
    """Cumulative import time of scipy.optimize and scipy.stats (-X importtime)."""
    r = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT], env=_child_env(),
                       cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    found = {}
    for line in r.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("scipy.optimize", "scipy.stats"):
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return found


@dataclass
class Record:
    label: str
    seconds: float
    outcome: Outcome
    known: str | None

    @property
    def failed(self):
        return self.outcome.reason is not None

    @property
    def unexpected(self):
        return self.failed and self.outcome.reason != self.known


def execute(op, tracer=None) -> Record:
    """Time op.run, then check its output with tracing off."""
    if op.writes and os.path.exists(op.writes):
        os.remove(op.writes)  # a check must never read an earlier call's output
    if tracer is not None:
        tracer.enabled = True
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        seconds = perf_counter() - t0
        outcome = Outcome(f"raised {type(exc).__name__}: {exc}")
    else:
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        try:
            outcome = op.check(out)
        except Exception as exc:  # an output the checks cannot read fails
            outcome = Outcome(f"check raised {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.enabled = False
    return Record(op.label, seconds, outcome, op.known)


def timed_passes(workload, seed: int, seconds: float):
    """Whole passes until the time inside operations reaches ``seconds``.

    Pass 0 draws its inputs from a fixed reference stream, the same in
    every run; later passes draw from ``seed``.  Returns the records of
    each pass.
    """
    passes, busy = [], 0.0
    while not passes or busy < seconds:
        k = len(passes)
        rng = np.random.default_rng([REFERENCE_KEY] if k == 0 else [seed, k])
        ops = workload.make_pass(rng)
        gc.collect()
        passes.append([execute(op) for op in ops])
        busy += sum(r.seconds for r in passes[-1])
    return passes


def end_to_end(passes, setup) -> dict:
    """Timing is a median over passes of each pass's figure: every pass runs
    the same mix, so the median drops a pass that a burst of load on the
    shared machine slowed.  Accuracy comes from the reference pass only, so
    that it compares program versions on identical inputs."""
    records = [r for p in passes for r in p]

    def over_passes(stat):
        return float(np.median([stat(np.array([r.seconds for r in p]), p) for p in passes]))

    ises = [r.outcome.ise for r in passes[0] if r.outcome.ise is not None]
    errs = [r.outcome.oracle for r in passes[0] if r.outcome.oracle is not None]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (over_passes(lambda s, p: sum(not r.failed for r in p) / s.sum()), "1/s"),
        "op_p50_s": (over_passes(lambda s, p: np.percentile(s, 50)), "s"),
        "op_p90_s": (over_passes(lambda s, p: np.percentile(s, 90)), "s"),
        "passed_frac": (sum(not r.failed for r in records) / len(records), "ratio"),
        "ise_gmean": (float(np.exp(np.mean(np.log(ises)))), "ISE"),
        "oracle_rel_err": (float(np.exp(np.mean(np.log(errs)))), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_pass(workload, seed: int, out_dir: Path, name: str):
    """One pass traced between two untraced runs of the same operations;
    the overhead is the traced time minus the mean untraced time."""
    ops = workload.make_pass(np.random.default_rng([seed, 0]))

    def untraced():
        gc.collect()
        return sum(execute(op).seconds for op in ops)

    plain = untraced()
    tracer = Tracer()
    layers.install(tracer)
    try:
        gc.collect()
        records, io_bytes = [], {"read": 0, "written": 0}
        for i, op in enumerate(ops):
            tracer.op = i
            records.append(execute(op, tracer))
            io_bytes["read"] += sum(os.path.getsize(p) for p in op.reads)
            if op.writes and os.path.exists(op.writes):
                io_bytes["written"] += os.path.getsize(op.writes)
    finally:
        tracer.uninstall()
    overhead = sum(r.seconds for r in records) - 0.5 * (plain + untraced())
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{name}-seed{seed}.jsonl")
    return records, layers.metrics(tracer, io_bytes, import_times(), overhead)


def report(name, workload, records, passes, metrics):
    """Human-readable lines ahead of the JSON result."""
    n = len(records)
    print(f"workload {name}: {workload.describe()}")
    print(f"{n} operations in {passes} pass(es), "
          f"{sum(r.seconds for r in records):.2f} s inside operations")
    per = n // passes
    beyond = per - int(np.ceil(0.9 * per))
    print(f"latency samples: {n} ({per} per pass, {beyond} beyond a pass's p90"
          + (")" if beyond >= 10 else ": p90 is not resolved to ten samples)"))
    by_label, first = {}, {}
    for r in records:
        by_label.setdefault(r.label, []).append(r.seconds)
        first.setdefault(r.label, r.outcome)
    for label, secs in by_label.items():
        ise = first[label].ise
        print(f"  {label}: median {statistics.median(secs):.4f} s over {len(secs)}"
              + ("" if ise is None else f"; ISE in the first pass {ise:.4g}"))
    reasons = {}
    for r in records:
        if r.failed:
            tag = "known defect" if not r.unexpected else "UNEXPECTED"
            key = f"[{tag}] {r.label}: {r.outcome.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    print(f"failed {sum(r.failed for r in records)}/{n} "
          f"(failed_frac {sum(r.failed for r in records) / n:.4f})")
    for key, count in sorted(reasons.items()):
        print(f"  {count} x {key}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "diffkde" / "__init__.py").is_file():
        print(f"error: no diffkde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(sizes, str(workdir))
        setup = [] if args.trace else setup_seconds(1 if args.smoke else SETUP_SAMPLES)
        # untimed warm-up: one small pass loads lazy imports and code paths
        warm = cls(workloads.SMOKE, str(workdir))
        for op in warm.make_pass(np.random.default_rng([args.seed, 2 ** 31])):
            execute(op)
        if args.trace:
            records, metrics = traced_pass(workload, args.seed, ROOT / ".bench_out",
                                           args.workload)
            passes = 1
        else:
            timed = timed_passes(workload, args.seed, args.seconds)
            records, passes = [r for p in timed for r in p], len(timed)
            metrics = end_to_end(timed, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, workload, records, passes, metrics)
    unexpected = sum(r.unexpected for r in records)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(records),
        "failed": unexpected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
