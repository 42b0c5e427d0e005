"""Tests of the benchmark itself, on the tiny ``--smoke`` sizes.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import MASS_TOL_HEAT, Outcome, check_bandwidth  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def _gauss_on_grid():
    nodes = np.linspace(-8.0, 8.0, 2 ** 10)
    return nodes, np.exp(-0.5 * nodes ** 2) / np.sqrt(2.0 * np.pi)


def test_corrupted_outputs_count_as_failed():
    nodes, good = _gauss_on_grid()
    normal = oracles.Mixture1D(((1.0, 0.0, 1.0),))
    negative = good.copy()
    negative[100] = -1e-3

    def density_op(label, values):
        return workloads.Op(label, lambda: values,
                            lambda v: workloads._outcome_1d(nodes, v, normal))

    def bandwidth_op(label, doc, selector):
        return workloads.Op(label, lambda: doc,
                            lambda d: Outcome(check_bandwidth(d, selector)))

    ops = [
        density_op("good", good),
        density_op("mass 0.9", 0.9 * good),
        density_op("negative value", negative),
        bandwidth_op("matching selector", {"method": "isj", "t_star": 0.1}, "isj"),
        bandwidth_op("mismatched selector", {"method": "sj_normal_ref", "t_star": 0.1}, "lscv"),
    ]
    records = [run.execute(op) for op in ops]
    assert [r.failed for r in records] == [False, True, True, False, True]
    assert sum(r.unexpected for r in records) == 3
    assert "mass 0.9" in records[1].outcome.reason
    assert "negative" in records[2].outcome.reason
    assert "sj_normal_ref" in records[4].outcome.reason


def test_mass_tolerance_accepts_rounding_only():
    nodes, good = _gauss_on_grid()
    normal = oracles.Mixture1D(((1.0, 0.0, 1.0),))
    assert workloads._outcome_1d(nodes, good * (1 + 0.1 * MASS_TOL_HEAT), normal).reason is None
    assert workloads._outcome_1d(nodes, good * (1 + 10 * MASS_TOL_HEAT), normal).reason


def test_components_match_the_testbed_registry():
    from diffkde import registry

    reg = registry()
    for name, mix in oracles.MIXTURES.items():
        assert mix.components == tuple(tuple(map(float, c)) for c in reg[name].components)
        assert mix.log == reg[name].exp_transform


def test_windowed_direct_sum_matches_full_sum():
    y = np.random.default_rng(0).normal(size=3000)
    xs = np.linspace(-3.9, 0.5, 7)
    full = oracles.reflected_kernel(xs, y, 0.04, -4.0, 6.0).mean(axis=1)
    np.testing.assert_allclose(oracles.direct_kde_1d(xs, y, 0.04, -4.0, 6.0), full,
                               rtol=1e-12)
