"""The benchmark's cli_compare workload calls diffkde.cli.main with fixed
option lists.  Build one pass of it at the benchmark's smoke sizes and
check that every list still parses and runs: exit 0, or the exit of the
defect the benchmark documents for that call, and that it does so again
under the benchmark's tracer, whose observers read the arguments and
results of the calls they wrap."""

import sys
from pathlib import Path

import numpy as np
import pytest

from diffkde.cli import _build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def cli_ops(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    try:
        yield workloads.CliCompare(workloads.SMOKE, str(tmp_path)).make_pass(
            np.random.default_rng([5, 1]))
    finally:
        for name in ("workloads", "checks", "oracles", "layers", "tracing"):
            sys.modules.pop(name, None)


def test_every_cli_compare_option_list_parses_and_runs(cli_ops):
    argvs = [op.run.args[0] for op in cli_ops]
    sample = [argv for argv in argvs if argv[0] == "sample"]
    assert sample and {"--method", "--count", "--seed", "--grid-n",
                       "--grid-n-2d"} <= set(sample[0])
    for argv in argvs:
        _build_parser().parse_args(argv)
    for op in cli_ops:
        code, err = op.run()
        assert code == 0 or f"exit {code}: {err}" == op.known, (op.label, code, err)


def test_cli_compare_runs_under_the_tracer(cli_ops):
    import layers
    from tracing import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        tracer.enabled = True
        for op in cli_ops:
            code, err = op.run()
            assert code == 0 or f"exit {code}: {err}" == op.known, (op.label, code, err)
    finally:
        tracer.uninstall()
    assert tracer.calls("cli.main") == len(cli_ops)
