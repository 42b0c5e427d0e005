"""Import cost: every CLI call pays for the package import, so scipy stays
out of it, and a command loads only the scipy subpackages it runs.  These
tests bound what is loaded, not how long it takes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_LOADED = ("print(json.dumps(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules "
                "if m.split('.')[0] == 'scipy'})))")


def _scipy_loaded(code: str) -> list:
    """The scipy subpackages loaded (and 'scipy' itself) after running
    ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}\n{SCIPY_LOADED}"],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_import_loads_no_scipy():
    assert _scipy_loaded("import diffkde, diffkde.cli") == []


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    d = tmp_path_factory.mktemp("samples")
    rng = np.random.default_rng(27)
    (d / "x.txt").write_text("\n".join(map(repr, rng.normal(size=1000).tolist())) + "\n")
    (d / "p.csv").write_text("\n".join(f"{a!r},{b!r}" for a, b in
                                       rng.normal(size=(1000, 2)).tolist()) + "\n")
    return d


def _cli_loads(samples, *argv) -> list:
    args = [*argv, "--output", str(samples / "out")]
    return _scipy_loaded(f"from diffkde.cli import main\nassert main({args!r}) == 0")


@pytest.mark.parametrize("argv", [
    ["bandwidth", "--selector", "isj"],
    ["density", "--method", "gauss"],
])
def test_plugin_1d_commands_load_no_scipy(samples, argv):
    assert _cli_loads(samples, *argv, "--input", str(samples / "x.txt")) == []


@pytest.mark.parametrize("argv", [
    ["bandwidth", "--selector", "lscv"],
    ["density", "--method", "sinc"],
    ["density", "--method", "abramson"],
])
def test_lscv_commands_load_no_scipy(samples, argv):
    assert _cli_loads(samples, *argv, "--input", str(samples / "x.txt")) == []


def test_no_module_imports_scipy_optimize():
    # LSCV refines its minimum with its own score; scipy.optimize alone
    # would load 13 scipy subpackages
    found = []
    for path in sorted((SRC / "diffkde").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if f"{name}.".startswith("scipy.optimize.")]
    assert found == []


def test_free_space_2d_density_loads_no_scipy(samples):
    assert _cli_loads(samples, "density", "--dims", "2", "--input", str(samples / "p.csv")) == []


def test_diffusion_loads_linalg_alone(samples):
    loaded = _cli_loads(samples, "density", "--method", "diffusion",
                        "--input", str(samples / "x.txt"))
    assert "scipy.linalg" in loaded
    assert not {"scipy.sparse", "scipy.ndimage", "scipy.special"} & set(loaded)
