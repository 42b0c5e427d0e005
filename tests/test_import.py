"""Import cost: every CLI call pays for the package import, so the heavy
scipy submodules must stay out of it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_out_scipy_stats_and_optimize():
    code = ("import json, sys, diffkde, diffkde.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize']))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert json.loads(out.stdout) == []
