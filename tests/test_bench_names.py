"""The benchmark's trace wraps diffkde functions by module and name; a
missing name breaks every traced run.  Read the list from bench/layers.py
without importing the benchmark and check each name exists."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _wrapped_names():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("no WRAPPED list in bench/layers.py")


def test_every_traced_name_is_a_module_attribute():
    names = _wrapped_names()
    assert names
    missing = [f"diffkde.{mod}.{attr}" for mod, attr in names
               if not hasattr(importlib.import_module(f"diffkde.{mod}"), attr)]
    assert missing == []
