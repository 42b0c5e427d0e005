"""The package surface: ``import diffkde`` exports what the benchmark, the
demos, the README and a user call, its functions carry a bounded number of
defaulted parameters, and ``src/`` holds no function that only the tests
call.  Source files are read with ``ast``; nothing under bench/ or demos/ is
imported."""

import ast
import inspect
import re
import types
from pathlib import Path

import diffkde

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "diffkde"
MAX_EXPORTS = 33
MAX_DEFAULTED = 11  # defaulted parameters of exported functions


def _readme_trees():
    text = (ROOT / "README.md").read_text()
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, flags=re.S)]


def _trees(paths):
    return [ast.parse(p.read_text()) for p in paths]


def _imported_from_diffkde(tree):
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "diffkde"
            for a in node.names}


def _used_names(tree):
    """What a module reads: (names and imports, attributes)."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names, attrs


def _defined(tree):
    """(name, is_method) of each module-level function and of each method or
    property of a module's classes; a method is reached only as an attribute.
    Dunders (a class's ``__init__``, a module's ``__getattr__``) are left
    out: the interpreter calls them, not a name in a caller."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, True


def _exports():
    return {n for n in dir(diffkde)
            if not n.startswith("_") and not isinstance(getattr(diffkde, n), types.ModuleType)}


def test_export_count():
    assert len(_exports()) <= MAX_EXPORTS, sorted(_exports())


def test_defaulted_parameter_count():
    defaulted = [f"{n}({p.name})" for n in sorted(_exports())
                 if isinstance(getattr(diffkde, n), types.FunctionType)
                 for p in inspect.signature(getattr(diffkde, n)).parameters.values()
                 if p.default is not p.empty]
    assert len(defaulted) <= MAX_DEFAULTED, defaulted


def test_benchmark_names_are_exported():
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "D"}
    assert read and read <= _exports(), sorted(read - _exports())


def test_bench_demo_and_readme_imports_are_exported():
    trees = _trees([ROOT / "bench" / "test_bench.py", *sorted((ROOT / "demos").glob("*.py"))])
    trees += _readme_trees()
    imported = set().union(*map(_imported_from_diffkde, trees))
    assert imported and imported <= _exports(), sorted(imported - _exports())


def test_no_function_only_tests_call():
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]  # not its re-exports
    outside = _trees([*callers, *(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")])
    outside += _readme_trees()
    names, attrs = set(), set()
    for n, a in map(_used_names, outside):
        names |= n
        attrs |= a
    unused = sorted(name for tree in _trees(SRC.glob("*.py"))
                    for name, method in _defined(tree)
                    if name not in attrs and (method or name not in names))
    assert unused == []


def test_cli_imports_no_private_name():
    # the CLI is a layer over the public library: a grid is chosen by
    # binning on it, not through a private helper
    tree = ast.parse((SRC / "cli.py").read_text())
    private = sorted(a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.level or (node.module or "").split(".")[0] == "diffkde")
                     for a in node.names if a.name.startswith("_"))
    assert private == []
