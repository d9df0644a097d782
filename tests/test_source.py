"""Static checks on the package source; they parse it and import nothing
from it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polymerlab"


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{path.name}:{line}: {name}" for path in modules
              for line, name in _unused_imports(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert not unused


def _imports_of(tree: ast.Module, module: str) -> list:
    """Lines of every import of `module` or a submodule of it, at module
    level or inside a function; relative imports are the package's own."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        lines += [node.lineno for name in names
                  if name.split(".")[0] == module]
    return lines


def _found(module: str) -> list:
    return [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _imports_of(
                ast.parse(path.read_text(encoding="utf-8")), module)]


def test_no_module_imports_scipy():
    # the package is numpy-only; scipy is a test oracle
    assert not _found("scipy")


def test_no_module_imports_warnings():
    # the package raises on bad input and reports a run's quality in its
    # output; it never warns
    assert not _found("warnings")


def test_only_dynamics_imports_concurrent_futures():
    # one pool: every thread the package starts comes from
    # dynamics.map_costliest_first
    found = _found("concurrent")
    assert found
    assert all(where.startswith("dynamics.py:") for where in found)


def test_the_guard_flags_a_lazy_scipy_import():
    tree = ast.parse("import numpy as np\n"
                     "def f(x):\n"
                     "    from scipy.special import erf\n"
                     "    import scipy.stats as st, os\n"
                     "    from . import scipy\n"
                     "    return erf(x)\n")
    assert _imports_of(tree, "scipy") == [3, 4]


def test_the_guard_flags_a_warnings_import():
    tree = ast.parse("import warnings\n"
                     "def f():\n"
                     "    from warnings import warn\n"
                     "    import os, warnings as w\n"
                     "    warn('x')\n")
    assert _imports_of(tree, "warnings") == [1, 3, 4]


def test_the_guard_flags_a_concurrent_import():
    tree = ast.parse("import concurrent.futures\n"
                     "def f(fn, items):\n"
                     "    from concurrent.futures import ThreadPoolExecutor\n"
                     "    from concurrent import futures as cf\n"
                     "    import threading\n"
                     "    with ThreadPoolExecutor() as pool:\n"
                     "        return list(pool.map(fn, items))\n")
    assert _imports_of(tree, "concurrent") == [1, 3, 4]


def test_the_guard_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from .spectral import Basis, Convention as C\n"
                     "def f(b: Basis):\n"
                     "    return os.path.join('a', 'b')\n")
    assert _unused_imports(tree) == [(3, "C")]
