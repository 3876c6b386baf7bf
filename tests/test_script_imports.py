"""Every ``repro`` name the example and benchmark scripts use must exist.

``examples/`` and ``benchmarks/`` sit outside the collected test paths, so a
renamed or deleted library function would break them silently.  This parses
each script with :mod:`ast` (nothing in it runs) and resolves every
``from repro... import name`` and every ``<imported repro module>.<attr>``
chain against the real package.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*(REPO_ROOT / "examples").glob("*.py"), *(REPO_ROOT / "benchmarks").glob("*.py")])


def _is_repro(module_name: str) -> bool:
    return module_name == "repro" or module_name.startswith("repro.")


def _import(module_name: str):
    """The named module, or ``None`` when it does not exist."""
    try:
        return importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None


def _import_from(module_name: str, name: str):
    """``from module_name import name``, or ``None`` when it cannot resolve."""
    module = _import(module_name)
    if module is not None and hasattr(module, name):
        return getattr(module, name)
    return _import(f"{module_name}.{name}")


def _unresolved_names(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf8"), filename=str(path))
    modules = {}  # local name -> imported repro module object
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if not _is_repro(alias.name):
                    continue
                module = _import(alias.name)
                if module is None:
                    missing.append(f"line {node.lineno}: import {alias.name}")
                elif alias.asname:
                    modules[alias.asname] = module
                else:
                    modules["repro"] = _import("repro")
        elif isinstance(node, ast.ImportFrom) and node.module and _is_repro(node.module):
            for alias in node.names:
                value = _import_from(node.module, alias.name)
                if value is None:
                    missing.append(f"line {node.lineno}: from {node.module} import {alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        base = node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name) or base.id not in modules:
            continue
        value = modules[base.id]
        dotted = base.id
        for attr in reversed(chain):
            if not isinstance(value, types.ModuleType):
                break
            dotted = f"{dotted}.{attr}"
            if not hasattr(value, attr):
                missing.append(f"line {node.lineno}: {dotted}")
                break
            value = getattr(value, attr)
    return sorted(set(missing))


def test_scripts_found():
    names = {path.name for path in SCRIPTS}
    assert "quickstart.py" in names and "bench_fig4_gridworld_inference.py" in names


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[str(path.relative_to(REPO_ROOT)) for path in SCRIPTS]
)
def test_repro_names_resolve(script):
    missing = _unresolved_names(script)
    assert not missing, f"{script.relative_to(REPO_ROOT)} uses missing repro names: {missing}"
