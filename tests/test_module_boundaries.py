"""No module of the package reaches into another module's private names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "mlsgc"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))
MODULE_NAMES = {path.stem for path in MODULES} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _target(module: str | None, level: int) -> str | None:
    """The package module that ``from <dots><module>`` or ``import <module>``
    names, "" for the package itself, None for anything else."""
    if level == 1:
        name = module or ""
    elif level == 0 and module is not None and module.split(".")[0] == "mlsgc":
        name = module.partition(".")[2]
    else:
        return None
    return name if name == "" or name in MODULE_NAMES else None


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reaches(source: str, own: str) -> list[str]:
    """Every ``from .x import _name`` and ``x._name`` in ``source``, where x
    is a package module other than ``own``."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> the package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _target(node.module, node.level)
            for alias in node.names:
                if target == "" and alias.name in MODULE_NAMES:
                    modules[alias.asname or alias.name] = alias.name
                elif target and target != own and _private(alias.name):
                    found.append(f"from {target} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                target = _target(alias.name, 0)
                if target and alias.asname:
                    modules[alias.asname] = target
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            dotted = _dotted(node.value)
            target = modules[dotted] if dotted in modules else _target(dotted, 0)
            if target and target != own:
                found.append(f"{target}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_reaches_into_another_modules_private_names(path):
    assert private_reaches(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize("source", [
    "from .spectral import _DENSE_MAX_N",
    "from .spectral import kmeans, _assign as assign",
    "from mlsgc.graph_core import _canonical_csr",
    "from . import spectral\nspectral._lloyd(rows, centers, 10)",
    "from . import spectral as sp\nx = sp._DENSE_MAX_N",
    "from mlsgc import graph_core\ngraph_core._pieces(text)",
    "import mlsgc.mimosa as m\nm._Component",
    "import mlsgc.mimosa\nmlsgc.mimosa._component(graph, w)",
])
def test_the_scan_finds_private_reaches(source):
    assert private_reaches(source, "theory")


@pytest.mark.parametrize("source", [
    "from .theory import _helper",
    "from . import theory\ntheory._helper()",
    "from .spectral import kmeans\nself._cache = kmeans",
    "from .graph_core import AggregatedGraph\nx = g._components",
    "from .mimosa import __all__",
])
def test_the_scan_allows_own_and_public_names(source):
    assert private_reaches(source, "theory") == []
