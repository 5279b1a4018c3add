"""Only graph_core.run_tasks puts work on the thread pool."""

from __future__ import annotations

import ast

import pytest

from .test_module_boundaries import MODULES


def functions_referring_to(source: str, name: str) -> list[str]:
    """The qualified name of the innermost function (``<module>`` outside
    any) around each ``name`` or ``x.name`` in ``source``."""
    found = []

    def visit(node: ast.AST, scope: list[str], function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
                qualified = ".".join(inner) if not isinstance(child, ast.ClassDef) else function
                visit(child, inner, qualified)
                continue
            if (isinstance(child, ast.Name) and child.id == name) or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                found.append(function)
            visit(child, scope, function)

    visit(ast.parse(source), [], "<module>")
    return found


def test_run_tasks_is_the_only_way_onto_the_pool():
    referring = {path.stem: functions_referring_to(path.read_text(encoding="utf-8"), "_submit_if_idle")
                 for path in MODULES}
    assert {module: functions for module, functions in referring.items() if functions} == {
        "graph_core": ["run_tasks"]}


@pytest.mark.parametrize("source, expected", [
    ("def run_tasks(tasks):\n    return _submit_if_idle(pull)", ["run_tasks"]),
    ("class A:\n    def product(self, x):\n        return [_submit_if_idle(b, x) for b in x]", ["A.product"]),
    ("def outer():\n    def inner():\n        graph_core._submit_if_idle(f)\n    return inner", ["outer.inner"]),
    ("submit = _submit_if_idle", ["<module>"]),
    ("def _submit_if_idle(fn):\n    return fn()", []),
])
def test_the_scan_names_the_functions_that_refer_to_a_name(source, expected):
    assert functions_referring_to(source, "_submit_if_idle") == expected
