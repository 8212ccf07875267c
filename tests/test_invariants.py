"""Guards that must survive `python -O`."""

import ast
from pathlib import Path

import ruledpoly

SOURCES = sorted(Path(ruledpoly.__file__).parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    """Invariants raise RuntimeError explicitly: `assert` vanishes under
    `python -O`, and a hand-raised AssertionError passes for one."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert found == []


def test_error_model_only_in_exactmath():
    """The float error model is written once: no module but exactmath
    imports its rounding constant U or a run-chaining helper of its own."""
    names = {"U", "overlap_runs"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "exactmath.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)
             or isinstance(node, ast.Attribute) and node.attr in names]
    assert found == []
