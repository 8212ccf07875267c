"""Guards that must survive `python -O`."""

import ast
from pathlib import Path

import ruledpoly

SOURCES = sorted(Path(ruledpoly.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    """Invariants raise explicitly: `assert` vanishes under `python -O`."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
