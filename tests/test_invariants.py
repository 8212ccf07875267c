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


def _scan_calls(tree) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("index", "remove")]


# the validation sweep and every helper it is split into
SWEEP_HELPERS = ("_validate_rings", "_sweep", "_failed_check", "_contact_lanes", "_touching")


def test_sweeps_make_no_linear_scans():
    """The Reeb sweep and the validation sweep find known edges by their
    status handles: no list.index or list.remove, which scan the list."""
    package = Path(ruledpoly.__file__).parent
    reeb = ast.parse((package / "reeb.py").read_text(encoding="utf-8"))
    geometry = ast.parse((package / "geometry.py").read_text(encoding="utf-8"))
    helpers = {node.name: node for node in geometry.body
               if isinstance(node, ast.FunctionDef) and node.name in SWEEP_HELPERS}
    assert sorted(helpers) == sorted(SWEEP_HELPERS)
    assert _scan_calls(reeb) == []
    assert {name: _scan_calls(node) for name, node in helpers.items()} == {
        name: [] for name in SWEEP_HELPERS}


def _names(tree, name: str) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.alias) and node.name == name
            or isinstance(node, ast.Attribute) and node.attr == name]


def _orient_sign_calls(tree) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "orient_sign"]


def test_one_scalar_point_location():
    """Both planar sweeps locate a point through _Status.locate: reeb.py
    does not name orient_sign, and geometry.py calls it once, there, on
    the table's integers: locate names neither _points nor Point."""
    package = Path(ruledpoly.__file__).parent
    reeb = ast.parse((package / "reeb.py").read_text(encoding="utf-8"))
    geometry = ast.parse((package / "geometry.py").read_text(encoding="utf-8"))
    status = next(node for node in geometry.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Status")
    locate = next(node for node in status.body
                  if isinstance(node, ast.FunctionDef) and node.name == "locate")
    assert _names(reeb, "orient_sign") == []
    assert len(_orient_sign_calls(geometry)) == 1
    assert _orient_sign_calls(geometry) == _orient_sign_calls(locate)
    assert _names(locate, "_points") == _names(locate, "Point") == []


def _trees_outside(module: str):
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in SOURCES if path.name != module]


def test_chain_cut_only_in_exactmath():
    """The cut of a float-sorted chain is written once (exactmath.chain_cuts):
    no module but exactmath calls minimum.accumulate or maximum.accumulate."""
    found = [f"{name}:{node.lineno}" for name, tree in _trees_outside("exactmath.py")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "accumulate"
             and isinstance(node.value, ast.Attribute)
             and node.value.attr in ("minimum", "maximum")]
    assert found == []


def test_one_corner_sign_pass():
    """In geometry only the merge (_merge_ring) takes a ring's corner
    signs; _normalize_ring and Polygon read them from it."""
    geometry = ast.parse((Path(ruledpoly.__file__).parent / "geometry.py").read_text(
        encoding="utf-8"))
    callers = sorted({fn.name for fn in ast.walk(geometry) if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "_corner_signs"})
    assert callers == ["_merge_ring"]
