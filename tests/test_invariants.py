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


# the limb width of exactmath.cross_sign, its mask, its limit, and their names
LIMB_CONSTANTS = {27, 1 << 27, (1 << 27) - 1, 1 << 54}
LIMB_NAMES = {"_LIMB", "_LOW", "_LIMB_RANGE"}


def _limb_split(tree) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is int
            and node.value in LIMB_CONSTANTS
            or isinstance(node, ast.Name) and node.id in LIMB_NAMES
            or isinstance(node, ast.alias) and node.name in LIMB_NAMES
            or isinstance(node, ast.Attribute) and node.attr in LIMB_NAMES]


def test_limb_split_only_in_exactmath():
    """The 27-bit split of int64 operands is written once, in
    exactmath.cross_sign: no other module names a limb width, mask or
    limit, or exactmath's names for them."""
    exactmath = ast.parse((Path(ruledpoly.__file__).parent / "exactmath.py").read_text(
        encoding="utf-8"))
    assert _limb_split(exactmath)
    assert [f"{name}:{line}" for name, tree in _trees_outside("exactmath.py")
            for line in _limb_split(tree)] == []


def _is_delta_lanes(node) -> bool:
    """A call of delta_lanes, or an item or a slice of one."""
    call = node.value if isinstance(node, ast.Subscript) else node
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "delta_lanes")


def test_delta_rows_multiplied_only_in_exactmath():
    """Rows of delta_lanes, int64 on a grid table, where numpy would wrap
    a product past 2^63 without a word, are multiplied only in exactmath:
    every other module decides them through cross_sign or by their signs.
    A row is a delta_lanes call, an item of one, or a name bound to one."""
    found = []
    for name, tree in _trees_outside("exactmath.py"):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            rows = {t.id for node in ast.walk(fn)
                    if isinstance(node, ast.Assign) and _is_delta_lanes(node.value)
                    for target in node.targets for t in ast.walk(target)
                    if isinstance(t, ast.Name)}
            found += [f"{name}:{node.lineno}" for node in ast.walk(fn)
                      if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                      and any(isinstance(side, ast.Name) and side.id in rows
                              or _is_delta_lanes(side) for side in (node.left, node.right))]
    assert found == []
