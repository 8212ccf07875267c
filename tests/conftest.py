"""Shared fixtures: canonical polygons, a recorder of point-location
comparisons and the acceptance report hook."""

import bisect
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import pytest

import ruledpoly.geometry as geometry
from ruledpoly import (
    FamilyParams,
    Polygon,
    annulus_polygon,
    comb_polygon,
    is_generic,
    lower_bound_polygon,
)

# acceptance tests append (criterion number, line) here; the terminal
# summary hook prints one line per criterion after the run
CRITERION_LINES: list[tuple[int, str]] = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    CRITERION_LINES.append((num, f"criterion {num}: {status} - {detail}"))


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for _, line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def square():
    return Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def l_poly():
    return Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


@pytest.fixture
def annulus():
    return annulus_polygon(10, 4)


@pytest.fixture
def comb4():
    return comb_polygon(4)


@pytest.fixture
def star7():
    return lower_bound_polygon(FamilyParams(7))


def xyd(p):
    """A Point's integers (X, Y, D): the form in which orient_sign and
    exact_delta take a point."""
    return p.X, p.Y, p.D


def point_table(pts):
    """The vertex table and mirrors (geometry._table) of a list of Points."""
    return geometry._table([p.X for p in pts], [p.Y for p in pts], [p.D for p in pts])


def nudge_generic(P: Polygon, dx, dy, budget: int = 64):
    """Perturb (dx, dy) by dyadic steps until the direction is generic.

    Deterministic: tries the direction itself, then offsets the first
    component by +1/2, +1/4, ... of the second component's magnitude.
    """
    from ruledpoly import Direction

    dx = Fraction(dx)
    dy = Fraction(dy)
    cand = Direction(dx, dy)
    if is_generic(P, cand):
        return cand
    mag = abs(dy) if dy else abs(dx)
    for j in range(1, budget):
        step = mag / (1 << j)
        for s in (step, -step):
            if dy:
                cand = Direction(dx + s, dy)
            else:
                cand = Direction(dx, dy + s)
            if is_generic(P, cand):
                return cand
    raise RuntimeError("no generic direction near the requested one")


@contextmanager
def recorded_comparisons():
    """Record every comparison of _Status.locate, in both sweeps, as
    (status, v, t, value): rel's value for edge t and the index v of the
    vertex being located. The comparisons run unchanged; only the key that the status
    bisects with is wrapped."""
    seen = []
    locating = []
    locate = geometry._Status.locate

    def spy_locate(self, v):
        locating[:] = [self, v]
        return locate(self, v)

    def spy_bisect(a, x, lo=0, hi=None, *, key=None):
        if key is None:
            return bisect.bisect_left(a, x, lo, hi)

        def keyed(item):  # a block is compared by its last edge
            value = key(item)
            seen.append((*locating, item[-1] if isinstance(item, list) else item, value))
            return value

        return bisect.bisect_left(a, x, lo, hi, key=keyed)

    with patch.object(geometry._Status, "locate", spy_locate), \
            patch.object(geometry, "bisect_left", spy_bisect):
        yield seen
