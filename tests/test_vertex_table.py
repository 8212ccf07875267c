"""The polygon's integer vertex table: the same integers and mirrors as
its Points, int64 exactly when every value is below 2**53, the same
results as gathers that read each Point's attributes, and no Point
attribute read by the complexity sweep."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ruledpoly.complexity as complexity
from ruledpoly import (
    Direction,
    FamilyParams,
    Point,
    Polygon,
    PolygonError,
    brute_force_complexity,
    dump_polygon,
    is_generic,
    load_polygon,
    lower_bound_polygon,
    parallel_reeb_complexity,
    reeb_graph,
    reeb_to_dict,
)

EXACT_FLOAT = 2 ** 53


def point_integer_lanes(pts, lanes):
    """The gather of integers before the vertex table: (X, Y, D) of
    pts[i] for every i of lanes, read from each Point, as the rows of an
    object array."""
    sel = [pts[i] for i in lanes.tolist()]
    out = np.empty((3, len(sel)), dtype=object)
    out[0], out[1], out[2] = [p.X for p in sel], [p.Y for p in sel], [p.D for p in sel]
    return out


class PointTable:
    """A stand-in for a polygon's vertex table whose every gather reads
    the Points' attributes (point_integer_lanes)."""

    def __init__(self, pts):
        self.pts = pts

    def __getitem__(self, key):
        rows, lanes = key
        assert rows == slice(None)
        lanes = np.arange(len(self.pts))[lanes]
        if lanes.ndim == 0:  # one vertex: its column
            return point_integer_lanes(self.pts, lanes.reshape(1))[:, 0]
        return point_integer_lanes(self.pts, lanes)

    def __iter__(self):
        return iter(self[:, :])

    def tolist(self):
        return self[:, :].tolist()


def points(P: Polygon) -> list[Point]:
    """P's Points, made at its public edge, in global vertex order."""
    return [p for ring in P.rings for p in ring]


def reference(P: Polygon) -> Polygon:
    """P rebuilt, with its vertex table replaced by a PointTable."""
    R = Polygon(P.outer, P.holes)
    R._ints = PointTable(points(R))
    return R


def check_table(P: Polygon) -> None:
    """P's table and mirrors are those of Points built anew from P's
    exact coordinates: canonical integers, correctly rounded mirrors."""
    pts = [Point(p.x, p.y) for p in points(P)]
    want = [[p.X for p in pts], [p.Y for p in pts], [p.D for p in pts]]
    assert P._ints.shape == (3, P.n)
    assert P._ints.tolist() == want
    small = all(-EXACT_FLOAT < v < EXACT_FLOAT for row in want for v in row)
    assert P._ints.dtype == (np.int64 if small else object)
    assert P._coords[:, 0].tobytes() == np.array([p.xf for p in pts]).tobytes()
    assert P._coords[:, 1].tobytes() == np.array([p.yf for p in pts]).tobytes()


def check_outputs(P: Polygon, oracle: bool) -> None:
    R = reference(P)
    res = parallel_reeb_complexity(P)
    assert res.as_dict() == parallel_reeb_complexity(R).as_dict()
    assert reeb_to_dict(reeb_graph(P, res.witness)) == reeb_to_dict(reeb_graph(R, res.witness))
    if oracle:
        assert brute_force_complexity(P).as_dict() == brute_force_complexity(R).as_dict()


SCALES = [Fraction(1), Fraction(1, 3), Fraction(1, 10 ** 400), Fraction(10 ** 300)]
# two holes inside the disk of radius 5 that every outer ring below contains
HOLES = [[(-3, -1), (-1, -1), (-1, 1), (-3, 1)], [(1, -2), (3, -2), (2, 1)]]


def with_extras(ring, draw):
    """The ring with some vertices repeated and some edge midpoints inserted."""
    out = []
    for i, (x, y) in enumerate(ring):
        out.append((Fraction(x), Fraction(y)))
        extra = draw(st.sampled_from(["none", "none", "duplicate", "midpoint"]))
        if extra == "duplicate":
            out.append(out[-1])
        elif extra == "midpoint":
            nx, ny = ring[(i + 1) % len(ring)]
            out.append((Fraction(x + nx, 2), Fraction(y + ny, 2)))
    return out


@st.composite
def rings(draw):
    """A star-shaped outer ring on small integers with 0 to 2 holes,
    duplicates and collinear midpoints, at one of SCALES."""
    m = draw(st.integers(6, 9))
    outer = []
    for i in range(m):
        t = 2 * math.pi * (i + draw(st.sampled_from([0.0, 0.2, 0.4]))) / m
        r = draw(st.sampled_from([6, 7, 9]))
        outer.append((round(r * math.cos(t)), round(r * math.sin(t))))
    holes = HOLES[:draw(st.integers(0, 2))]
    s = draw(st.sampled_from(SCALES))
    scaled = [[(x * s, y * s) for x, y in with_extras(ring, draw)] for ring in [outer] + holes]
    try:
        return Polygon(scaled[0], scaled[1:])
    except PolygonError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(rings())
def test_table_matches_points_on_rings(P):
    """Merged and oriented rings at scales 1, 1/3, 1e-400 and 1e300."""
    check_table(P)
    check_outputs(P, oracle=True)


def point_generic_witness(P, lo, hi):
    """complexity._generic_witness with its perturbation bound taken over
    the Points' attributes, as before the vertex table."""
    a, b = complexity._simplest_in_arc(lo, hi)
    w = Direction(a, b)
    if is_generic(P, w):
        return w
    pts = points(P)
    top = max(p.D for p in pts)
    second = max((p.D for p in pts if p.D != top), default=1)
    diff = 2 * max(max(abs(p.X), abs(p.Y)) * (second if p.D == top else top) for p in pts)
    q = 1 + (abs(a) + abs(b)) * max(diff, abs(lo[0]) + abs(lo[1]), abs(hi[0]) + abs(hi[1]))
    return Direction(q * a - b, q * b + a)


# narrow arcs about the slopes 0, 1 and 2, whose simplest directions
# (1, 0), (1, 1) and (1, 2) tie two heights of many rings on small integers
ARCS = [((1000, -1), (1000, 1)), ((1001, 1000), (1000, 1001)), ((1000, 1999), (1000, 2001))]


@settings(max_examples=60, deadline=None)
@given(rings())
def test_perturbation_bound_matches_points(P):
    """The witness's perturbation, its bound now taken as array maxima of
    the table, is the one taken over the Points."""
    for lo, hi in ARCS:
        want = point_generic_witness(P, lo, hi)
        assert complexity._generic_witness(P, lo, hi).canonical_pair() == want.canonical_pair()


@pytest.mark.parametrize("spikes, r1", [(7, 4), (12, 4), (7, 10 ** 7), (12, 10 ** 7)])
def test_table_matches_points_on_stars(spikes, r1):
    """Stars built from integer arrays: int64 at r1 = 4, Python ints at
    r1 = 10**7, whose scaled coordinates pass 2**53."""
    P = lower_bound_polygon(FamilyParams(spikes, r1=r1))
    check_table(P)
    assert P._ints.dtype == (np.int64 if r1 == 4 else object)
    check_outputs(P, oracle=True)


def test_complexity_reads_no_point_attribute(monkeypatch):
    """parallel_reeb_complexity on the 20 000-vertex star reads every
    integer from the vertex table: no Point's X, Y or D."""
    P = lower_bound_polygon(FamilyParams(10_000))
    reads = 0

    def counting(name):
        slot = getattr(Point, name)

        def get(p):
            nonlocal reads
            reads += 1
            return slot.__get__(p, Point)

        return property(get, slot.__set__)

    for name in ("X", "Y", "D"):
        monkeypatch.setattr(Point, name, counting(name))
    P.vertex(0).X  # the counter counts
    assert reads == 1
    res = parallel_reeb_complexity(P)
    assert reads == 1
    assert (res.min_leaves, res.as_dict()["witness"]) == (9998, [-1, 9550])


def test_cli_path_makes_no_point(monkeypatch):
    """The CLI's calls on the 20 000-vertex star's document, load_polygon,
    parallel_reeb_complexity, reeb_graph at the witness and reeb_to_dict,
    make no Point: the vertex table is the polygon's only per-vertex
    store, and Points are made at the public edge alone."""
    text = dump_polygon(lower_bound_polygon(FamilyParams(10_000)))
    made = 0
    slot = Point.X  # every way of making a Point sets its X once

    def made_one(p, value):
        nonlocal made
        made += 1
        slot.__set__(p, value)

    # Point's own __new__ cannot be patched away and back on CPython
    monkeypatch.setattr(Point, "X", property(slot.__get__, made_one))
    P = load_polygon(text)
    res = parallel_reeb_complexity(P)
    out = reeb_to_dict(reeb_graph(P, res.witness))
    assert made == 0
    assert out["l"] == res.min_leaves == 9998
    P.vertex(0)  # the counter counts
    assert made == 1
