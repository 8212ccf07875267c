"""Polygon construction against a reference built the earlier way: corner
signs from the integers of every corner, a merge loop that decides
one corner at a time in integers, each ring normalized on its own and
validated by the sequential sweep of test_validation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ruledpoly import (
    HolePlacementError,
    Point,
    Polygon,
    PolygonError,
    SelfIntersectionError,
    SlitVertexError,
    TooFewVerticesError,
)
from ruledpoly.exactmath import delta_lanes, exact_cross, exact_delta, static_cross_bound

from conftest import point_table, xyd
from test_validation import reference_sweep


def reference_corner_signs(pts):
    """Exact sign of cross(p - prev, next - p) at every corner p, from the
    integers of every corner as Python ints, with no float stage."""
    n, ints = len(pts), point_table(pts)[0]
    lanes = np.arange(n)
    ux, uy, _ = delta_lanes(ints, np.array(((lanes - 1) % n, lanes))).astype(object)
    wx, wy, _ = delta_lanes(ints, np.array((lanes, (lanes + 1) % n))).astype(object)
    return np.sign(exact_cross(ux, uy, wx, wy)).astype(np.int64)


def reference_merge(pts):
    """The scalar merge loop: one corner at a time, to a fixed point."""
    while True:
        n = len(pts)
        if n < 3:
            raise TooFewVerticesError(f"ring has {n} corners after merging")
        out = []
        changed = False
        for i in range(n):
            prv, p, nxt = pts[i - 1], pts[i], pts[(i + 1) % n]
            if p == nxt:
                changed = True
                continue
            if prv == p:
                out.append(p)
                changed = True
                continue
            d1x, d1y, _ = exact_delta(xyd(prv), xyd(p))
            d2x, d2y, _ = exact_delta(xyd(p), xyd(nxt))
            if exact_cross(d1x, d1y, d2x, d2y) == 0:
                if d1x * d2x + d1y * d2y > 0:
                    changed = True
                    continue
                raise SlitVertexError(f"edges double back at {p!r}")
            out.append(p)
        pts = out
        if not changed:
            return pts


def reference_normalize(pts, want):
    if len(pts) < 3:
        raise TooFewVerticesError(f"ring has {len(pts)} corners after merging")
    signs = reference_corner_signs(pts)
    if not signs.all():
        pts = reference_merge(pts)
        signs = reference_corner_signs(pts)
    least = min(range(len(pts)), key=lambda i: (pts[i].x, pts[i].y))
    if signs[least] != want:
        return pts[::-1], -signs[::-1]
    return pts, signs


def reference_polygon(outer, holes, validate):
    """What Polygon(outer, holes) holds, built ring by ring: its rings as
    integers, reflex mask, links, mirrors and static bound."""
    rings, signs = [], []
    for r, ring in enumerate([outer, *holes]):
        pts, s = reference_normalize(list(ring), -1 if r else 1)
        rings.append(pts)
        signs.append(s)
    coords = np.array([[p.xf, p.yf] for ring in rings for p in ring])
    bound = static_cross_bound(float(np.abs(coords).max()))
    if validate:
        exc = reference_sweep(rings)
        if exc is not None:
            raise exc
    nxt, prv, base = [], [], 0
    for ring in rings:
        m = len(ring)
        nxt += [base + (i + 1) % m for i in range(m)]
        prv += [base + (i - 1) % m for i in range(m)]
        base += m
    return ([[(p.X, p.Y, p.D) for p in ring] for ring in rings],
            (np.concatenate(signs) < 0).tolist(), nxt, prv, coords, bound)


def built(outer, holes, validate):
    P = Polygon(outer, holes, validate=validate)
    return ([[(p.X, p.Y, p.D) for p in ring] for ring in P.rings],
            P._reflex.tolist(), P._next.tolist(), P._prev.tolist(), P._coords, P._bound)


def outcome(build, *args):
    try:
        rings, reflex, nxt, prv, coords, bound = build(*args)
    except (PolygonError, RuntimeError) as exc:
        return type(exc), str(exc)
    # the mirrors exactly, as their bit patterns
    return rings, reflex, nxt, prv, coords.tobytes(), coords.shape, bound


grid = st.tuples(st.integers(0, 6), st.integers(0, 6))
# a point inserted after vertex i on the line of edge i: t = 0 and 1
# duplicate its ends, 1/3, 1/2 and 2/3 lie between them (straight
# through), -1 and 2 lie beyond them (the ring backtracks there)
insert = st.tuples(st.integers(0, 20), st.sampled_from(
    [0, 0, 1, 1, Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(2, 3), -1, 2]))


@st.composite
def rings(draw, step, at=0, corners=st.lists(grid, min_size=3, max_size=7)):
    """A ring on a grid of this step from (at, at), with points inserted."""
    pts = [(at + step * x, at + step * y) for x, y in draw(corners)]
    for i, t in draw(st.lists(insert, max_size=3)):
        i %= len(pts)
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % len(pts)]
        pts.insert(i + 1, (ax + t * (bx - ax), ay + t * (by - ay)))
    return pts


square = st.just([(0, 0), (6, 0), (6, 6), (0, 6)])
scales = st.sampled_from([1, Fraction(1, 3), Fraction(1, 10 ** 400), 10 ** 300])


# the outer ring on a grid of step 2, 0 .. 12, or that square; holes
# on a finer grid, in two cells of the square that do not meet
@given(outer=st.one_of(rings(2), rings(2, corners=square)),
       holes=st.lists(st.integers(0, 1), max_size=2, unique=True).flatmap(
           lambda cells: st.tuples(*(rings(Fraction(2, 3), at=1 + 6 * c) for c in cells))),
       scale=scales)
# a duplicate, a straight-through midpoint and a backtrack
@example(outer=[(0, 0), (0, 0), (2, 0), (4, 0), (4, 4), (0, 4)], holes=[], scale=1)
@example(outer=[(0, 0), (4, 0), (6, 0), (4, 0), (4, 4), (0, 4)], holes=[], scale=1)
@example(outer=[(0, 0), (4, 0), (4, 4), (0, 4)], holes=[[(1, 1), (1, 1), (2, 1), (1, 2)]],
         scale=Fraction(1, 10 ** 400))
@settings(max_examples=300, deadline=None)
def test_construction_matches_reference(outer, holes, scale):
    """Error class and message, or the rings as integers, the reflex mask,
    the links, the mirrors and the static bound, with validation on and
    off, are those of the reference construction."""
    outer, *holes = [[Point(scale * x, scale * y) for x, y in ring] for ring in [outer, *holes]]
    for validate in (True, False):
        assert outcome(built, outer, holes, validate) \
            == outcome(reference_polygon, outer, holes, validate)


def test_hole_placement_resweeps_each_ring_alone():
    """Hole 0 lies left of the outer ring, so the sweep meets a placement
    fault first; hole 1 crosses itself, which the re-sweep of each ring
    alone reports, naming hole 1's own edges and vertex."""
    outer = [(0, 0), (10, 0), (10, 10), (0, 10)]
    holes = [[(-5, -5), (-4, -5), (-4, -4), (-5, -4)], [(2, 2), (4, 4), (4, 2), (2, 4)]]
    with pytest.raises(HolePlacementError):
        Polygon(outer, holes[:1])
    with pytest.raises(SelfIntersectionError) as info:
        Polygon(outer, holes)
    assert str(info.value) == "edges 0 and 2 of a ring intersect near Point(2, 4)"
