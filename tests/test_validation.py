"""Polygon validation against a brute-force reference, and its cost."""

import math
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

import ruledpoly.geometry as geometry
from ruledpoly import (
    FamilyParams,
    HolePlacementError,
    Polygon,
    PolygonError,
    SelfIntersectionError,
    dump_polygon,
    load_polygon,
    lower_bound_polygon,
)
from ruledpoly.geometry import _segments_touch
from ruledpoly.generators import _find_contact


def _strictly_inside(pts, q):
    """Exact crossing-number test; q must not lie on the ring."""
    inside = False
    for a, b in zip(pts, pts[1:] + pts[:1]):
        if (a.y > q.y) != (b.y > q.y):
            if a.x + (q.y - a.y) * (b.x - a.x) / (b.y - a.y) > q.x:
                inside = not inside
    return inside


def _rings_touch(pts1, pts2):
    return any(_segments_touch(a, b, c, d)
               for a, b in zip(pts1, pts1[1:] + pts1[:1])
               for c, d in zip(pts2, pts2[1:] + pts2[:1]))


def reference_error(outer, holes=()):
    """Error class validation must raise, or None: all non-adjacent edge
    pairs of each ring, then every ring pair, by brute force."""
    try:
        P = Polygon(outer, holes, validate=False)
    except PolygonError as exc:  # normalization: not the validator's business
        return type(exc)
    rings = [list(r.vertices) for r in P.rings]
    if any(_find_contact(pts, _segments_touch) for pts in rings):
        return SelfIntersectionError
    outer_pts, hole_pts = rings[0], rings[1:]
    for g, hole in enumerate(hole_pts):
        if _rings_touch(outer_pts, hole) or not _strictly_inside(outer_pts, hole[0]):
            return HolePlacementError
        for other in hole_pts[g + 1:]:
            if (_rings_touch(hole, other) or _strictly_inside(other, hole[0])
                    or _strictly_inside(hole, other[0])):
                return HolePlacementError
    return None


def validation_error(outer, holes=()):
    try:
        Polygon(outer, holes)
    except PolygonError as exc:
        return type(exc)
    return None


def _ring(points, star_order):
    """Points in drawn order, or sorted by angle about their centroid
    (usually simple, with collinear and repeated vertices kept)."""
    if not star_order:
        return points
    cx = sum(x for x, _ in points) / len(points)
    cy = sum(y for _, y in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


grid = st.tuples(st.integers(0, 8), st.integers(0, 8))
rings = st.builds(_ring, st.lists(grid, min_size=3, max_size=9), st.booleans())


@given(outer=rings, holes=st.lists(rings, max_size=2))
# a crossing found only by testing the two edges that become neighbours
# where both edges of a vertex end
@example(outer=[(4, 2), (3, 3), (1, 1), (1, 3), (0, 4)], holes=[])
# with one-edge blocks, two edges that end at one vertex straddle a block boundary
@example(outer=[(3, 3), (5, 1), (4, 0), (2, 1), (4, 1), (2, 3)], holes=[])
@settings(max_examples=400, deadline=None)
def test_validation_matches_brute_force(outer, holes):
    """Small integer grids make shared vertices, collinear overlaps and
    vertical edges common; the verdict and error class must agree."""
    expected = reference_error(outer, holes)
    assert validation_error(outer, holes) is expected
    with patch.object(geometry, "_BLOCK", 1):  # status blocks of one or two edges
        assert validation_error(outer, holes) is expected


def test_validation_cost_is_linear_in_contact_tests(monkeypatch):
    """A 20 000-vertex star (whose bounding boxes overlap quadratically
    often) loads with at most 4n exact contact tests."""
    text = dump_polygon(lower_bound_polygon(FamilyParams(10_000)))
    calls = 0

    def counted(a, b, c, d):
        nonlocal calls
        calls += 1
        return _segments_touch(a, b, c, d)

    monkeypatch.setattr(geometry, "_segments_touch", counted)
    P = load_polygon(text)
    assert P.n == 20_000
    assert 0 < calls <= 4 * P.n


def test_status_finds_every_edge_by_handle():
    """With blocks of one or two edges, inserts at the front (until the
    block keys must be respaced), the back and the middle, then replaces
    and pops by handle: the handles keep giving each edge's position."""
    n = 300
    with patch.object(geometry, "_BLOCK", 1):
        status = geometry._Status(2 * n)
        order = []

        def check():
            assert [e for blk in status.blocks for e in blk] == order
            assert status.keys == sorted(set(status.keys))
            for e in order:
                assert status.at(*status.place(e)) == e

        for e in range(n):
            k = 0 if e < n // 2 else (len(order), len(order) // 2)[e % 2]
            b, i = status.locate(lambda t: -1 if order.index(t) < k else 1)
            assert status.below(b, i) == (order[k - 1] if k else None)
            status.insert(b, i, [e])
            order.insert(k, e)
        check()
        for e in range(0, n, 3):
            status.replace(e, n + e)
            order[order.index(e)] = n + e
        check()
        for e in order[::2]:
            status.pop(*status.place(e))
            order.remove(e)
        check()
