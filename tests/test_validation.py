"""Polygon validation against a brute-force reference and against the
sequential sweep it defers checks from, and its cost; the point
location that validation shares with the Reeb sweep, and its static
first stage."""

import json
import math
import sys
from fractions import Fraction
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ruledpoly.exactmath as exactmath
import ruledpoly.geometry as geometry
from ruledpoly import (
    Direction,
    FamilyParams,
    HolePlacementError,
    Point,
    Polygon,
    PolygonError,
    SelfIntersectionError,
    dump_polygon,
    is_generic,
    load_polygon,
    lower_bound_polygon,
    parallel_reeb_complexity,
    reeb_graph,
)
from ruledpoly.exactmath import filtered_order, integer_lanes, orient_sign
from ruledpoly.generators import _find_contact

from conftest import point_table, recorded_comparisons, xyd


def _turn(a, b, c):
    """Sign of cross(b - a, c - a), in Fractions."""
    d = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    return (d > 0) - (d < 0)


def _between(a, b, c):
    """Whether c, collinear with a-b, lies in the segment's bounding box."""
    return (min(a.x, b.x) <= c.x <= max(a.x, b.x)
            and min(a.y, b.y) <= c.y <= max(a.y, b.y))


def segments_touch(a, b, c, d):
    """Whether closed segments ab and cd share a point: the textbook
    scalar formula, in Fractions, independent of the package's lanes."""
    o1, o2, o3, o4 = _turn(a, b, c), _turn(a, b, d), _turn(c, d, a), _turn(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (o1 == 0 and _between(a, b, c) or o2 == 0 and _between(a, b, d)
            or o3 == 0 and _between(c, d, a) or o4 == 0 and _between(c, d, b))


def find_contact(pts):
    """First pair (i, j) of non-adjacent edges of a ring that touch, or None."""
    n = len(pts)
    for i in range(n):
        for j in range(i + 2, n):
            if (i, j) != (0, n - 1) and segments_touch(pts[i], pts[(i + 1) % n],
                                                        pts[j], pts[(j + 1) % n]):
                return i, j
    return None


def _strictly_inside(pts, q):
    """Exact crossing-number test; q must not lie on the ring."""
    inside = False
    for a, b in zip(pts, pts[1:] + pts[:1]):
        if (a.y > q.y) != (b.y > q.y):
            if a.x + (q.y - a.y) * (b.x - a.x) / (b.y - a.y) > q.x:
                inside = not inside
    return inside


def _rings_touch(pts1, pts2):
    return any(segments_touch(a, b, c, d)
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
    if any(find_contact(pts) for pts in rings):
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


def reference_sweep(rings):
    """The sequential validation sweep: each check, a contact test with
    segments_touch or the order test at a vertex whose edges end, runs
    when the sweep reaches it and raises at once; the order of two
    starting edges is an orient_sign call. Returns the error validation
    must raise (hole placement faults after a re-sweep of each ring for
    a self-intersection), or None."""
    try:
        _reference_sweep(rings)
    except HolePlacementError as exc:
        for pts in rings:
            try:
                _reference_sweep([pts])
            except PolygonError as inner:
                return inner
        return exc
    except (PolygonError, RuntimeError) as exc:
        return exc
    return None


def _reference_sweep(rings):
    pts = [p for ring in rings for p in ring]
    n = len(pts)
    ring_of, first = [], []
    nxt = list(range(1, n + 1))
    base = 0
    for r, ring in enumerate(rings):
        first.append(base)
        ring_of.extend([r] * len(ring))
        base += len(ring)
        nxt[base - 1] = first[r]
    prv = [0] * n
    for e in range(n):
        prv[nxt[e]] = e
    xf = np.array([p.xf for p in pts])
    events, repeat = filtered_order(xf, np.zeros(n), partial(integer_lanes, point_table(pts)[0]),
                                   geometry._lex_cmp)
    events, repeat = events.tolist(), repeat.tolist()
    rank = [0] * n
    for k, v in enumerate(events):
        rank[v] = k
    forward = [rank[e] < rank[nxt[e]] for e in range(n)]
    lo = [e if forward[e] else nxt[e] for e in range(n)]
    hi = [nxt[e] if forward[e] else e for e in range(n)]

    def fault(e, f):
        re, rf = ring_of[e], ring_of[f]
        if re == rf:
            i, j = sorted((e - first[re], f - first[re]))
            return SelfIntersectionError(
                f"edges {i} and {j} of a ring intersect near {rings[re][i]!r}")
        a, b = sorted((re, rf))
        if a == 0:
            return HolePlacementError(f"hole {b - 1} touches the outer boundary")
        return HolePlacementError(f"holes {a - 1} and {b - 1} touch")

    def check(e, f):
        if e is None or f is None or nxt[e] == f or nxt[f] == e:
            return
        if segments_touch(pts[e], pts[nxt[e]], pts[f], pts[nxt[f]]):
            raise fault(e, f)

    status = geometry._Status(None, None, None, nxt, forward, math.inf)  # never locates
    seen = [False] * len(rings)
    for k, v in enumerate(events):
        if repeat[k]:
            raise fault(v, events[k - 1])
        p = pts[v]
        e_in, e_out = prv[v], v
        if hi[e_in] == v or hi[e_out] == v:
            if hi[e_in] == v and hi[e_out] == v:
                ending = sorted((e_in, e_out), key=status.place)
            else:
                ending = [e_in if hi[e_in] == v else e_out]
            b, i = status.place(ending[0])
            if len(ending) == 2 and status.at(b, i + 1) != ending[1]:
                raise RuntimeError("sweep status lost the order of its edges")
            for e in ending:
                b, i = status.pop(b, i)
            for t, side in ((status.below(b, i), 1), (status.at(b, i), -1)):
                if t is not None:
                    o = orient_sign(xyd(pts[lo[t]]), xyd(pts[hi[t]]), xyd(p))
                    if o == 0:
                        raise fault(ending[0], t)
                    if o != side:
                        raise RuntimeError("sweep status lost the order of its edges")
        else:
            # a linear scan up the status, not _Status.locate: v's place is
            # at the first edge that v does not lie strictly above
            places = [(b, i) for b, blk in enumerate(status.blocks) for i in range(len(blk))]
            b, i = (places[-1][0], places[-1][1] + 1) if places else (0, 0)
            for place in places:
                t = status.at(*place)
                o = orient_sign(xyd(pts[lo[t]]), xyd(pts[hi[t]]), xyd(p))
                if o == 0:  # the lowest edge through v
                    raise fault(e_out, t)
                if o < 0:
                    b, i = place
                    break
        below, above = status.below(b, i), status.at(b, i)
        if lo[e_in] == v and lo[e_out] == v:
            s = orient_sign(xyd(p), xyd(pts[hi[e_in]]), xyd(pts[hi[e_out]]))
            starting = [e_in, e_out] if s > 0 else [e_out, e_in]
        elif lo[e_in] == v or lo[e_out] == v:
            starting = [e_in if lo[e_in] == v else e_out]
        else:
            check(below, above)
            continue
        check(below, starting[0])
        check(starting[-1], above)
        status.insert(b, i, starting)
        g = ring_of[v]
        if not seen[g]:
            seen[g] = True
            if g and (below is None or not forward[below]):
                where = "lies outside the outer ring" if below is None or not ring_of[below] \
                    else f"is nested inside hole {ring_of[below] - 1}"
                raise HolePlacementError(f"hole {g - 1} {where}")


def _outcome(exc):
    return None if exc is None else (type(exc), str(exc))


def validation_outcome(outer, holes):
    try:
        Polygon(outer, holes)
    except (PolygonError, RuntimeError) as exc:
        return _outcome(exc)
    return None


# one grid step: 1, 1/3 (inexact mirrors), and 1 on top of 2^60, where
# the mirrors of neighbouring grid points tie and exact lanes decide
scales = st.sampled_from([(1, 0), (Fraction(1, 3), 0), (1, 2 ** 60)])


@given(outer=rings, holes=st.lists(rings, max_size=2), scale=scales)
# the two crossings pinned for test_validation_matches_brute_force
@example(outer=[(4, 2), (3, 3), (1, 1), (1, 3), (0, 4)], holes=[], scale=(1, 0))
@example(outer=[(3, 3), (5, 1), (4, 0), (2, 1), (4, 1), (2, 3)], holes=[], scale=(1, 0))
# a located vertex on two edges: the fault names the lower, whatever the blocks
@example(outer=[(0, 0), (2, 1), (0, 1), (2, 2), (2, 1), (3, 0)], holes=[], scale=(1, 0))
@settings(max_examples=400, deadline=None)
def test_deferred_checks_match_sequential_sweep(outer, holes, scale):
    """Error class and message, or acceptance, are those of the sweep
    that runs every check as it comes (reference_sweep): the first check
    that fails in sweep order wins, and any fault the sweep meets past it
    is not reported."""
    step, offset = scale
    outer, *holes = [[Point(offset + step * x, step * y) for x, y in ring]
                     for ring in [outer, *holes]]
    try:
        P = Polygon(outer, holes, validate=False)
    except PolygonError:
        return  # normalization: not the sweep's business
    rings = [list(r.vertices) for r in P.rings]
    expected = _outcome(reference_sweep(rings))
    assert validation_outcome(outer, holes) == expected
    # status blocks of one or two edges, and lanes decided five at a time
    with patch.object(geometry, "_BLOCK", 1), patch.object(exactmath, "_LANE_BLOCK", 5):
        assert validation_outcome(outer, holes) == expected


@given(pts=st.lists(grid, min_size=3, max_size=12, unique=True))
@settings(max_examples=300, deadline=None)
def test_find_contact_is_first_pair_in_order(pts):
    """generators._find_contact evaluates every pair as a lane and must
    return what the scalar loop returns first."""
    ring = [Point(x, y) for x, y in pts]
    assert _find_contact(*point_table(ring)) == find_contact(ring)


def test_validation_cost_is_linear_in_contact_tests(monkeypatch):
    """A 20 000-vertex star (whose bounding boxes overlap quadratically
    often) loads with at most 4n exact contact lanes."""
    text = dump_polygon(lower_bound_polygon(FamilyParams(10_000)))
    lanes = 0
    touching = geometry._touching

    def counted(ints, xs, ys, quads, bound):
        nonlocal lanes
        lanes += quads.shape[1]
        return touching(ints, xs, ys, quads, bound)

    monkeypatch.setattr(geometry, "_touching", counted)
    P = load_polygon(text)
    assert P.n == 20_000
    assert 0 < lanes <= 4 * P.n


def test_only_point_location_calls_scalar_predicate(monkeypatch):
    """Loading the 20 000-vertex star calls the scalar orient_sign only
    to locate leftmost vertices (the key of _Status.locate, behind its
    static first stage): the contact, order and starting-order checks
    make no scalar call, and locating makes at most 6 comparisons per
    vertex. The sequential sweep made 8.47 scalar calls per vertex on
    this star."""
    text = dump_polygon(lower_bound_polygon(FamilyParams(10_000)))
    callers = []

    def counted(a, b, c):
        callers.append(sys._getframe(1).f_code.co_name)
        return orient_sign(a, b, c)

    monkeypatch.setattr(geometry, "orient_sign", counted)
    with recorded_comparisons() as seen:
        P = load_polygon(text)
    assert set(callers) <= {"rel"}
    assert 0 < len(seen) <= 6 * P.n


def test_status_finds_every_edge_by_handle():
    """With blocks of one or two edges, inserts at the front (until the
    block keys must be respaced), the back and the middle, then replaces
    and pops by handle: the handles keep giving each edge's position.
    An insert goes at the place of the edge it goes before, or at the end."""
    n = 300
    with patch.object(geometry, "_BLOCK", 1):
        status = geometry._Status(None, None, None, list(range(2 * n)), [True] * 2 * n, math.inf)
        order = []

        def check():
            assert [e for blk in status.blocks for e in blk] == order
            assert status.keys == sorted(set(status.keys))
            for e in order:
                assert status.at(*status.place(e)) == e

        for e in range(n):
            k = 0 if e < n // 2 else (len(order), len(order) // 2)[e % 2]
            if k < len(order):
                b, i = status.place(order[k])
            elif order:
                b, i = status.place(order[-1])
                i += 1
            else:
                b, i = 0, 0
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


def first_stage_count(seen) -> int:
    """Check every recorded comparison of _Status.locate against
    orient_sign, and count those that its static first stage decided:
    the float determinant beyond the status's bound."""
    first = 0
    for status, v, t, value in seen:
        a, b, p = geometry._points(status.ints[:, [t, status.nxt[t], v]])
        o = orient_sign(xyd(a), xyd(b), xyd(p))
        assert value == (-o if status.forward[t] else o)
        det = (a.xf - p.xf) * (b.yf - p.yf) - (a.yf - p.yf) * (b.xf - p.xf)
        first += abs(det) > status.bound
    return first


def both_sweeps(outer, holes, directions):
    """The comparisons of validating the polygon and, if it is valid, of
    its Reeb sweep at each generic one of the directions."""
    with recorded_comparisons() as seen:
        try:
            P = Polygon(outer, holes)
        except PolygonError:
            return seen
        for dx, dy in directions:
            if is_generic(P, Direction(dx, dy)):
                reeb_graph(P, Direction(dx, dy))
    return seen


@given(outer=rings, holes=st.lists(rings, max_size=2), scale=scales)
@settings(max_examples=200, deadline=None)
def test_first_stage_signs_match_orient_sign_on_grids(outer, holes, scale):
    """Every sign of a located point, decided by the static first stage
    or not, is orient_sign's, in validation and in the Reeb sweep; on
    the 2^60 offset the mirrors of neighbouring grid points tie."""
    step, offset = scale
    outer, *holes = [[Point(offset + step * x, step * y) for x, y in ring]
                     for ring in [outer, *holes]]
    first_stage_count(both_sweeps(outer, holes, [(1, 7), (-3, 2), (5, -1)]))


def test_first_stage_signs_match_orient_sign_across_scales():
    """A 1000-square with a notch, a unit hole and two 1e-400 holes, one
    at the origin's mirrors and one at (1, 1)'s: the static bound decides
    the comparisons of the large features, and those that the tiny holes
    take part in, whose mirrors coincide, fall through to orient_sign."""
    tiny = ["1e-400", "2e-400"]
    seen = both_sweeps(
        [(0, 0), (1000, 0), (1000, 400), (500, 500), (1000, 600), (1000, 1000), (0, 1000)],
        [[(10, 10), (11, 10), (11, 11), (10, 11)],
         [Point(x, y) for x, y in [(tiny[0], tiny[0]), (tiny[1], tiny[0]),
                                   (tiny[1], tiny[1]), (tiny[0], tiny[1])]],
         [Point(1 + Fraction(x), 1 + Fraction(y)) for x, y in [
             ("1e-400", "1e-400"), ("3e-400", "1e-400"), ("2e-400", "2e-400")]]],
        [(1, 7), (-3, 2), (5, -1), (7, 1)])
    first = first_stage_count(seen)
    assert 0 < first < len(seen)


def test_first_stage_steps_aside_at_1e308():
    """On a notched pentagon at 1e308 the static bound overflows to inf,
    so orient_sign decides every comparison, in both sweeps."""
    pentagon = [(-1e308, -1e308), (1e308, -1e308), (0, 0), (1e308, 1e308), (-1e308, 1e308)]
    seen = both_sweeps(pentagon, [], [(7, 1)])
    assert {status.bound for status, *_ in seen} == {math.inf}
    assert len({id(status) for status, *_ in seen}) == 2
    assert first_stage_count(seen) == 0


def test_star_sweeps_never_reach_scalar_predicate(monkeypatch):
    """The fast path: on the 20 000-vertex star the static first stage
    decides every comparison of both sweeps, validation's and the Reeb
    sweep's at the witness, and neither calls the scalar orient_sign."""
    P = lower_bound_polygon(FamilyParams(10_000))
    res = parallel_reeb_complexity(P)
    text = dump_polygon(P)
    calls = []

    def counted(a, b, c):
        calls.append((a, b, c))
        return orient_sign(a, b, c)

    monkeypatch.setattr(geometry, "orient_sign", counted)
    with recorded_comparisons() as seen:
        g = reeb_graph(load_polygon(text), res.witness)
    assert g.l == res.min_leaves
    assert len({id(status) for status, *_ in seen}) == 2
    assert calls == []


def grid_document(coords, t):
    """A polygon document of the integer pairs coords on the 1e-12 grid,
    translated by (t, t)."""
    shift = t * 10 ** 12
    return json.dumps({"outer": [[f"{x + shift}e-12", f"{y + shift}e-12"] for x, y in coords]})


def radial_ring(n, r):
    """n vertices at equal angles about the origin, at the radii r / 2 and
    r in turn, rounded to integers: a simple star-shaped ring."""
    return [(round(s * math.cos(2 * math.pi * k / n)), round(s * math.sin(2 * math.pi * k / n)))
            for k, s in enumerate([r // 2, r] * (n // 2))]


def star_coords():
    return [(int(p.x * 10 ** 12), int(p.y * 10 ** 12))
            for p in lower_bound_polygon(FamilyParams(10_000)).outer]


@pytest.mark.parametrize("coords, t, dtype", [
    pytest.param(star_coords, 10 ** 9, object, id="star-20000-at-1e9"),
    pytest.param(partial(radial_ring, 2000, 10 ** 6), 1000, np.int64, id="ring-2000-at-1000"),
])
def test_translated_polygons_locate_by_integers(monkeypatch, coords, t, dtype):
    """Two polygons far from the origin against their small mirror
    differences, so that every comparison of point location gets past the
    static first stage to orient_sign, in validation and in the Reeb
    sweep: the 20 000-vertex star translated by 10^9 (an object table)
    and a 2000-vertex radial ring at 1000 plus multiples of 1e-12 (an
    int64 grid over L = 10^12). Each gives the untranslated polygon's
    results and l == min_leaves at its witness, and makes no Point."""
    coords = coords()
    want = parallel_reeb_complexity(load_polygon(grid_document(coords, 0))).as_dict()
    text = grid_document(coords, t)
    calls, made = 0, 0

    def counted(a, b, c):
        nonlocal calls
        calls += 1
        return orient_sign(a, b, c)

    slot = Point.X  # every way of making a Point sets its X once

    def made_one(p, value):
        nonlocal made
        made += 1
        slot.__set__(p, value)

    monkeypatch.setattr(geometry, "orient_sign", counted)
    monkeypatch.setattr(Point, "X", property(slot.__get__, made_one))
    with recorded_comparisons() as seen:
        P = load_polygon(text)
        res = parallel_reeb_complexity(P)
        g = reeb_graph(P, res.witness)
    assert made == 0
    assert P._ints.dtype == dtype
    assert dtype == object or set(P._ints[2].tolist()) == {10 ** 12}
    assert res.as_dict() == want
    assert g.l == res.min_leaves
    assert len({id(status) for status, *_ in seen}) == 2
    assert 0 < calls == len(seen)
