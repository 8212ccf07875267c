"""The filtered-exact kernel against exact Fraction arithmetic, across
magnitudes: integers, a 1e-12 grid, values near 1e300 and 1e307, values
below 2^-1022, and sums of two of them, with repeated and collinear
points."""

import random
from fractions import Fraction
from functools import cmp_to_key
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ruledpoly import Direction, NonGenericDirectionError, Point, exactmath
from ruledpoly.reeb import _height_order
from ruledpoly.exactmath import (
    U,
    delta_lanes,
    exact_delta,
    filtered_order,
    mirror_error_bound,
    orient_lanes,
    orient_sign,
    sign,
    static_cross_bound,
)

from conftest import point_table, xyd

SCALES = st.sampled_from([Fraction(1), Fraction(1, 2 ** 60), Fraction(1, 10 ** 12),
                          Fraction(1, 10 ** 100), Fraction(10) ** 300, Fraction(10) ** 307,
                          Fraction(1, 10 ** 300), Fraction(1, 2 ** 1060), Fraction(1, 10 ** 400)])

# two magnitudes in one coordinate: the smaller may be invisible to its mirror
coord = st.builds(lambda k, s, j, t: k * s + j * t,
                  st.integers(-4, 4), SCALES, st.integers(-2, 2), SCALES)
point = st.builds(Point, coord, coord)


TINY = st.sampled_from([Fraction(0), Fraction(1, 2 ** 60), Fraction(1, 10 ** 100),
                        Fraction(1, 2 ** 1060), Fraction(1, 10 ** 400)])
small = st.builds(lambda j, t: j * t, st.integers(-2, 2), TINY)


@st.composite
def triples(draw):
    """(a, b, c) from a small pool holding the origin, so points repeat;
    some a on the line bc or off it by a tiny step (within float range
    for every pool)."""
    pool = [Point(0, 0)] + draw(st.lists(point, min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 10))):
        b, c = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        r = draw(st.sampled_from([None, Fraction(0), Fraction(-1, 2), Fraction(1, 2),
                                  Fraction(3, 2)]))
        if r is None:
            a = draw(st.sampled_from(pool))
        else:
            a = Point(c.x + r * (b.x - c.x) + draw(small), c.y + r * (b.y - c.y) + draw(small))
        out.append((a, b, c))
    return out


def exact_orient(a, b, c):
    return (a.x - c.x) * (b.y - c.y) - (a.y - c.y) * (b.x - c.x)


def first_stage_det(a, b, c):
    """The float det of three Points' mirrors, as orient_lanes' first
    stage computes it."""
    return (a.xf - c.xf) * (b.yf - c.yf) - (a.yf - c.yf) * (b.xf - c.xf)


def triple_bound(trip):
    """static_cross_bound at the triple's largest mirror magnitude."""
    return static_cross_bound(max(abs(f) for p in trip for f in (p.xf, p.yf)))


def cmp(p, q):
    return p - q


def check_order(values, radii, exact):
    """filtered_order sorts by exact value, and tie is exact equality."""
    order, tie = filtered_order(values, radii, np.array(exact, dtype=object).__getitem__, cmp)
    assert sorted(order.tolist()) == list(range(len(exact)))
    assert [exact[i] for i in order] == sorted(exact)
    assert tie.tolist() == [t > 0 and exact[order[t]] == exact[order[t - 1]]
                            for t in range(len(exact))]


@settings(max_examples=300, deadline=None)
@given(triples())
@example([(Point("1e-400", "1e-200"), Point(1, "1e300"), Point(0, 0))])
def test_orient_sign_and_det_order(trips):
    """orient_sign's signs are exact; the first stage's dets, each within
    its triple's static bound, sort in exact order."""
    exact = [exact_orient(a, b, c) for a, b, c in trips]
    assert [orient_sign(xyd(a), xyd(b), xyd(c)) for a, b, c in trips] == [sign(x) for x in exact]
    det = np.array([first_stage_det(*trip) for trip in trips])
    err = np.array([triple_bound(trip) for trip in trips])
    finite = np.flatnonzero(np.isfinite(det) & np.isfinite(err))
    check_order(det[finite], err[finite], [exact[i] for i in finite])


@settings(max_examples=300, deadline=None)
@given(st.lists(coord, max_size=12))
@example([Fraction(1), 1 + Fraction(1, 2 ** 60), Fraction(1), 1 - Fraction(1, 2 ** 60)])
@example([Fraction(1, 10 ** 400), Fraction(0), Fraction(-1, 10 ** 400), Fraction(1, 10 ** 400)])
def test_filtered_order_of_mirrors(xs):
    """Lanes equal as floats but not exactly are ordered and untied."""
    values = np.array([float(x) for x in xs])
    check_order(values, mirror_error_bound(values), xs)


@settings(max_examples=200, deadline=None)
@given(st.lists(point, min_size=1, max_size=10), coord, coord)
@example([Point(0, "1e300"), Point("1e-200", 0)], Fraction(1), Fraction(1, 10 ** 400))
@example([Point(0, 0), Point(0, "1e300"), Point(1, 0)], Fraction(1, 10 ** 100),
         Fraction(1, 10 ** 400))
def test_height_order_is_exact(pts, dx, dy):
    """Vertex heights under a direction (dot_filter, then filtered_order)
    come out in exact order, and an exact tie names two equal heights."""
    assume(dx or dy)
    v = Direction(dx, dy)
    height = [v.dx * p.x + v.dy * p.y for p in pts]
    P = SimpleNamespace(_ints=point_table(pts)[0], _coords=np.array([[p.xf, p.yf] for p in pts]))
    if len(set(height)) < len(pts):
        with pytest.raises(NonGenericDirectionError) as info:
            _height_order(P, v)
        assert height[info.value.first] == height[info.value.second]
    else:
        assert [height[i] for i in _height_order(P, v)] == sorted(height)


# magnitudes for triples at the edge of a box: subnormal, around 1, where
# 4 M^2 nears overflow, and where 2 M overflows
EDGE_SCALES = st.sampled_from([2.0 ** -1070, 1e-300, 1.0, 3.0, 1e150, 1e154, 1e300, 1e308])
EDGE_STEPS = st.sampled_from([1.0, -1.0, 1 - 2.0 ** -53, -0.5, 2.0 ** -30, 0.0])


@st.composite
def box_triples(draw):
    """Triples whose coordinates are floats at most M in magnitude, most
    of them on the box's edge, where the det's error is largest."""
    m = draw(EDGE_SCALES)
    out = []
    for _ in range(draw(st.integers(1, 10))):
        xy = [m * draw(EDGE_STEPS) for _ in range(6)]
        out.append((Point(*xy[:2]), Point(*xy[2:4]), Point(*xy[4:])))
    return out


def check_static_bound(trips):
    """A det beyond static_cross_bound at the triple's largest mirror
    magnitude has the exact sign (a NaN det, overflowed, decides nothing)."""
    for trip in trips:
        det = first_stage_det(*trip)
        if abs(det) > triple_bound(trip):
            assert sign(det) == sign(exact_orient(*trip))


@settings(max_examples=300, deadline=None)
@given(st.one_of(triples(), box_triples()))
# a = b = (M, M), c = (-M, -M): the extreme triple, det 0 and a bound of 48 U M^2
@example([(Point(1, 1), Point(1, 1), Point(-1, -1))])
@example([(Point(3, 3), Point(3, 3), Point(-3, -3))])
@example([(Point("1e-400", "-1e-400"), Point("1e-400", "1e-400"), Point("-1e-400", "1e-400"))])
@example([(Point("1e308", "-1e308"), Point("-1e308", "1e308"), Point("1e308", "1e308"))])
def test_static_bound_decides_exact_sign(trips):
    """Random, near-collinear and box-edge triples, 1e-400 coordinates
    (zero or subnormal mirrors) and 1e308 ones (where the bound is inf)."""
    check_static_bound(trips)


@settings(max_examples=300, deadline=None)
@given(st.one_of(triples(), box_triples()), st.sampled_from([5, 4096]))
@example([(Point(1, 1), Point(1, 1), Point(-1, -1))] * 7, 5)
@example([(Point("1e-400", "-1e-400"), Point("1e-400", "1e-400"), Point("-1e-400", "1e-400"))], 5)
@example([(Point("1e308", "-1e308"), Point("-1e308", "1e308"), Point("1e308", "1e308"))], 5)
def test_orient_lanes_is_exact(trips, block):
    """orient_lanes, its lanes first decided by the static bound, gives
    the exact signs, block by block: random, near-collinear and box-edge
    triples, 1e-400 coordinates and 1e308 ones (where the bound is inf)."""
    pts = [p for trip in trips for p in trip]
    xs, ys = np.array([p.xf for p in pts]), np.array([p.yf for p in pts])
    with patch.object(exactmath, "_LANE_BLOCK", block):
        got = orient_lanes(point_table(pts)[0], xs, ys, np.arange(len(pts)).reshape(-1, 3).T,
                           static_cross_bound(xs, ys))
    assert got.tolist() == [sign(exact_orient(a, b, c)) for a, b, c in trips]


def test_orient_lanes_first_stage_decides_clear_lanes():
    """Lanes whose determinant clears the static bound never reach the
    integers; a collinear lane does, as one lane of each of the two
    delta_lanes calls (a - c and b - c)."""
    pts = [Point(0, 0), Point(3, 1), Point(1, 2), Point(6, 2)]
    xs, ys = np.array([p.xf for p in pts]), np.array([p.yf for p in pts])
    seen = []
    delta = exactmath.delta_lanes

    def spy(ints, lanes):
        seen.append(lanes.shape[1])
        return delta(ints, lanes)

    with patch.object(exactmath, "delta_lanes", spy):
        got = orient_lanes(point_table(pts)[0], xs, ys, np.array([[1, 2, 3], [2, 1, 1], [0, 0, 0]]),
                           static_cross_bound(xs, ys))
    assert got.tolist() == [1, -1, 0] and seen == [1, 1]


def band_triples(count: int) -> list:
    """Near-collinear triples of magnitude about 1 whose float det, as
    orient_lanes' first stage computes it, lies above 1/64 of
    static_cross_bound and within the bound, while the exact sign is 0
    or the other one. A seeded search keeps about 1 draw in 200."""
    rng = random.Random(15)
    dens = [3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

    def q():
        return Fraction(rng.randint(-999, 999), 50 * rng.choice(dens))

    out = []
    for _ in range(40000):
        (ax, ay), (cx, cy) = (q(), q()), (q(), q())
        t = Fraction(rng.randint(-9, 9), rng.choice(dens))
        e = rng.choice([0, Fraction(1, 10 ** 30), Fraction(-1, 10 ** 30)])
        trip = (Point(ax, ay), Point(cx + t * (ax - cx) + e, cy + t * (ay - cy)), Point(cx, cy))
        det, bound = first_stage_det(*trip), triple_bound(trip)
        if bound / 64 < abs(det) <= bound and sign(det) != sign(exact_orient(*trip)):
            out.append(trip)
            if len(out) == count:
                break
    return out


def test_orient_lanes_first_stage_bound_is_not_too_small():
    """Lanes that a first stage with a bound 64 times too small would
    decide by the sign of a wrong float det: exact sign 0, and exact sign
    opposite to the det's."""
    trips = band_triples(32)
    want = [sign(exact_orient(*trip)) for trip in trips]
    assert len(trips) == 32 and 0 in want and any(want)
    for trip, s in zip(trips, want):
        xs, ys = np.array([p.xf for p in trip]), np.array([p.yf for p in trip])
        got = orient_lanes(point_table(trip)[0], xs, ys, np.array([[0], [1], [2]]),
                           static_cross_bound(xs, ys))
        assert got.tolist() == [s]


@pytest.mark.parametrize("m", [1.0, 3.0, 2.0 ** 500, 1e-100])
def test_static_bound_at_extreme_triple(m):
    """The extreme triple a = b = (M, M), c = (-M, -M), whose mirrors
    make every magnitude of the det largest: det 0, the bound 48 U M^2."""
    det = first_stage_det(Point(m, m), Point(m, m), Point(-m, -m))
    bound = static_cross_bound(m)
    assert det == 0
    assert bound == pytest.approx(48 * U * m * m, rel=1e-12)
    assert static_cross_bound(0.0) > 0
    assert static_cross_bound(1e154) == static_cross_bound(1e308) == float("inf")


def test_filtered_order_wide_lane_reaches_back():
    """A wide interval sorted last by its float value still reaches below
    the earlier lanes, so no cut may separate them."""
    order, tie = filtered_order(np.array([0.1, 1.0, 1.5]), np.array([0.01, 0.01, 4.0]),
                                np.array([1, 10, 0], dtype=object).__getitem__, cmp)
    assert order.tolist() == [2, 0, 1] and not tie.any()


@st.composite
def clustered_lanes(draw):
    """Exact values in clusters of one to four lanes, equal or apart by
    less than their float mirrors show, so the float order leaves chains
    of one, two and more lanes with exact ties inside; some lanes are
    wide and float anywhere in their radius, so they reach back over
    earlier clusters. Returns (values, radii, exact)."""
    values, radii, exact = [], [], []
    for center in draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8)):
        for _ in range(draw(st.integers(1, 4))):
            x = Fraction(center) + Fraction(draw(st.integers(-2, 2)), 2 ** 60)
            wide = draw(st.sampled_from([None] * 6 + [0.5, 4.0]))
            if wide is None:
                values.append(float(x))
                radii.append(float(mirror_error_bound(float(x))))
            else:
                values.append(float(x) + draw(st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])) * wide)
                radii.append(wide)
            exact.append(x)
    return np.array(values), np.array(radii), exact


@settings(max_examples=400, deadline=None)
@given(clustered_lanes())
@example((np.array([1.0, 1.0]), np.array([0.0, 0.0]), [Fraction(1), Fraction(1)]))
@example((np.array([1.0, 1.0, 2.0, 2.0]), np.array([0.0, 0.0, 0.0, 0.0]),
          [1 + Fraction(1, 2 ** 60), Fraction(1), Fraction(2), 2 + Fraction(1, 2 ** 60)]))
@example((np.array([0.1, 1.0, 1.5]), np.array([0.01, 0.01, 4.0]),
          [Fraction(1), Fraction(10), Fraction(1)]))
def test_filtered_order_matches_stable_sort(lanes):
    """The batched chains give what one stable exact sort of the float
    order gives: every lane sorted by cmp, equal lanes in float order,
    and tie exactly where a lane equals the one before."""
    values, radii, exact = lanes
    order, tie = filtered_order(values, radii, np.array(exact, dtype=object).__getitem__, cmp)
    want = sorted(np.argsort(values, kind="stable").tolist(),
                  key=cmp_to_key(lambda i, j: cmp(exact[i], exact[j])))
    assert order.tolist() == want
    assert tie.tolist() == [t > 0 and exact[want[t]] == exact[want[t - 1]]
                            for t in range(len(want))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(point, point), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=4))
def test_delta_lanes_is_exact_delta(pairs, grid):
    """The lanes of delta_lanes are exact_delta's own integers, also where
    the two scales are equal and exact_delta does not multiply them."""
    pairs = pairs + [(Point(x, y), Point(y, x)) for x, y in grid]
    pts = [p for pair in pairs for p in pair]
    lanes = np.arange(len(pts)).reshape(-1, 2).T
    got = delta_lanes(point_table(pts)[0], lanes)
    assert got.shape == (3, len(pairs))
    assert [tuple(col) for col in got.T.tolist()] == [exact_delta(xyd(p), xyd(q)) for p, q in pairs]
