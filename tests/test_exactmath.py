"""The filtered-exact kernel against exact Fraction arithmetic, across
magnitudes: integers, a 1e-12 grid, values near 1e300 and 1e307, values
below 2^-1022, and sums of two of them, with repeated and collinear
points."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ruledpoly import Direction, NonGenericDirectionError, Point
from ruledpoly.reeb import _height_order
from ruledpoly.exactmath import (
    cross_filter,
    filtered_order,
    mirror_error_bound,
    orient_sign,
    sign,
)

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


def cmp(p, q):
    return (p > q) - (p < q)


def check_order(values, radii, exact):
    """filtered_order sorts by exact value, and tie is exact equality."""
    order, tie = filtered_order(values, radii, exact.__getitem__, cmp)
    assert sorted(order.tolist()) == list(range(len(exact)))
    assert [exact[i] for i in order] == sorted(exact)
    assert tie.tolist() == [t > 0 and exact[order[t]] == exact[order[t - 1]]
                            for t in range(len(exact))]


@settings(max_examples=300, deadline=None)
@given(triples())
@example([(Point("1e-400", "1e-200"), Point(1, "1e300"), Point(0, 0))])
def test_cross_filter_lanes_and_orient_sign(trips):
    """Scalar and array lanes agree bitwise; signs and order are exact."""
    cols = [np.array([getattr(p, f) for p in ps]) for ps in zip(*trips) for f in ("xf", "yf")]
    ax, ay, bx, by, cx, cy = cols
    with np.errstate(over="ignore", invalid="ignore"):
        det, err = cross_filter(ax, ay, bx, by, cx, cy)
    scalar = [cross_filter(a.xf, a.yf, b.xf, b.yf, c.xf, c.yf) for a, b, c in trips]
    assert np.array_equal(det, [d for d, _ in scalar], equal_nan=True)
    assert np.array_equal(err, [e for _, e in scalar], equal_nan=True)

    exact = [exact_orient(a, b, c) for a, b, c in trips]
    assert [orient_sign(a, b, c) for a, b, c in trips] == [sign(x) for x in exact]
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
    P = SimpleNamespace(_pts=pts, _coords=np.array([[p.xf, p.yf] for p in pts]))
    if len(set(height)) < len(pts):
        with pytest.raises(NonGenericDirectionError) as info:
            _height_order(P, v)
        assert height[info.value.first] == height[info.value.second]
    else:
        assert [height[i] for i in _height_order(P, v)] == sorted(height)


def test_filtered_order_wide_lane_reaches_back():
    """A wide interval sorted last by its float value still reaches below
    the earlier lanes, so no cut may separate them."""
    order, tie = filtered_order(np.array([0.1, 1.0, 1.5]), np.array([0.01, 0.01, 4.0]),
                                [1, 10, 0].__getitem__, cmp)
    assert order.tolist() == [2, 0, 1] and not tie.any()
