"""The integer kernel against Fraction formulas, and a guard that the
kernel builds no Fraction.

Points hold integers over their own least common denominators, and
every exact sign below the public API is computed from those integers.
The references here are the plain Fraction formulas, written out in the
test. Coordinates mix the magnitudes of test_exactmath (1e-400 to 1e307)
with parts over many distinct primes near 1e6, as in
test_many_distinct_denominators, so scales rarely agree.
"""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruledpoly import (
    Direction,
    DoubleCone,
    FamilyParams,
    NonGenericDirectionError,
    Point,
    Polygon,
    branch_witnesses,
    brute_force_complexity,
    dump_polygon,
    is_generic,
    load_polygon,
    lower_bound_polygon,
    random_simple_polygon,
    reeb_graph,
)
from ruledpoly.exactmath import orient_sign, sign, static_cross_bound
from ruledpoly.geometry import _corner_signs
from ruledpoly.oracle import _sweep_cmp
from ruledpoly.reeb import _height_order

from conftest import point_table, xyd

PRIMES = [p for p in range(10 ** 6, 10 ** 6 + 2000) if all(p % q for q in range(2, 1002))][:40]
SCALES = [Fraction(1), Fraction(1, 2 ** 60), Fraction(1, 10 ** 12), Fraction(1, 10 ** 100),
          Fraction(10) ** 300, Fraction(10) ** 307, Fraction(1, 10 ** 300),
          Fraction(1, 2 ** 1060), Fraction(1, 10 ** 400)]

# a multiple of one scale plus a small part over a prime
coord = st.builds(lambda k, s, j, p, t: k * s + Fraction(j, p) * t,
                  st.integers(-4, 4), st.sampled_from(SCALES), st.integers(-3, 3),
                  st.sampled_from(PRIMES), st.sampled_from([Fraction(1), Fraction(1, 10 ** 30)]))
xy = st.tuples(coord, coord)


@st.composite
def point_lists(draw, min_size=1, max_size=8):
    """Exact coordinate pairs from a small pool, some on the line through
    two earlier ones or off it by a tiny step, so exact lanes run."""
    pool = [draw(xy)]
    for _ in range(draw(st.integers(min_size, max_size)) - 1):
        kind = draw(st.sampled_from(["new", "repeat", "line"]))
        if kind == "new" or len(pool) < 2:
            pool.append(draw(xy))
        elif kind == "repeat":
            pool.append(draw(st.sampled_from(pool)))
        else:
            (bx, by), (cx, cy) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            r = draw(st.sampled_from([Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2)]))
            e = draw(st.sampled_from([0, Fraction(1, 10 ** 40), Fraction(-1, 7 * 10 ** 25)]))
            pool.append((cx + r * (bx - cx) + e, cy + r * (by - cy) - e))
    return pool


def cross(a, b, c):
    """cross(a - c, b - c) of Fraction pairs."""
    return (a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0])


@settings(max_examples=200, deadline=None)
@given(point_lists(min_size=3), st.data())
def test_orient_sign(xys, data):
    pts = [Point(x, y) for x, y in xys]
    for _ in range(6):
        i, j, k = (data.draw(st.integers(0, len(pts) - 1)) for _ in range(3))
        assert (orient_sign(xyd(pts[i]), xyd(pts[j]), xyd(pts[k]))
                == sign(cross(xys[i], xys[j], xys[k])))


@settings(max_examples=200, deadline=None)
@given(point_lists(min_size=3))
def test_corner_signs(xys):
    pts = [Point(x, y) for x, y in xys]
    n = len(pts)
    want = [sign(-cross(xys[i - 1], xys[(i + 1) % n], xys[i])) for i in range(n)]
    ints, xs, ys = point_table(pts)
    assert _corner_signs(ints, xs, ys, static_cross_bound(xs, ys)).tolist() == want


# a nonzero pair, by construction: (0, 0) becomes (1, 0)
nonzero = xy.map(lambda v: v if v[0] or v[1] else (Fraction(1), v[1]))


@st.composite
def directions(draw, xys):
    """(dx, dy) Fractions: drawn freely, or the normal of the difference
    of two distinct points, at a drawn scale, so that heights tie."""
    distinct = list(dict.fromkeys(xys))
    if draw(st.booleans()) and len(distinct) > 1:
        i = draw(st.integers(0, len(distinct) - 1))
        j = draw(st.integers(0, len(distinct) - 2))
        (ax, ay), (bx, by) = distinct[i], distinct[j + (j >= i)]
        t = draw(st.sampled_from([Fraction(1), Fraction(-3, 7), Fraction(10 ** 50, PRIMES[0])]))
        return t * (ay - by), t * (bx - ax)
    return draw(nonzero)


@st.composite
def corners(draw):
    """(apex, prv, nxt), never collinear: nxt - apex = t d1 + u d1', for
    d1 = prv - apex, its normal d1' and u != 0, so the turn is u |d1|^2.
    |t| + |u| <= 1 keeps every coordinate in float range."""
    apex, d1 = draw(xy), draw(nonzero)
    t = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 3)]))
    u = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 10 ** 30),
                              Fraction(-3, 7 * 10 ** 25)]))
    d2 = (t * d1[0] - u * d1[1], t * d1[1] + u * d1[0])
    return apex, (apex[0] + d1[0], apex[1] + d1[1]), (apex[0] + d2[0], apex[1] + d2[1])


@settings(max_examples=200, deadline=None)
@given(corners(), st.data())
def test_double_cone_contains(xys, data):
    apex, prv, nxt = xys
    d1 = (prv[0] - apex[0], prv[1] - apex[1])
    d2 = (nxt[0] - apex[0], nxt[1] - apex[1])
    if d1[0] * d2[1] - d1[1] * d2[0] < 0:
        (prv, d1), (nxt, d2) = (nxt, d2), (prv, d1)
    cone = DoubleCone(Point(*apex), Point(*prv), Point(*nxt))
    for _ in range(4):
        vx, vy = data.draw(directions(xys))
        want = sign(vx * d1[0] + vy * d1[1]) * sign(vx * d2[0] + vy * d2[1]) <= 0
        assert cone.contains(Direction(vx, vy)) == want


@settings(max_examples=200, deadline=None)
@given(point_lists(min_size=2, max_size=4), st.data())
def test_direction_equality_hash_and_sweep_order(xys, data):
    u = data.draw(directions(xys))
    w = data.draw(directions(xys))
    t = data.draw(st.sampled_from([Fraction(-1), Fraction(5, 3), Fraction(-1, 10 ** 300)]))
    du, dw, dt = Direction(*u), Direction(*w), Direction(t * u[0], t * u[1])
    assert (du == dw) == (u[0] * w[1] == u[1] * w[0])
    assert du == dt and hash(du) == hash(dt)

    def reference(a, b):  # the rotational sweep order on canonical Fractions
        pa = 0 if a.dx == 0 else (1 if a.dx < 0 else 2)
        pb = 0 if b.dx == 0 else (1 if b.dx < 0 else 2)
        if pa != pb or pa == 0:
            return pa - pb
        return -sign(a.dx * b.dy - a.dy * b.dx)

    assert _sweep_cmp(du.canonical_pair(), dw.canonical_pair()) == reference(du, dw)
    assert _sweep_cmp(dt.canonical_pair(), du.canonical_pair()) == 0


@settings(max_examples=200, deadline=None)
@given(point_lists(min_size=1, max_size=10), st.data())
def test_height_order_and_tie_pair(xys, data):
    vx, vy = data.draw(directions(xys))
    pts = [Point(x, y) for x, y in xys]
    P = Polygon.__new__(Polygon)
    P._ints, P._coords = point_table(pts)[0], np.array([[p.xf, p.yf] for p in pts])
    v = Direction(vx, vy)  # canonical: (dx, dy) is (vx, vy) or its negation
    height = [v.dx * x + v.dy * y for x, y in xys]
    tied = [h for h in height if height.count(h) > 1]
    if tied:
        with pytest.raises(NonGenericDirectionError) as info:
            _height_order(P, v)
        assert height[info.value.first] == height[info.value.second] == min(tied)
    else:
        assert [height[i] for i in _height_order(P, v)] == sorted(height)


# -- no Fraction below the public API ---------------------------------------

def _count_fractions(monkeypatch) -> list:
    """Count every Fraction made from here on, by any route."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 arithmetic skips __new__
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            made.append(args)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return made


# an L whose reflex corner has a neighbour 1e-30 away, so the float
# mirrors tie and exact lanes run in validation, heights and the sweep
E = 10 ** 30
RING = [[0, 0], [4, 0], [4, 3], [2, 3], [2, 1],
        [f"{2 * E - 3}/{E}", f"{E - 2}/{E}"], ["0/7", "1/1"]]


def test_no_fraction_in_load_sweeps_or_cones(monkeypatch):
    doc = json.dumps({"outer": RING, "holes": []})
    P = load_polygon(doc)
    v = Direction(1, 3)  # heights 5 and 5 - 9e-30 tie as floats only
    cone = P.cone(P.reflex_indices()[0])
    others = [Direction(1, 0), Direction(0, 1), Direction(-2, 3), v]
    # radii are public Fractions; the second star's integers pass 2**63
    stars = [FamilyParams(31), FamilyParams(7, r1=10 ** 7)]

    made = _count_fractions(monkeypatch)
    load_polygon(doc)
    assert made == [], "load_polygon"
    assert is_generic(P, v)
    assert made == [], "is_generic"
    reeb_graph(P, v)
    assert made == [], "reeb_graph"
    for w in others:
        cone.contains(w)
    assert made == [], "DoubleCone.contains"
    built = [lower_bound_polygon(params) for params in stars]
    assert made == [], "lower_bound_polygon"
    built.append(random_simple_polygon(12, 3))
    assert made == [], "random_simple_polygon"
    for Q in [P] + built:
        dump_polygon(Q)
    assert made == [], "dump_polygon"


def test_no_fraction_in_cones_oracle_or_directions(monkeypatch):
    """A cone keeps its vectors as integers and works its arcs out on
    access, and a Direction from non-int components goes through their
    integer ratios: none of these makes a Fraction."""
    outer = [(0, 0), (10, 0), (10, 10), (5, 5), (0, 10)]
    hole = [(2, 1), (2, 3), (4, 3), (4, 1)]
    P, Q, R = (Polygon(outer, [hole]) for _ in range(3))  # fresh cone caches
    v = Direction(1, 3)

    made = _count_fractions(monkeypatch)
    cones = [P.cone(i) for i in P.reflex_indices()]
    assert len(cones) == 5 and made == [], "Polygon.cone"
    for c in cones:
        c.arc_start, c.arc_end
    assert made == [], "arc_start, arc_end"
    branch_witnesses(Q, v)
    assert made == [], "branch_witnesses"
    brute_force_complexity(R)
    assert made == [], "brute_force_complexity"
    Direction("1/3", "2")
    Direction(Decimal("0.5"), 1)
    assert made == [], "Direction"
