"""Height orders and Reeb graphs of many directions of one polygon, a
block of directions at a time, against a stable sort of exact Fraction
heights; and Directions and Points built from each coordinate type
alike."""

import decimal
import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from ruledpoly import (
    Direction,
    NonGenericDirectionError,
    Point,
    Polygon,
    PolygonParseError,
    random_simple_polygon,
    reeb_graph,
)
from ruledpoly import exactmath, reeb
from ruledpoly.exactmath import filtered_order
from ruledpoly.reeb import _height_order, _height_orders, _reeb_graphs

# an L whose reflex corner has a neighbour 1e-30 away: its heights tie as
# floats under every direction
from test_integer_kernel import E, RING


@st.composite
def polygons(draw):
    """A random simple polygon, a square with one or two random holes
    (at 12 decimal digits, then halved), or the 1e-30 L."""
    kind = draw(st.sampled_from(["random", "holes", "ring"]))
    if kind == "ring":
        return Polygon(RING)
    seed = draw(st.integers(1, 500))
    if kind == "random":
        return random_simple_polygon(draw(st.integers(3, 12)), seed)
    holes = [[(p.x / 2 + cx, p.y / 2) for p in random_simple_polygon(
        draw(st.integers(3, 8)), seed + k).outer.vertices]
        for k, cx in enumerate([-1, 1][:draw(st.integers(1, 2))])]
    return Polygon([(-2, -2), (2, -2), (2, 2), (-2, 2)], holes)


@st.composite
def direction_lists(draw, P):
    """Directions drawn freely, orthogonal to a vertex-pair difference
    (an exact tie), or that orthogonal turned by 1e-30 (a float chain)."""
    pts = [P.vertex(i) for i in range(P.n)]
    out = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "free", "free", "tie", "near"]))
        if kind == "free":
            a, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
            out.append(Direction(a, b) if a or b else Direction(1, 3))
            continue
        i = draw(st.integers(0, P.n - 1))
        j = draw(st.integers(0, P.n - 2))
        p, q = pts[i], pts[j + (j >= i)]
        dx, dy = q.y - p.y, p.x - q.x
        if kind == "near":
            dx += Fraction(1, E)
        out.append(Direction(dx, dy) if dx or dy else Direction(1, 3))
    return out


def exact_order(P, v):
    """A stable sort of the exact heights, and the tied heights."""
    height = [v.dx * P.vertex(i).x + v.dy * P.vertex(i).y for i in range(P.n)]
    return sorted(range(P.n), key=height.__getitem__), height, \
        [h for h in height if height.count(h) > 1]


@settings(max_examples=150, deadline=None)
@given(st.data(), polygons(), st.sampled_from([5, 40, 4096]))
def test_height_orders_match_exact_sort(data, P, block):
    """Every row is the exact order, blocks hold at most _LANE_BLOCK // n
    rows, and the first direction that ties two heights raises in its
    turn, after the rows before it, naming what _height_order names."""
    dirs = data.draw(direction_lists(P))
    rows, raised = [], None
    with patch.object(exactmath, "_LANE_BLOCK", block):
        try:
            for orders in _height_orders(P, dirs):
                assert len(orders) <= max(1, block // P.n)
                rows.extend(orders.tolist())
        except NonGenericDirectionError as exc:
            raised = exc
    for k, v in enumerate(dirs):
        order, height, tied = exact_order(P, v)
        if tied:
            assert len(rows) == k and raised is not None and raised.direction is v
            assert height[raised.first] == height[raised.second] == min(tied)
            with pytest.raises(NonGenericDirectionError) as alone:
                _height_order(P, v)
            assert (alone.value.first, alone.value.second) == (raised.first, raised.second)
            return
        assert rows[k] == order
    assert raised is None and len(rows) == len(dirs)


@pytest.mark.parametrize("P, exact_rows", [(random_simple_polygon(12, 5), 0), (Polygon(RING), 3)])
def test_only_rows_with_float_chains_go_exact(P, exact_rows):
    """Rows whose float heights are all apart take no exact step. On the
    1e-30 L the reflex corner and its neighbour tie as floats under
    every direction, so every row does."""
    dirs = [Direction(1, 3), Direction(-2, 5), Direction(7, 1)]
    calls = []

    def spy(values, *args):
        calls.append(len(values))
        return filtered_order(values, *args)

    with patch.object(reeb, "filtered_order", spy):
        rows = [row for orders in _height_orders(P, dirs) for row in orders.tolist()]
    assert rows == [exact_order(P, v)[0] for v in dirs]
    assert calls == [P.n] * exact_rows


@settings(max_examples=60, deadline=None)
@given(st.data(), polygons(), st.sampled_from([5, 4096]))
def test_graphs_before_a_non_generic_direction(data, P, block):
    """A non-generic direction mid-list: the graphs before it are
    reeb_graph's, and its error names reeb_graph's vertex pair."""
    dirs = [v for v in data.draw(direction_lists(P)) if not exact_order(P, v)[2]]
    p, q = P.vertex(0), P.vertex(P.n // 2)
    bad = Direction(q.y - p.y, p.x - q.x)
    cut = data.draw(st.integers(0, len(dirs)))
    got = []
    with patch.object(exactmath, "_LANE_BLOCK", block), \
            pytest.raises(NonGenericDirectionError) as info:
        for g in _reeb_graphs(P, dirs[:cut] + [bad] + dirs[cut:]):
            got.append(g)
    assert got == [reeb_graph(P, v) for v in dirs[:cut]]
    with pytest.raises(NonGenericDirectionError) as alone:
        reeb_graph(P, bad)
    assert (info.value.first, info.value.second) == (alone.value.first, alone.value.second)
    assert str(info.value) == str(alone.value)


PAIRS = [(3, 4), (-3, 4), (3, -4), (-3, -4), (6, -4), (0, 5), (0, -5), (7, 0), (-7, 0),
         (1, 10 ** 30), (-(10 ** 400), 3), (10 ** 400, -(10 ** 401))]


@pytest.mark.parametrize("a, b", PAIRS)
def test_direction_from_each_type(a, b):
    """int, Fraction, str and Decimal components give one Direction: the
    canonical sign, Fraction dx and dy, repr, hash, pair and floats."""
    ca, cb = (-a, -b) if b < 0 or (b == 0 and a < 0) else (a, b)
    pair = (ca // math.gcd(ca, cb), cb // math.gcd(ca, cb))
    forms = [Direction(a, b), Direction(Fraction(a), Fraction(b)), Direction(str(a), str(b)),
             Direction(decimal.Decimal(a), decimal.Decimal(b)), Direction(a, Fraction(b))]
    for v in forms:
        assert (v.dx, v.dy) == (ca, cb) and type(v.dx) is type(v.dy) is Fraction
        assert repr(v) == f"Direction({ca}, {cb})"
        assert v.canonical_pair() == pair and hash(v) == hash(pair) and v == forms[0]
        assert (v.fdx, v.fdy) == (forms[0].fdx, forms[0].fdy)
    if max(abs(a), abs(b)) < 10 ** 300:
        assert (forms[0].fdx, forms[0].fdy) == (float(ca), float(cb))
    thirds = Direction(Fraction(a, 3), Fraction(b, 3))
    assert (thirds.dx, thirds.dy) == (Fraction(ca, 3), Fraction(cb, 3))
    assert repr(thirds) == f"Direction({Fraction(ca, 3)}, {Fraction(cb, 3)})"
    assert thirds == forms[0] and hash(thirds) == hash(pair)


@pytest.mark.parametrize("dx, dy", [(True, 1), (1, False), (True, True)])
def test_direction_refuses_bools(dx, dy):
    with pytest.raises(PolygonParseError, match="unsupported coordinate type bool"):
        Direction(dx, dy)


@pytest.mark.parametrize("dx, dy", [(0, 0), (Fraction(0), 0), ("0", decimal.Decimal("-0.0")),
                                    ("0/5", 0)])
def test_direction_refuses_zero(dx, dy):
    with pytest.raises(ValueError, match="the zero vector has no direction"):
        Direction(dx, dy)


@pytest.mark.parametrize("x, y", [(3, -4), (Fraction(1, 3), Fraction(2, 3)),
                                  (Fraction(1, 3), Fraction(1, 6)), ("1/3", "0.5"),
                                  (decimal.Decimal("0.25"), decimal.Decimal("-1.5")),
                                  (-7, decimal.Decimal("2.5e-3")), (2.5, 0)])
def test_point_from_each_type(x, y):
    """A Point holds its coordinates over their least common denominator,
    with the correctly rounded float mirrors, whatever their types."""
    fx, fy = Fraction(x), Fraction(y)
    d = math.lcm(fx.denominator, fy.denominator)
    p = Point(x, y)
    assert (p.X, p.Y, p.D) == (fx * d, fy * d, d)
    assert (p.xf, p.yf) == (float(fx), float(fy))


@pytest.mark.parametrize("x, match", [
    (True, "unsupported coordinate type bool"),
    (decimal.Decimal("NaN"), "non-finite coordinate"),
    (decimal.Decimal("-Infinity"), "non-finite coordinate"),
    (float("inf"), "non-finite coordinate"),
    (decimal.Decimal("1e309"), "beyond the float range"),
])
def test_point_refusals(x, match):
    with pytest.raises(PolygonParseError, match=match):
        Point(x, 0)
