"""Polygon loading, validation, reflex detection, and cone construction."""

import json
import sys
from fractions import Fraction

import pytest

import ruledpoly.geometry as geometry
from ruledpoly import (
    Direction,
    FamilyParams,
    HolePlacementError,
    NonReflexVertexError,
    Point,
    Polygon,
    PolygonError,
    PolygonParseError,
    SelfIntersectionError,
    SlitVertexError,
    TooFewVerticesError,
    as_fraction,
    dump_polygon,
    load_polygon,
    lower_bound_polygon,
)
from ruledpoly.exactmath import orient_sign, static_cross_bound

from conftest import point_table, xyd

L_RING = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


# -- loading and validation --------------------------------------------------

def test_load_unit_square():
    P = load_polygon('{"outer": [[0,0],[1,0],[1,1],[0,1]], "holes": []}')
    assert P.n == 4
    assert P.h == 0


def test_load_square_with_centered_hole():
    doc = {
        "outer": [[0, 0], [4, 0], [4, 4], [0, 4]],
        "holes": [[[1, 1], [3, 1], [3, 3], [1, 3]]],
    }
    P = load_polygon(json.dumps(doc))
    assert P.n == 8
    assert P.h == 1


def test_load_accepts_decimal_literals():
    P = load_polygon('{"outer": [[0,0],["1.5",0],[1.5,"2.25"],[0,2.25]], "holes": []}')
    xs = [pt.x for pt in P.outer.vertices]
    assert Fraction(3, 2) in xs


def test_bowtie_rejected():
    with pytest.raises(SelfIntersectionError):
        Polygon([(0, 0), (2, 2), (2, 0), (0, 2)])


def test_too_few_vertices():
    with pytest.raises(TooFewVerticesError):
        Polygon([(0, 0), (1, 0)])


def test_collinear_run_merged():
    # (1,0) is a straight-angle vertex, not a corner
    P = Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    assert P.n == 4


def test_slit_vertex_rejected():
    with pytest.raises(SlitVertexError):
        Polygon([(0, 0), (2, 0), (1, 1), (2, 0), (0, 2)])


def test_hole_outside_outer_rejected():
    with pytest.raises(HolePlacementError):
        Polygon([(0, 0), (2, 0), (2, 2), (0, 2)],
                holes=[[(5, 5), (6, 5), (6, 6), (5, 6)]])


def test_nested_holes_rejected():
    with pytest.raises(HolePlacementError):
        Polygon([(0, 0), (10, 0), (10, 10), (0, 10)],
                holes=[[(1, 1), (8, 1), (8, 8), (1, 8)],
                       [(2, 2), (3, 2), (3, 3), (2, 3)]])


SQUARE_10 = [(0, 0), (10, 0), (10, 10), (0, 10)]


@pytest.mark.parametrize("outer, holes, expected", [
    pytest.param([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)], [],
                 SelfIntersectionError, id="ring-pinched-at-repeated-vertex"),
    pytest.param([(0, 0), (6, 0), (6, 4), (3, 0), (0, 4)], [],
                 SelfIntersectionError, id="vertex-on-nonadjacent-edge"),
    pytest.param([(0, 0), (4, 0), (4, 3), (1, 3), (1, 1), (3, 1), (3, 3), (2, 3), (2, 4),
                  (0, 4)], [],
                 SelfIntersectionError, id="collinear-overlapping-edges"),
    pytest.param([(0, 0), (4, 0), (4, 4), (0, 4)], [[(2, 0), (3, 1), (1, 1)]],
                 HolePlacementError, id="hole-vertex-on-outer-edge"),
    pytest.param(SQUARE_10, [[(2, 2), (4, 2), (4, 4), (2, 4)], [(4, 4), (6, 4), (6, 6), (4, 6)]],
                 HolePlacementError, id="holes-share-one-vertex"),
    pytest.param(SQUARE_10, [[(1, 1), (8, 1), (8, 8), (1, 8)], [(3, 3), (5, 3), (5, 5), (3, 5)]],
                 HolePlacementError, id="hole-in-hole"),
    pytest.param([(2, 2), (4, 2), (4, 4), (2, 4)], [SQUARE_10],
                 HolePlacementError, id="hole-contains-outer-ring"),
    pytest.param(SQUARE_10, [[(2, 1), (3, 1), (3, 2), (2, 2)], [(2, 3), (4, 3), (4, 4), (2, 4)],
                             [(2, 5), (3, 5), (3, 7), (2, 7)], [(2, 8), (3, 9), (2, 9)]],
                 None, id="vertices-on-one-vertical-line"),
    pytest.param([(0, 0), (4, 0), (4, 4), (0, 4)],
                 [[(1, Fraction(1, 10 ** 9)), (2, 1), (1, 1)]],
                 None, id="hole-1e-9-from-outer-edge"),
])
def test_degenerate_contacts(outer, holes, expected):
    """Touching counts as intersecting: any shared point other than the
    vertex of two consecutive edges is rejected, however degenerate."""
    if expected is None:
        assert Polygon(outer, holes).h == len(holes)
    else:
        with pytest.raises(expected):
            Polygon(outer, holes)


@pytest.mark.filterwarnings("error")
def test_coordinates_near_float_limit():
    """Mirror differences overflow to inf; the filters fall back to exact
    without a numpy warning."""
    big = Fraction(10) ** 308
    P = Polygon([(-big, -big), (big, -big), (big, big), (0, big / 2), (-big, big)])
    assert [(P.vertex(i).x, P.vertex(i).y) for i in P.reflex_indices()] == [(0, big / 2)]


@pytest.mark.filterwarnings("error")
def test_coordinates_below_float_range():
    """A mirror below 2^-1022 is off by more than a relative ulp (1e-400
    rounds to 0.0); the filters' absolute term sends it to the exact path."""
    assert orient_sign(xyd(Point("1e-400", "1e-200")), xyd(Point(1, "1e300")),
                       xyd(Point(0, 0))) == 1
    text = '{"outer":[[0,0],["1e-400","1e-200"],[1,1e300]]}'
    P = load_polygon(text)
    assert P.reflex_indices() == ()
    assert Polygon(P.outer, validate=False).reflex_indices() == ()
    ints, xs, ys = point_table(list(P.outer))
    assert geometry._corner_signs(ints, xs, ys, static_cross_bound(xs, ys)).tolist() == [1, 1, 1]


@pytest.mark.parametrize("text", [
    '{"outer": [[0,0],[1,0],[0,1e4000000]]}',
    '{"outer": [[0,0],[1,0],[0,"-1e4000000"]]}',
    '{"outer": [[0,0],[1,0],[0,1e309]]}',
])
def test_coordinate_exponent_beyond_float_range(text):
    """A decimal of 1e309 or more is refused by its exponent: its integer
    ratio (13 million bits for 1e4000000) is never built."""
    built = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "as_integer_ratio":
            built.append(arg)

    sys.setprofile(profile)
    try:
        with pytest.raises(PolygonParseError, match="^coordinate beyond the float range"):
            load_polygon(text)
    finally:
        sys.setprofile(None)
    assert built == []


def test_coordinate_exponent_cap_keeps_values_in_range():
    """Zero, and decimals whose exponent is large but whose value is in
    range, still load; a Direction takes any component."""
    assert Point("0e4000000", 1) == Point(0, 1)
    assert Point("0.0001e312", 0).x == 10 ** 308
    with pytest.raises(PolygonParseError, match="^coordinate beyond the float range"):
        Point("1.8e308", 0)  # exponent 308, value beyond the largest float
    assert Direction("1e400", 1).canonical_pair() == (10 ** 400, 1)


def test_clean_ring_skips_merge_loop(monkeypatch):
    """The exact merge gathers (delta_lanes) run only for a ring with a
    zero corner sign: never on a 20 000-vertex star, once (two gathers)
    on a square with a midpoint."""
    text = dump_polygon(lower_bound_polygon(FamilyParams(10_000)))
    calls = 0
    gather = geometry.delta_lanes

    def counted(pts, lanes):
        nonlocal calls
        calls += 1
        return gather(pts, lanes)

    monkeypatch.setattr(geometry, "delta_lanes", counted)
    assert load_polygon(text).n == 20_000
    assert calls == 0
    assert Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]).n == 4
    assert calls == 2


def test_parse_error_named():
    with pytest.raises(PolygonParseError):
        load_polygon("not json at all")
    with pytest.raises(PolygonParseError):
        load_polygon('{"holes": []}')


def test_rational_literal_beyond_digit_limit_named():
    """A "p/q" literal whose p or q has more than 4300 digits, and a JSON
    integer of as many, is a PolygonParseError, its digits counted before
    int() reads them: the same outcome at the interpreter's default digit
    limit and with no limit (0), where there is one to set."""
    text = json.dumps({"outer": [[0, 0], ["1/1" + "0" * 5000, 0], [0, 1]]})
    get = getattr(sys, "get_int_max_str_digits", None)
    old = get() if get else None
    try:
        for limit in (old, 0) if get else (None,):
            if get:
                sys.set_int_max_str_digits(limit)
            with pytest.raises(PolygonParseError, match="^coordinate literal of 5003 characters "
                                                        "has too many digits$"):
                load_polygon(text)
            with pytest.raises(PolygonParseError, match="^integer with too many digits"):
                load_polygon('{"outer": [[0, 0], [1, 0], [0, 1' + "0" * 5000 + "]]}")
    finally:
        if get:
            sys.set_int_max_str_digits(old)
    # 4300 digits in p and in q still parse
    assert Point("9" * 4300 + "/1" + "0" * 4299, 0).x == Fraction(int("9" * 4300), 10 ** 4299)


def test_nonfinite_coordinates_rejected():
    with pytest.raises(PolygonError):
        Polygon([(0, 0), (float("nan"), 0), (1, 1)])
    with pytest.raises(PolygonError):
        Polygon([(0, 0), (float("inf"), 0), (1, 1)])


def test_orientation_normalization_idempotent():
    """Feeding a normalized polygon's rings back in changes nothing."""
    P = Polygon(list(reversed(L_RING)))  # clockwise input
    once = dump_polygon(P)
    Q = Polygon([(pt.x, pt.y) for pt in P.outer.vertices],
                holes=[[(pt.x, pt.y) for pt in r.vertices] for r in P.holes])
    assert dump_polygon(Q) == once


def test_round_trip_byte_identical():
    P = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]])
    text = dump_polygon(P)
    assert dump_polygon(load_polygon(text)) == text


def test_non_decimal_rational_round_trip():
    P = Polygon([(0, 0), (1, 0), (Fraction(1, 3), Fraction(5, 4))])
    text = dump_polygon(P)
    assert text == '{"outer":[[0,0],[1,0],["1/3",1.25]],"holes":[]}\n'
    assert load_polygon(text).outer.vertices == P.outer.vertices


# -- reflex detection --------------------------------------------------------

def test_convex_polygon_has_no_reflex():
    P = Polygon([(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])
    assert P.reflex_indices() == ()
    assert all(i not in P.reflex_indices() for i in range(P.n))


def test_l_polygon_reflex_vertex():
    P = Polygon(L_RING)
    refl = P.reflex_indices()
    assert len(refl) == 1
    (i,) = refl
    assert (P.vertex(i).x, P.vertex(i).y) == (1, 1)


def test_convex_hole_corners_all_reflex():
    P = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]])
    refl = P.reflex_indices()
    assert len(refl) == 4
    assert all(P.vertex(i).x in (1, 3) for i in refl)


STAR14 = lower_bound_polygon(FamilyParams(7))  # 14 vertices, the even ones reflex


@pytest.mark.parametrize("i", [-1, -14, 14])
def test_vertex_index_out_of_range(i):
    with pytest.raises(IndexError):
        STAR14.vertex(i)


@pytest.mark.parametrize("i", [-1, -14, 14])
def test_neighbors_index_out_of_range(i):
    with pytest.raises(IndexError):
        STAR14.neighbors(i)


@pytest.mark.parametrize("i", [-2, -14, 14])
def test_cone_index_out_of_range(i):
    """A negative index names no second cone of a vertex, and caches none."""
    P = lower_bound_polygon(FamilyParams(7))
    assert P.n == 14 and P.cone(12) is P.cone(12)
    with pytest.raises(IndexError):
        P.cone(i)
    assert list(P._cones) == [12]


def test_reflex_plus_convex_is_n(l_poly, annulus):
    for P in (l_poly, annulus):
        k = len(P.reflex_indices())
        convex = sum(1 for i in range(P.n) if i not in P.reflex_indices())
        assert k + convex == P.n


# -- directions and cones ----------------------------------------------------

def test_direction_mod_180():
    assert Direction(1, 1) == Direction(-1, -1)
    assert Direction(0, -3) == Direction(0, 1)
    assert Direction(2, 0) == Direction(-5, 0)
    assert Direction(1, 1) != Direction(1, -1)


def test_direction_rejects_zero_vector():
    with pytest.raises(ValueError):
        Direction(0, 0)


def test_cone_of_l_polygon(l_poly):
    (i,) = l_poly.reflex_indices()
    c = l_poly.cone(i)
    assert (c.apex.x, c.apex.y) == (1, 1)
    assert {c.arc_start, c.arc_end} == {Direction(0, 1), Direction(1, 0)}
    assert c.contains(Direction(1, -1))
    assert not c.contains(Direction(1, 1))


def test_cone_is_closed_at_boundaries(l_poly):
    (i,) = l_poly.reflex_indices()
    c = l_poly.cone(i)
    assert c.contains(c.arc_start)
    assert c.contains(c.arc_end)


def test_cone_excludes_normal_bisector(l_poly):
    # bisector of (0,1) and (1,0) is (1,1); the cone must not contain it
    (i,) = l_poly.reflex_indices()
    c = l_poly.cone(i)
    assert not c.contains(Direction(1, 1))


def test_cone_of_non_reflex_rejected(square):
    with pytest.raises(NonReflexVertexError):
        square.cone(0)


def test_wide_cone_limiting_case():
    # interior angle just above 180 degrees: the two edge normals nearly
    # oppose each other and the cone covers all but a thin band
    P = Polygon([(0, 0), (4, 0), (4, 4), (2, 4 - Fraction(1, 100)), (0, 4)])
    (i,) = P.reflex_indices()
    c = P.cone(i)
    for v in (Direction(1, 0), Direction(1, 1), Direction(1, -1), Direction(1, 5)):
        assert c.contains(v)
    assert not c.contains(Direction(0, 1))


def test_as_fraction_forms():
    assert as_fraction("0.125") == Fraction(1, 8)
    assert as_fraction(3) == 3
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction("-7/3") == Fraction(-7, 3)
    for bad in ("nan", "inf", "1/0", "abc"):
        with pytest.raises(PolygonParseError):
            as_fraction(bad)


def test_point_fields_are_fractions():
    p = Point(as_fraction("1.5"), as_fraction(2))
    assert p.x == Fraction(3, 2) and p.y == 2


@pytest.mark.parametrize("text, value", [
    ("0.125", Fraction(1, 8)), ("+1.5", Fraction(3, 2)), ("-.5", Fraction(-1, 2)),
    ("1.", Fraction(1)), ("2e3", Fraction(2000)), ("-25E-2", Fraction(-1, 4)),
    ("-7/3", Fraction(-7, 3)), ("+2/4", Fraction(1, 2)), ("0/5", Fraction(0)),
])
def test_literal_grammar_accepts(text, value):
    assert as_fraction(text) == value
    P = load_polygon(json.dumps({"outer": [[0, 0], [4, 0], [text, 3]]}))
    assert P.vertex(2).x == value


@pytest.mark.parametrize("bad", [
    "1_000", "1/2_0", " 1", "1 ", "1\n", "+", ".", "e5", "1e", "1/-3", "-1/-3", "1/0",
    "1/00", "1.5/2", "0x10", "Infinity", "\u0661", True, False, None, [1],
])
def test_literal_grammar_rejects(bad):
    """Python 3.11 and later accept underscores in Fraction(str), 3.10 does
    not; the grammar is the same on every version, and a bool is no number."""
    with pytest.raises(PolygonParseError):
        as_fraction(bad)
    with pytest.raises(PolygonParseError):
        load_polygon(json.dumps({"outer": [[0, 0], [4, 0], [bad, 3]]}))


def test_dumped_strings_load():
    """Every string dump_polygon writes is in the grammar."""
    third = Fraction(1, 3)
    P = Polygon([(0, 0), (4 + third, -third), (Fraction(5, 2), Fraction(10 ** 30 + 1, 7))],
                [[(1, Fraction(1, 7)), (Fraction(3, 2), Fraction(2, 7)), (Fraction(6, 5), 1)]])
    assert dump_polygon(load_polygon(dump_polygon(P))) == dump_polygon(P)


def test_point_holds_canonical_integers():
    """(X, Y, D) with D the least common denominator decides == and hash."""
    p = Point("1/3", 0.5)
    assert (p.X, p.Y, p.D) == (2, 3, 6)
    q = Point(Fraction(2, 6), "0.50")
    assert p == q and hash(p) == hash(q)
    assert (p.xf, p.yf) == (float(Fraction(1, 3)), 0.5)
    assert repr(Point(Fraction(-4, 6), 7)) == "Point(-2/3, 7)"
