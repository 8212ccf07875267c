"""Polygon loading, validation, reflex detection, and cone construction."""

import json
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
    is_reflex,
    load_polygon,
    lower_bound_polygon,
)
from ruledpoly.exactmath import orient_sign

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
    assert orient_sign(Point("1e-400", "1e-200"), Point(1, "1e300"), Point(0, 0)) == 1
    text = '{"outer":[[0,0],["1e-400","1e-200"],[1,1e300]]}'
    P = load_polygon(text)
    assert P.reflex_indices() == ()
    assert Polygon(P.outer, validate=False).reflex_indices() == ()
    assert geometry._corner_signs(list(P.outer), *geometry._mirrors(list(P.outer))).tolist() \
        == [1, 1, 1]


def test_clean_ring_skips_merge_loop(monkeypatch):
    """The exact merge loop runs only for a ring with a zero corner sign:
    never on a 20 000-vertex star, once on a square with a midpoint."""
    text = dump_polygon(lower_bound_polygon(FamilyParams(10_000)))
    calls = 0
    merge = geometry._merge_ring

    def counted(pts):
        nonlocal calls
        calls += 1
        return merge(pts)

    monkeypatch.setattr(geometry, "_merge_ring", counted)
    assert load_polygon(text).n == 20_000
    assert calls == 0
    assert Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]).n == 4
    assert calls == 1


def test_parse_error_named():
    with pytest.raises(PolygonParseError):
        load_polygon("not json at all")
    with pytest.raises(PolygonParseError):
        load_polygon('{"holes": []}')


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
    assert all(not is_reflex(P, i) for i in range(P.n))


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


def test_reflex_plus_convex_is_n(l_poly, annulus):
    for P in (l_poly, annulus):
        k = len(P.reflex_indices())
        convex = sum(1 for i in range(P.n) if not is_reflex(P, i))
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
