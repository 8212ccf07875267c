"""The three polygon families: shape invariants and determinism."""

from fractions import Fraction

import pytest

from ruledpoly import (
    Direction,
    FamilyParams,
    Point,
    Polygon,
    PolygonError,
    annulus_polygon,
    comb_polygon,
    dump_polygon,
    load_polygon,
    lower_bound_polygon,
    parallel_reeb_complexity,
    reeb_graph,
)

from ruledpoly.generators import _certify_star_shaped

from conftest import nudge_generic, point_table


# -- lower-bound family ------------------------------------------------------

def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(6)
    with pytest.raises(ValueError):
        FamilyParams(7, r1=1, r2=1)
    with pytest.raises(ValueError):
        FamilyParams(7, r1=1, r2=2)
    p = FamilyParams(7)
    assert (p.r1, p.r2) == (4, 1)


def test_lower_bound_shape():
    P = lower_bound_polygon(FamilyParams(7))
    assert P.n == 14
    assert P.h == 0
    refl = P.reflex_indices()
    assert len(refl) == 7
    # exactly the inner-circle vertices are reflex: radius 1 vs radius 4
    for i in range(P.n):
        pt = P.vertex(i)
        r2 = pt.x * pt.x + pt.y * pt.y
        if i in refl:
            assert r2 < 4
        else:
            assert r2 > 4


def test_lower_bound_vertices_interleave():
    P = lower_bound_polygon(FamilyParams(9))
    radii = [P.vertex(i).x ** 2 + P.vertex(i).y ** 2 for i in range(P.n)]
    small = [r < 4 for r in radii]
    assert all(a != b for a, b in zip(small, small[1:]))


def test_lower_bound_min_leaves_bound():
    for n in (7, 9, 11):
        P = lower_bound_polygon(FamilyParams(n))
        res = parallel_reeb_complexity(P)
        assert res.min_leaves >= n - 4
        assert res.min_leaves <= P.n // 2 + 1


def test_lower_bound_large_certificate_path():
    """The generator proves every star simple by its certificate instead
    of the validation sweep; reconstructing with the validator must agree
    that the ring is simple."""
    P = lower_bound_polygon(FamilyParams(2500))
    assert P.n == 5000
    Q = Polygon([(pt.x, pt.y) for pt in P.outer.vertices])
    assert Q.n == P.n
    assert len(P.reflex_indices()) == 2500


def _ring(coords):
    """The vertex table and mirrors of the ring through coords."""
    return point_table([Point(x, y) for x, y in coords])


@pytest.mark.parametrize("coords, message", [
    # the second and third vertices lie on one line through the origin
    ([(2, 0), (0, 2), (0, 1), (-2, 0), (0, -2)], "adjacent radial collinearity"),
    # turns counterclockwise, then back clockwise
    ([(2, 0), (0, 2), (-2, 0), (1, 1), (0, -2)], "inconsistent turning"),
    # a triangle and a square about the origin, each wound twice
    ([(2, 0), (-1, 2), (-1, -2)] * 2, "winding is not one turn"),
    ([(2, 0), (0, 2), (-2, 0), (0, -2)] * 2, "winding is not one turn"),
])
def test_star_certificate_failures(coords, message):
    with pytest.raises(PolygonError, match=f"^star certificate failed: {message}$"):
        _certify_star_shaped(*_ring(coords))


@pytest.mark.parametrize("coords", [
    [(2, 0), (0, 2), (-2, 0), (0, -2)],    # on both axes, counterclockwise
    [(0, -2), (-2, 0), (0, 2), (2, 0)],    # the same ring clockwise
    [(-4, 0), (-1, -3), (2, -1), (3, 0), (1, 2), (-1, 1)],  # starts on -x
    # (-1, 1e-400) lies above the x-axis, though its y mirror is 0.0, and
    # turns less far than (-1e100, 1e-301): float signs count two entries
    [(2, 0), (0, 1), (-1, "1e-400"), ("-1e100", "1e-301"), (0, -1)],
])
def test_star_certificate_accepts(coords):
    """Rings that wind once about the origin, turning one way at every
    step, in either orientation and with vertices exactly on the x-axis."""
    _certify_star_shaped(*_ring(coords))
    _certify_star_shaped(*_ring(list(reversed(coords))))


def test_lower_bound_custom_radii():
    P = lower_bound_polygon(FamilyParams(7, r1=10, r2=Fraction(1, 2)))
    assert P.n == 14
    assert len(P.reflex_indices()) == 7


def test_lower_bound_deterministic():
    a = dump_polygon(lower_bound_polygon(FamilyParams(15)))
    b = dump_polygon(lower_bound_polygon(FamilyParams(15)))
    assert a == b


# -- comb family -------------------------------------------------------------

def test_comb_counts():
    for teeth in (2, 3, 4, 6):
        P = comb_polygon(teeth)
        k = len(P.reflex_indices())
        assert k == 2 * (teeth - 1)
        assert P.h == 0


def test_comb_axis_directions_are_generic(comb4):
    # coordinates are jittered so both axes separate all vertex heights
    assert reeb_graph(comb4, Direction(0, 1)).l == 8
    assert reeb_graph(comb4, Direction(1, 0)).l == 2


def test_comb_two_teeth():
    P = comb_polygon(2)
    assert reeb_graph(P, Direction(0, 1)).l == 4
    assert reeb_graph(P, Direction(1, 0)).l == 2
    assert parallel_reeb_complexity(P).min_leaves == 2


def test_comb_validation():
    with pytest.raises(ValueError):
        comb_polygon(1)


# -- annulus -----------------------------------------------------------------

def test_annulus_shape(annulus):
    assert annulus.n == 8
    assert annulus.h == 1
    assert len(annulus.reflex_indices()) == 4
    hole = annulus.holes[0]
    assert all((i in annulus.reflex_indices()) == (i >= 4) for i in range(8))
    assert len(hole.vertices) == 4


def test_annulus_validation():
    with pytest.raises(ValueError):
        annulus_polygon(4, 4)
    with pytest.raises(ValueError):
        annulus_polygon(4, 0)


def test_annulus_reeb_structure(annulus):
    g = reeb_graph(annulus, nudge_generic(annulus, 1, 1))
    assert (g.l, g.b) == (2, 2)
    assert g.cycle_rank == 1


# -- shared contracts --------------------------------------------------------

def test_generators_round_trip_bytes():
    for P in (lower_bound_polygon(FamilyParams(9)), comb_polygon(3),
              annulus_polygon(8, 3)):
        text = dump_polygon(P)
        assert dump_polygon(load_polygon(text)) == text
