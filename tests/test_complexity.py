"""The rotational cone sweep: coverage maxima, witnesses, and the formula."""

import json
import math
from fractions import Fraction

import pytest

from ruledpoly import (
    Direction,
    Polygon,
    brute_force_complexity,
    comb_polygon,
    max_cone_coverage,
    parallel_reeb_complexity,
    random_simple_polygon,
    reeb_graph,
)


def cones_of(P):
    return [P.cone(i) for i in P.reflex_indices()]


def coverage_at(cones, v):
    return sum(1 for c in cones if c.contains(v))


# -- max_cone_coverage -------------------------------------------------------

def test_no_cones():
    c, w = max_cone_coverage([])
    assert c == 0
    assert isinstance(w, Direction)


def test_single_cone_l_polygon(l_poly):
    cones = cones_of(l_poly)
    c, w = max_cone_coverage(cones)
    assert c == 1
    assert cones[0].contains(w)


def test_shared_boundary_scores_two(annulus):
    """Two cones sharing a boundary direction overlap at that closed
    endpoint, and entries-before-exits counting reaches 2 there."""
    cn = cones_of(annulus)
    c, w = max_cone_coverage([cn[0], cn[1]])
    assert c == 2
    assert cn[0].contains(w) and cn[1].contains(w)
    # the witness is forced onto a shared boundary direction
    assert w in (cn[0].arc_start, cn[0].arc_end)


def test_identical_cones_cover_interval(annulus):
    cn = cones_of(annulus)
    pair = [cn[0], cn[2]]  # opposite hole corners carry the same double cone
    c, w = max_cone_coverage(pair)
    assert c == 2
    assert all(x.contains(w) for x in pair)


def test_full_hole_coverage_is_pointwise(annulus):
    # all four cones: every boundary angle is shared by two cones, and the
    # two diagonal interval families each cover only 2
    c, w = max_cone_coverage(cones_of(annulus))
    assert c == 4
    assert coverage_at(cones_of(annulus), w) == 4


# -- parallel_reeb_complexity ------------------------------------------------

def test_convex_polygons_min_two():
    for ring in (
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(0, 0), (3, 0), (4, 2), (2, 4), (-1, 2)],
    ):
        P = Polygon(ring)
        res = parallel_reeb_complexity(P)
        assert res.min_leaves == 2
        assert res.c_max == 0 and res.k == 0 and not res.degenerate
        assert reeb_graph(P, res.witness).l == 2


def test_l_polygon_result(l_poly):
    res = parallel_reeb_complexity(l_poly)
    assert res.min_leaves == 2
    assert res.c_max == 1 and res.k == 1 and res.h == 0
    assert not res.degenerate
    assert cones_of(l_poly)[0].contains(res.witness)
    assert reeb_graph(l_poly, res.witness).l == 2


def test_comb_reaches_full_coverage(comb4):
    res = parallel_reeb_complexity(comb4)
    assert res.k == 6
    assert res.c_max == 6
    assert res.min_leaves == 2
    assert not res.degenerate


def test_annulus_degenerate_flag(annulus):
    """The hole's four cones pairwise share boundaries: pointwise coverage
    peaks at 4 on the axis directions, but no open arc beats 2. The axis
    directions tie vertex heights, so the reported optimum is the interval
    value and the gap raises the degenerate flag."""
    res = parallel_reeb_complexity(annulus)
    assert res.min_leaves == 2
    assert res.c_max == 2
    assert res.k == 4 and res.h == 1
    assert res.degenerate
    assert reeb_graph(annulus, res.witness).l == 2
    closed_max, _ = max_cone_coverage(cones_of(annulus))
    assert closed_max == 4  # the flagged pointwise spike


def test_formula_and_witness_invariants():
    for seed in range(1, 13):
        P = random_simple_polygon(18, seed)
        res = parallel_reeb_complexity(P)
        k = len(P.reflex_indices())
        assert res.k == k and res.h == P.h
        assert res.min_leaves == k - res.c_max + 2 - 2 * res.h
        assert coverage_at(cones_of(P), res.witness) == res.c_max
        assert reeb_graph(P, res.witness).l == res.min_leaves


def test_upper_bound_on_random_suite():
    for seed in range(1, 21):
        P = random_simple_polygon(10 + seed % 9, seed)
        res = parallel_reeb_complexity(P)
        assert res.min_leaves <= P.n // 2 + 1


def test_degenerate_flag_matches_oracle_boundary_view():
    for seed in range(1, 16):
        P = random_simple_polygon(20, seed)
        res = parallel_reeb_complexity(P)
        orc = brute_force_complexity(P)
        assert res.min_leaves == orc.min_leaves
        assert res.degenerate == orc.boundary_beats_interior


def test_rotation_equivariance(l_poly, comb4):
    """Rotating by a rational rotation (3-4-5 triangle) preserves the
    minimum; the witness family just rotates along."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    for P in (l_poly, comb4):
        ring = [(c * p.x - s * p.y, s * p.x + c * p.y)
                for p in P.outer.vertices]
        Q = Polygon(ring)
        assert parallel_reeb_complexity(Q).min_leaves == \
            parallel_reeb_complexity(P).min_leaves


def test_result_export_shape(l_poly):
    d = parallel_reeb_complexity(l_poly).as_dict()
    assert set(d) == {"min_leaves", "c_max", "k", "h", "witness", "degenerate"}
    assert isinstance(d["witness"], list) and len(d["witness"]) == 2
    json.dumps(d)  # exportable as-is


def test_object_route_matches_array_route():
    """max_cone_coverage on materialized cones vs the coordinate-array
    sweep inside parallel_reeb_complexity: interval maxima must agree
    whenever no pointwise spike exists, and the formula ties them."""
    for seed in (2, 5, 8, 13):
        P = random_simple_polygon(22, seed)
        res = parallel_reeb_complexity(P)
        closed_max, _ = max_cone_coverage(cones_of(P))
        if res.degenerate:
            assert closed_max > res.c_max
        else:
            assert closed_max == res.c_max


def test_many_distinct_denominators():
    """Coordinates over 80 distinct primes near 1e6: one denominator common
    to all vertices would pass 2^1500, beyond float range, so exact edge
    vectors must keep each vertex's own scale."""
    primes = [p for p in range(10 ** 6, 10 ** 6 + 2000)
              if all(p % q for q in range(2, 1002))][:80]
    ring = []
    for i in range(40):
        r = 4 if i % 2 == 0 else 1
        a = math.pi * i / 20
        px, py = primes[2 * i], primes[2 * i + 1]
        ring.append((Fraction(round(r * math.sin(a) * px), px),
                     Fraction(round(r * math.cos(a) * py), py)))
    P = Polygon(ring)
    res = parallel_reeb_complexity(P)
    assert res.k == 20
    assert reeb_graph(P, res.witness).l == res.min_leaves


def test_witness_angles_cover_both_phases():
    # regression guard for the sweep seam: witnesses on either side of
    # vertical must both validate
    seen_neg = seen_pos = False
    for seed in range(1, 30):
        P = random_simple_polygon(12, seed)
        res = parallel_reeb_complexity(P)
        fx = float(res.witness.dx)
        seen_neg |= fx < 0
        seen_pos |= fx > 0
        assert reeb_graph(P, res.witness).l == res.min_leaves
    assert seen_neg and seen_pos


@pytest.mark.parametrize("dy", [-2, 1])
def test_edge_with_zero_float_vector(dy):
    """The reflex vertex's edge to its next vertex is far below an ulp, so
    its float vector is (0, 0) and its sweep angle is unknown: the angle
    bound must send it to the exact order (the oracle is the reference)."""
    e = Fraction(1, 10 ** 30)
    P = Polygon([(0, 0), (4, 0), (4, 3), (2, 3), (2, 1), (2 - 3 * e, 1 + dy * e), (0, 1)])
    assert parallel_reeb_complexity(P).min_leaves == brute_force_complexity(P).min_leaves == 2


def test_max_cone_coverage_near_float_limit():
    """Cone vectors of 1.9e308 overflow a float; each is scaled instead."""
    big = Fraction(10) ** 308
    P = Polygon([(-big, -big), (big, -big), (big, -big / 2), (-big * 9 / 10, 0),
                 (big, big / 2), (big, big), (-big, big)])
    assert max_cone_coverage(cones_of(P))[0] == 1
