"""The rotational cone sweep: coverage maxima, witnesses, and the formula."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ruledpoly.complexity as complexity
import ruledpoly.exactmath as exactmath
from ruledpoly import (
    Direction,
    FamilyParams,
    Polygon,
    PolygonError,
    annulus_polygon,
    brute_force_complexity,
    comb_polygon,
    is_generic,
    lower_bound_polygon,
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


# -- the witness by construction ---------------------------------------------

def staircase(t):
    """Integer staircase with t - 1 reflex corners, all on one diagonal."""
    ring = [(0, 0)]
    for i in range(t):
        ring += [(t - i, i), (t - i, i + 1)]
    return Polygon(ring + [(0, t)])


def histogram(heights):
    """Integer grid polygon: unit-wide bars of the given heights."""
    ring = [(0, 0), (len(heights), 0)]
    for i in reversed(range(len(heights))):
        ring += [(i + 1, heights[i]), (i, heights[i])]
    return Polygon(ring)


def holes_grid(m):
    """An m x m square with a unit square hole at every odd cell."""
    holes = [[(x, y), (x, y + 1), (x + 1, y + 1), (x + 1, y)]
             for x in range(1, m - 1, 2) for y in range(1, m - 1, 2)]
    return Polygon([(0, 0), (m, 0), (m, m), (0, m)], holes)


def tie_heavy():
    return (
        [Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
         Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
         annulus_polygon(10, 4), annulus_polygon(3, 1)]
        + [staircase(t) for t in (2, 5, 20)]
        + [comb_polygon(t) for t in (2, 4, 9, 20)]
        + [histogram(h) for h in ([2, 1, 3], [1, 3, 1, 3, 1], [4, 2, 3, 1, 5, 2])]
        + [holes_grid(m) for m in (3, 5, 7)]
    )


def inside_arc(v, lo, hi):
    """Whether v or -v lies strictly inside the open arc lo -> hi."""
    (a, b), (lx, ly), (hx, hy) = v, lo, hi
    return any(lx * s * b - ly * s * a > 0 and s * a * hy - s * b * hx > 0 for s in (1, -1))


def test_simplest_in_arc_matches_enumeration():
    """Every arc between small sweep representatives, some scaled: the
    answer is the smallest a > 0, then the smallest |b|, of all integer
    directions (a, b) strictly inside, found by walking a upwards."""
    reps = [(0, -1)] + [(x * m, y * m) for x in range(1, 6) for y in range(-6, 7)
                        for m in (1, 3)] + [(0, 1)]

    def slope(r):
        return Fraction(r[1], r[0]) if r[0] else Fraction(r[1] * 10 ** 9)

    for lo in reps:
        for hi in reps:
            if not slope(lo) < slope(hi):
                continue
            for a in range(1, 20):
                # integers b with slope(lo) < b / a < slope(hi)
                low = math.floor(a * slope(lo)) + 1 if lo[0] else -10 ** 9
                high = math.ceil(a * slope(hi)) - 1 if hi[0] else 10 ** 9
                if low <= high:
                    want = (a, min(max(0, low), high))
                    break
            assert complexity._simplest_in_arc(lo, hi) == want, (lo, hi)
            assert inside_arc(want, lo, hi)


def test_perturbation_stays_in_a_narrow_arc():
    """(1, 1) is the simplest direction of the arc of slopes (0.999, 1.001)
    and ties two corners of the unit square; q above the arc's bound keeps
    the perturbed direction inside, where the coordinate bound alone
    would not."""
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    lo, hi = (1001, 1000), (1000, 1001)
    assert complexity._simplest_in_arc(lo, hi) == (1, 1)
    w = complexity._generic_witness(square, lo, hi)
    assert inside_arc(w.canonical_pair(), lo, hi)
    assert is_generic(square, w)


def test_witness_generic_by_construction(monkeypatch):
    """On tie-heavy integer shapes the simplest direction of the optimal
    arc is checked for genericity once; where it ties two heights, its
    exact perturbation is generic and stays in the arc without a check."""
    calls, arcs = [], []
    sweep_select = complexity._sweep_select

    def counting_is_generic(P, v):
        calls.append(is_generic(P, v))
        return calls[-1]

    def recording_sweep_select(ev):
        prof = sweep_select(ev)
        arcs.append(prof.interior_arc)
        return prof

    monkeypatch.setattr(complexity, "is_generic", counting_is_generic)
    monkeypatch.setattr(complexity, "_sweep_select", recording_sweep_select)
    perturbed = 0
    for P in tie_heavy():
        calls.clear()
        arcs.clear()
        res = parallel_reeb_complexity(P)
        assert len(calls) <= 1
        perturbed += calls == [False]
        a, b = res.as_dict()["witness"]
        assert type(a) is int and type(b) is int
        assert Direction(a, b) == res.witness
        assert inside_arc((a, b), *(arcs[0] if arcs else (complexity._V0, complexity._V0_END)))
        assert is_generic(P, res.witness)
        assert reeb_graph(P, res.witness).l == res.min_leaves
    assert perturbed > 0


def test_star_ties_resolve_as_two_lane_chains(monkeypatch):
    """The 20 000-vertex star is point-symmetric, so every cone event
    ties exactly with its antipodal twin. Every tie chain has two lanes:
    filtered_order gathers their lanes in one call of the sweep's
    accessor, and the whole computation makes at most two exact gathers
    (those lanes, then the best arc's ends), not one per lane. The
    result is the one pinned before chains were resolved as lanes."""
    P = lower_bound_polygon(FamilyParams(10_000))
    lanes, gathers, deltas = [], [], []
    order, delta = complexity.filtered_order, complexity.delta_lanes

    def recording_order(values, radii, exact, cmp):
        def recorded(ids):
            gathers.append(len(ids))
            return exact(ids)
        lanes.append(len(values))
        return order(values, radii, recorded, cmp)

    def counting_delta(pts, ends):
        deltas.append(ends.shape[1])
        return delta(pts, ends)

    monkeypatch.setattr(complexity, "filtered_order", recording_order)
    monkeypatch.setattr(complexity, "delta_lanes", counting_delta)
    res = parallel_reeb_complexity(P)
    assert (res.min_leaves, res.as_dict()["witness"]) == (9998, [-1, 9550])
    # one gather: no chain of three or more; all lanes but the 24 that no
    # other lane's radius reaches
    assert lanes == [2 * res.k] and gathers == [2 * res.k - 24]
    # then one gather of the arc's ends that are not v0 or its antipode
    assert deltas[:1] == gathers and len(deltas) <= 2 and all(d <= 2 for d in deltas[1:])


# a comb of three teeth over a bar, 16 vertices; its 6 reflex corners
# each have one vertical edge
COMB16 = [(0, 0), (10, 0), (10, 1), (9, 1), (9, 5), (8, 5), (8, 1), (7, 1), (7, 5), (6, 5),
          (6, 1), (5, 1), (5, 5), (4, 5), (4, 1), (0, 1)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sheared_comb_chain_of_int64_scalars(monkeypatch):
    """The comb sheared and scaled by s = 2**48 + 12345 is an int64 grid
    whose edge vectors are near 2^52: its 6 parallel edges give one
    6-lane exact chain, which filtered_order re-sorts by comparing single
    rows, numpy int64 scalars whose products overflow int64. The result
    is the one pinned before exact lanes were int64, and the oracle's
    min_leaves agrees. parallel_reeb_complexity ignores numpy overflow
    (its float lanes may overflow), so every comparison of the chain is
    made again here, where an overflow raises, against Python ints."""
    s = 2 ** 48 + 12345
    P = Polygon([((x + 2 * y) * s + 7, 3 * y * s + 3) for x, y in COMB16])
    assert P._ints.dtype == np.int64
    lanes = []
    cross_sign = complexity.cross_sign

    def recording(ax, ay, bx, by):
        lanes.append((ax, ay, bx, by))
        return cross_sign(ax, ay, bx, by)

    monkeypatch.setattr(complexity, "cross_sign", recording)
    res = parallel_reeb_complexity(P)
    assert res.as_dict() == {"min_leaves": 5, "c_max": 3, "k": 6, "h": 0,
                             "witness": [-10696049115474053, 10696049115474052],
                             "degenerate": True}
    assert lanes and all(isinstance(x, np.int64) for lane in lanes for x in lane)
    assert [cross_sign(*lane) for lane in lanes] == [
        exactmath.sign(int(ax) * int(by) - int(ay) * int(bx)) for ax, ay, bx, by in lanes]
    assert brute_force_complexity(P).min_leaves == res.min_leaves
    assert reeb_graph(P, res.witness).l == res.min_leaves


def test_exact_lanes_stay_int64_on_a_grid(monkeypatch):
    """On the 20 000-vertex star, an int64 grid table, every delta_lanes
    call of parallel_reeb_complexity returns int64 rows, and cross_sign
    decides every tie by its int64 limbs: it never falls to Python ints
    (exactmath.exact_cross, which only that route of cross_sign calls).
    On an object table, the 8-spike star at r1 = 10**7, whose events tie
    with their antipodal twins, it does, with the result pinned before."""
    dtypes, lanes, fallbacks = [], [], []
    delta, cross_sign, exact_cross = (complexity.delta_lanes, complexity.cross_sign,
                                      exactmath.exact_cross)

    def recording_delta(ints, ends):
        out = delta(ints, ends)
        dtypes.append(out.dtype)
        return out

    def recording_sign(ax, ay, bx, by):
        lanes.append(np.size(ax))
        return cross_sign(ax, ay, bx, by)

    def recording_cross(ax, ay, bx, by):
        fallbacks.append(np.size(ax))
        return exact_cross(ax, ay, bx, by)

    monkeypatch.setattr(complexity, "delta_lanes", recording_delta)
    monkeypatch.setattr(complexity, "cross_sign", recording_sign)
    monkeypatch.setattr(exactmath, "exact_cross", recording_cross)
    res = parallel_reeb_complexity(lower_bound_polygon(FamilyParams(10_000)))
    assert (res.min_leaves, res.as_dict()["witness"]) == (9998, [-1, 9550])
    assert dtypes and all(d == np.int64 for d in dtypes)
    # one lane-wise comparison of the 9988 two-lane chains
    assert lanes == [9988] and fallbacks == []

    dtypes.clear()
    P = lower_bound_polygon(FamilyParams(8, r1=10 ** 7))
    assert P._ints.dtype == object
    assert parallel_reeb_complexity(P).as_dict() == {
        "min_leaves": 6, "c_max": 4, "k": 8, "h": 0, "witness": [-1, 26131257],
        "degenerate": False}
    assert dtypes and all(d == object for d in dtypes)
    assert fallbacks


@st.composite
def symmetric_polygons(draw):
    """Centrally symmetric polygons on small integers, some with a
    centrally symmetric hole. Antipodal edges are parallel, so their
    cone events tie exactly; a hole's corners are reflex, and the edge
    between two of them is one cone's exit and the next one's entry."""
    m = draw(st.integers(2, 5))
    half = []
    for i in range(m):
        t = math.pi * (i + draw(st.sampled_from([0.25, 0.5, 0.75]))) / m
        r = draw(st.sampled_from([8, 11, 14]))
        half.append((round(r * math.cos(t)), round(r * math.sin(t))))
    outer = half + [(-x, -y) for x, y in half]
    hole = draw(st.sampled_from([None, [(1, 1), (-1, 1), (-1, -1), (1, -1)],
                                 [(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)],
                                 [(2, 1), (-1, 2), (-2, -1), (1, -2)]]))
    try:
        return Polygon(outer, [hole] if hole else [])
    except PolygonError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(symmetric_polygons())
def test_symmetric_polygons_match_oracle(P):
    """Where events tie exactly, antipodal ones and coinciding entries
    and exits, the sweep's minimum is the brute-force oracle's."""
    res = parallel_reeb_complexity(P)
    assert res.min_leaves == brute_force_complexity(P).min_leaves
    assert reeb_graph(P, res.witness).l == res.min_leaves
