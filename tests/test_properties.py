"""Property-based checks: structural identities under randomized inputs."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from ruledpoly import (
    Direction,
    Polygon,
    annulus_polygon,
    comb_polygon,
    dump_polygon,
    is_generic,
    load_polygon,
    max_cone_coverage,
    parallel_reeb_complexity,
    random_simple_polygon,
    reeb_graph,
)

from conftest import nudge_generic

L_RING = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]

seeds = st.integers(min_value=1, max_value=500)
sizes = st.integers(min_value=6, max_value=16)
coords = st.integers(min_value=-7, max_value=7)

# rational rotations: (cos, sin) from Pythagorean triples, plus identity
ROTATIONS = [
    (Fraction(1), Fraction(0)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(-12, 13)),
    (Fraction(-8, 17), Fraction(15, 17)),
]


def poly(n, seed):
    return random_simple_polygon(n, seed)


def point_in_polygon(P, qx, qy):
    """Exact even-odd crossing count over all rings; returns None on the
    boundary so callers can skip grazing probes."""
    inside = False
    for ring in (P.outer, *P.holes):
        pts = ring.vertices
        for a, b in zip(pts, pts[1:] + (pts[0],)):
            if (a.y > qy) != (b.y > qy):
                t = (qy - a.y) / (b.y - a.y)
                xi = a.x + t * (b.x - a.x)
                if xi == qx:
                    return None
                if xi > qx:
                    inside = not inside
            elif a.y == qy == b.y and min(a.x, b.x) <= qx <= max(a.x, b.x):
                return None
    return inside


@given(n=sizes, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_orientation_normalization_idempotent(n, seed):
    P = poly(n, seed)
    Q = Polygon([(p.x, p.y) for p in P.outer.vertices])
    assert dump_polygon(Q) == dump_polygon(P)


def shoelace(pts):
    """Exact twice-signed area of a ring: the orientation reference."""
    return sum(a.x * b.y - a.y * b.x for a, b in zip(pts, pts[1:] + pts[:1]))


clean_polygons = st.one_of(
    st.builds(poly, sizes, seeds),
    st.builds(comb_polygon, st.integers(min_value=2, max_value=5)),
    st.builds(annulus_polygon, st.integers(min_value=3, max_value=9), st.just(Fraction(5, 2))),
)


@st.composite
def noisy_ring(draw, pts):
    """A clean ring rotated, with straight-through midpoints and repeated
    vertices inserted after some vertices, maybe reversed; and the clean
    ring with the same rotation."""
    n = len(pts)
    k = draw(st.integers(min_value=0, max_value=n - 1))
    base = [(p.x, p.y) for p in pts[k:] + pts[:k]]
    noisy = []
    for i, (x, y) in enumerate(base):
        noisy.append((x, y))
        if draw(st.booleans()):
            noisy.append((x, y))
        if draw(st.booleans()):
            nx, ny = base[(i + 1) % n]
            t = draw(st.fractions(min_value=0, max_value=1, max_denominator=100)
                     .filter(lambda t: 0 < t < 1))
            noisy.append((x + t * (nx - x), y + t * (ny - y)))
    return base, noisy[::-1] if draw(st.booleans()) else noisy


@given(data=st.data(), P=clean_polygons)
@settings(max_examples=60, deadline=None)
def test_ring_normalization_is_canonical(data, P):
    """Reversed, rotated and padded rings normalize to the clean polygon:
    the outer ring counterclockwise, holes clockwise, and the reflex
    vertices exactly the corners turning right."""
    rings = [data.draw(noisy_ring(list(r.vertices))) for r in P.rings]
    Q = Polygon(rings[0][1], [noisy for _, noisy in rings[1:]])
    assert dump_polygon(Q) == dump_polygon(Polygon(rings[0][0], [base for base, _ in rings[1:]]))
    assert shoelace(list(Q.outer.vertices)) > 0
    assert all(shoelace(list(hole.vertices)) < 0 for hole in Q.holes)
    right_turns = []
    for i in range(Q.n):
        a, b = (Q.vertex(j) for j in Q.neighbors(i))
        p = Q.vertex(i)
        if (p.x - a.x) * (b.y - p.y) - (p.y - a.y) * (b.x - p.x) < 0:
            right_turns.append(i)
    assert Q.reflex_indices() == tuple(right_turns)


@given(n=sizes, seed=seeds,
       p=st.integers(min_value=-10 ** 9, max_value=10 ** 9).filter(bool),
       q=st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=40, deadline=None)
def test_dump_load_exact_under_rational_scaling(n, seed, p, q):
    """Any rational coordinate survives the file format: terminating
    decimals as numbers, everything else as "p/q" strings."""
    s = Fraction(p, q)
    P = Polygon([(s * v.x, s * v.y) for v in poly(n, seed).outer.vertices])
    assert load_polygon(dump_polygon(P)).outer.vertices == P.outer.vertices


@given(n=sizes, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_reflex_partition(n, seed):
    P = poly(n, seed)
    k = len(P.reflex_indices())
    assert k + sum(1 for i in range(P.n) if i not in P.reflex_indices()) == P.n


@given(n=sizes, seed=seeds, rot=st.sampled_from(ROTATIONS),
       tx=st.fractions(min_value=-9, max_value=9),
       ty=st.fractions(min_value=-9, max_value=9),
       scale=st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 2)]))
@settings(max_examples=30, deadline=None)
def test_reflex_invariant_under_similarity(n, seed, rot, tx, ty, scale):
    P = poly(n, seed)
    c, s = rot
    ring = [(scale * (c * p.x - s * p.y) + tx, scale * (s * p.x + c * p.y) + ty)
            for p in P.outer.vertices]
    Q = Polygon(ring)
    assume(Q.n == P.n)  # similarity never merges corners; guard anyway
    assert Q.reflex_indices() == P.reflex_indices()


@given(n=sizes, seed=seeds, dx=coords, dy=coords)
@settings(max_examples=60, deadline=None)
def test_leaf_count_formula_pointwise(n, seed, dx, dy):
    """l(v) = k - |{p : v in C_p}| + 2 - 2h for every generic v.

    Coverage is constant on open angular intervals, so this identity is
    also what makes the sweep's interval maximum the right c_max.
    """
    assume(dx or dy)
    P = poly(n, seed)
    v = nudge_generic(P, dx, dy)
    g = reeb_graph(P, v)
    cones = [P.cone(i) for i in P.reflex_indices()]
    cov = sum(1 for c in cones if c.contains(v))
    assert g.l == len(cones) - cov + 2 - 2 * P.h


@given(n=sizes, seed=seeds, dx=coords, dy=coords)
@settings(max_examples=40, deadline=None)
def test_count_bounds(n, seed, dx, dy):
    assume(dx or dy)
    P = poly(n, seed)
    g = reeb_graph(P, nudge_generic(P, dx, dy))
    k = len(P.reflex_indices())
    assert g.b <= (P.n - 2) // 2 + g.h
    assert g.l <= k + 2 - 2 * g.h


@given(dx=coords, dy=coords, which=st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_cone_membership_matches_local_topology(dx, dy, which):
    """v in C_p iff the ruling line through p does NOT locally split the
    interior in two: probe both sides of p along the line direction."""
    assume(dx or dy)
    P = Polygon([
        L_RING,
        [(0, 0), (6, 0), (6, 4), (4, 1), (2, 4), (0, 3)],
        [(0, 0), (8, 0), (8, 5), (5, 5), (4, 1), (3, 5), (0, 5)],
    ][which])
    v = Direction(dx, dy)
    eps = Fraction(1, 1 << 30)
    for i in P.reflex_indices():
        p = P.vertex(i)
        pi, ni = P.neighbors(i)
        prev_pt, next_pt = P.vertex(pi), P.vertex(ni)
        d1 = (prev_pt.x - p.x, prev_pt.y - p.y)
        d2 = (next_pt.x - p.x, next_pt.y - p.y)
        # skip v orthogonal to an incident edge: line grazes the boundary
        if v.dx * d1[0] + v.dy * d1[1] == 0:
            continue
        if v.dx * d2[0] + v.dy * d2[1] == 0:
            continue
        wx, wy = -v.dy * eps, v.dx * eps  # along the ruling line
        side_a = point_in_polygon(P, p.x + wx, p.y + wy)
        side_b = point_in_polygon(P, p.x - wx, p.y - wy)
        assume(side_a is not None and side_b is not None)
        in_cone = P.cone(i).contains(v)
        assert in_cone != (side_a and side_b)


@given(edge=st.integers(min_value=0, max_value=5),
       t=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
@settings(max_examples=30, deadline=None)
def test_edge_split_keeps_formula_and_bound(edge, t):
    """Splitting an edge and bulging the new vertex slightly outward adds
    one convex vertex: k and h are unchanged and the reported result
    still satisfies both the formula and the ceiling bound."""
    P = Polygon(L_RING)
    a = P.vertex(edge)
    b = P.vertex((edge + 1) % P.n)
    delta = Fraction(1, 1 << 14)
    ex, ey = b.x - a.x, b.y - a.y
    mid = (a.x + t * ex + delta * ey, a.y + t * ey - delta * ex)
    ring = []
    for i in range(P.n):
        p = P.vertex(i)
        ring.append((p.x, p.y))
        if i == edge:
            ring.append(mid)
    Q = Polygon(ring)
    assert Q.n == P.n + 1
    base = parallel_reeb_complexity(P)
    res = parallel_reeb_complexity(Q)
    assert (res.k, res.h) == (base.k, base.h)
    assert res.min_leaves == res.k - res.c_max + 2 - 2 * res.h
    assert res.min_leaves <= Q.n // 2 + 1


@given(n=sizes, seed=seeds, rot=st.sampled_from(ROTATIONS[1:]))
@settings(max_examples=25, deadline=None)
def test_rotation_equivariance_of_minimum(n, seed, rot):
    P = poly(n, seed)
    c, s = rot
    Q = Polygon([(c * p.x - s * p.y, s * p.x + c * p.y)
                 for p in P.outer.vertices])
    ra = parallel_reeb_complexity(P)
    rb = parallel_reeb_complexity(Q)
    assert ra.min_leaves == rb.min_leaves
    assert ra.c_max == rb.c_max


@given(data=st.data(), n=sizes, seed=seeds, hole=st.integers(min_value=1, max_value=9),
       family=st.sampled_from(["random", "annulus"]))
@settings(max_examples=60, deadline=None)
def test_max_cone_coverage_matches_endpoint_count(data, n, seed, hole, family):
    """The sweep's pointwise maximum equals a direct count at every arc
    endpoint: coverage by closed arcs peaks at some arc's endpoint."""
    P = poly(n, seed) if family == "random" else annulus_polygon(10, hole)
    cones = [P.cone(i) for i in P.reflex_indices()]
    picked = data.draw(st.sets(st.integers(min_value=0, max_value=len(cones) - 1))
                       if cones else st.just(set()))
    subset = [cones[i] for i in sorted(picked)]
    c, w = max_cone_coverage(subset)
    endpoints = [d for x in subset for d in (x.arc_start, x.arc_end)]
    assert c == max((sum(x.contains(d) for x in subset) for d in endpoints), default=0)
    assert sum(x.contains(w) for x in subset) == c
