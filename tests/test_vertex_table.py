"""The polygon's integer vertex table: the integers of its Points, over
one common scale exactly where that grid fits below 2**53, with the same
mirrors, the same results as gathers that read each Point's attributes
(but for a witness whose perturbation bound reads a grid of several
scales: it is only checked to be generic and strictly inside its arc),
canonical public Points, no Point attribute read by the complexity
sweep, whose every delta_lanes gather reads the table itself, and no
lane of two distinct scales on a grid."""

import json
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ruledpoly.complexity as complexity
import ruledpoly.exactmath as exactmath
import ruledpoly.geometry as geometry
from ruledpoly import (
    Direction,
    FamilyParams,
    Point,
    Polygon,
    PolygonError,
    annulus_polygon,
    brute_force_complexity,
    dump_polygon,
    is_generic,
    load_polygon,
    lower_bound_polygon,
    parallel_reeb_complexity,
    reeb_graph,
    reeb_to_dict,
)
from conftest import xyd
from test_complexity import inside_arc

EXACT_FLOAT = 2 ** 53


def point_integer_lanes(pts, lanes):
    """The gather of integers before the vertex table: (X, Y, D) of
    pts[i] for every i of lanes, read from each Point, as the rows of an
    object array."""
    sel = [pts[i] for i in lanes.tolist()]
    out = np.empty((3, len(sel)), dtype=object)
    out[0], out[1], out[2] = [p.X for p in sel], [p.Y for p in sel], [p.D for p in sel]
    return out


class PointTable:
    """A stand-in for a polygon's vertex table whose every gather reads
    the Points' attributes (point_integer_lanes)."""

    def __init__(self, pts):
        self.pts = pts

    def __getitem__(self, key):
        if not isinstance(key, tuple):  # one row
            return self[:, :][key]
        rows, lanes = key
        assert rows == slice(None)
        lanes = np.arange(len(self.pts))[lanes]
        if lanes.ndim == 0:  # one vertex: its column
            return point_integer_lanes(self.pts, lanes.reshape(1))[:, 0]
        return point_integer_lanes(self.pts, lanes)

    def __iter__(self):
        return iter(self[:, :])

    def tolist(self):
        return self[:, :].tolist()

    def __array__(self, dtype=None, copy=None):  # numpy operands, as in the canonical gather
        return self[:, :]


def points(P: Polygon) -> list[Point]:
    """P's Points, made at its public edge, in global vertex order."""
    return [p for ring in P.rings for p in ring]


def reference(P: Polygon) -> Polygon:
    """P rebuilt, with its vertex table replaced by a PointTable."""
    R = Polygon(P.outer, P.holes)
    R._ints = PointTable(points(R))
    return R


def grid_scale(pts) -> int | None:
    """The common scale L of the Points pts, the lcm of their scales, if
    L and every |X| L / D and |Y| L / D are below 2**53; else None."""
    L = math.lcm(*(p.D for p in pts))
    if L < EXACT_FLOAT and all(max(abs(p.X), abs(p.Y)) * (L // p.D) < EXACT_FLOAT for p in pts):
        return L
    return None


def check_table(P: Polygon) -> None:
    """P's table and mirrors against Points built anew from P's exact
    coordinates: its columns, divided by their gcd, are their canonical
    integers; it holds them over one scale, their lcm L, exactly when L
    and every scaled magnitude are below 2**53, and canonically
    otherwise; its mirrors are theirs, correctly rounded."""
    pts = [Point(p.x, p.y) for p in points(P)]
    want = [[p.X for p in pts], [p.Y for p in pts], [p.D for p in pts]]
    assert P._ints.shape == (3, P.n)
    cols = list(zip(*P._ints.tolist()))
    gcds = [math.gcd(*col) for col in cols]
    assert [[v // g for v, g in zip(row, gcds)] for row in zip(*cols)] == want
    L = grid_scale(pts)
    if L is None:
        assert P._ints.tolist() == want
        small = all(-EXACT_FLOAT < v < EXACT_FLOAT for row in want for v in row)
        assert P._ints.dtype == (np.int64 if small else object)
    else:
        assert P._ints.dtype == np.int64
        assert P._ints.tolist() == [[p.X * (L // p.D) for p in pts], [p.Y * (L // p.D) for p in pts],
                                    [L] * len(pts)]
    assert P._coords[:, 0].tobytes() == np.array([p.xf for p in pts]).tobytes()
    assert P._coords[:, 1].tobytes() == np.array([p.yf for p in pts]).tobytes()


def check_public(P: Polygon) -> None:
    """P's public Points are canonical: each equals, and hashes as, the
    Point built anew from its exact coordinates, with the least D; and
    dump_polygon round trips."""
    for i, p in enumerate(points(P)):
        fresh = Point(p.x, p.y)
        assert P.vertex(i) == p == fresh and hash(P.vertex(i)) == hash(fresh)
        assert (p.X, p.Y, p.D) == (fresh.X, fresh.Y, fresh.D)
        assert p.D == math.lcm(p.x.denominator, p.y.denominator)
        assert (p.xf, p.yf) == (fresh.xf, fresh.yf)
    for i in P.reflex_indices():
        apex, prev, nxt = (P.vertex(j) for j in (i, *P.neighbors(i)))
        assert P.cone(i).apex == apex
        assert (P.cone(i)._d1, P.cone(i)._d2) == (geometry.exact_delta(xyd(apex), xyd(prev)),
                                                   geometry.exact_delta(xyd(apex), xyd(nxt)))
    text = dump_polygon(P)
    Q = load_polygon(text)
    assert dump_polygon(Q) == text
    assert points(Q) == points(P)


def check_outputs(P: Polygon, oracle: bool) -> None:
    R = reference(P)
    res = parallel_reeb_complexity(P)
    assert res.as_dict() == parallel_reeb_complexity(R).as_dict()
    assert reeb_to_dict(reeb_graph(P, res.witness)) == reeb_to_dict(reeb_graph(R, res.witness))
    if oracle:
        assert brute_force_complexity(P).as_dict() == brute_force_complexity(R).as_dict()


SCALES = [Fraction(1), Fraction(1, 3), Fraction(1, 10 ** 400), Fraction(10 ** 300)]
# two holes inside the disk of radius 5 that every outer ring below contains
HOLES = [[(-3, -1), (-1, -1), (-1, 1), (-3, 1)], [(1, -2), (3, -2), (2, 1)]]


def with_extras(ring, draw):
    """The ring with some vertices repeated and some edge midpoints inserted."""
    out = []
    for i, (x, y) in enumerate(ring):
        out.append((Fraction(x), Fraction(y)))
        extra = draw(st.sampled_from(["none", "none", "duplicate", "midpoint"]))
        if extra == "duplicate":
            out.append(out[-1])
        elif extra == "midpoint":
            nx, ny = ring[(i + 1) % len(ring)]
            out.append((Fraction(x + nx, 2), Fraction(y + ny, 2)))
    return out


@st.composite
def rings(draw, denominators=(1,)):
    """A star-shaped outer ring on small integers with 0 to 2 holes,
    duplicates and collinear midpoints, at one of SCALES; each outer
    vertex over one of denominators."""
    m = draw(st.integers(6, 9))
    outer = []
    for i in range(m):
        t = 2 * math.pi * (i + draw(st.sampled_from([0.0, 0.2, 0.4]))) / m
        r = draw(st.sampled_from([6, 7, 9]))
        d = draw(st.sampled_from(denominators))
        outer.append((Fraction(round(r * d * math.cos(t)), d), Fraction(round(r * d * math.sin(t)), d)))
    holes = HOLES[:draw(st.integers(0, 2))]
    s = draw(st.sampled_from(SCALES))
    scaled = [[(x * s, y * s) for x, y in with_extras(ring, draw)] for ring in [outer] + holes]
    try:
        return Polygon(scaled[0], scaled[1:])
    except PolygonError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(rings())
def test_table_matches_points_on_rings(P):
    """Merged and oriented rings at scales 1, 1/3, 1e-400 and 1e300."""
    check_table(P)
    check_public(P)
    check_outputs(P, oracle=True)


@settings(max_examples=60, deadline=None)
@given(rings(denominators=range(1, 11)))
def test_grid_matches_points_on_mixed_scales(P):
    """Outer vertices over denominators 1 to 10, so that the table has
    many scales: one grid at scales 1 and 1/3, canonical at 1e-400 and
    1e300. Outputs are the canonical gathers', the Reeb graph at one
    direction and the oracle's included, but for the witnesses, whose
    perturbation bound reads the table at its own scale: the sweep's
    and the one built in each of ARCS are generic and strictly inside
    their arc, and the sweep's gives min_leaves."""
    check_table(P)
    check_public(P)
    R = reference(P)
    with mock.patch.object(complexity, "_generic_witness", wraps=complexity._generic_witness) as built:
        res = parallel_reeb_complexity(P)
    want = parallel_reeb_complexity(R)
    assert {**res.as_dict(), "witness": None} == {**want.as_dict(), "witness": None}
    _, lo, hi = built.call_args.args
    for w in (res.witness, want.witness):  # the canonical gathers' arc is the same
        assert is_generic(P, w) and inside_arc(w.canonical_pair(), lo, hi)
    assert reeb_graph(P, res.witness).l == res.min_leaves
    assert reeb_to_dict(reeb_graph(P, want.witness)) == reeb_to_dict(reeb_graph(R, want.witness))
    assert brute_force_complexity(P).as_dict() == brute_force_complexity(R).as_dict()
    for lo, hi in ARCS:
        w = complexity._generic_witness(P, lo, hi)
        assert is_generic(P, w) and inside_arc(w.canonical_pair(), lo, hi)


@pytest.mark.parametrize("ring, grid", [
    # (2**53 - 1) / 2 over the grid L = 2: its scaled X is 2**53 - 1
    ([(0, 0), (Fraction(2 ** 53 - 1, 2), Fraction(1, 2)), (0, 1)], True),
    # 2**52 over the grid L = 2 would be 2**53
    ([(0, 0), (2 ** 52, 0), (Fraction(1, 2), 1)], False),
])
def test_grid_boundary(ring, grid):
    """A grid exactly while every scaled coordinate is below 2**53; both
    canonical tables are int64."""
    P = Polygon(ring)
    check_table(P)
    assert P._ints.dtype == np.int64
    assert (len(set(P._ints[2].tolist())) == 1) == grid
    check_public(P)
    check_outputs(P, oracle=True)


def odd_primes(count: int) -> list[int]:
    """The first count odd primes."""
    limit = 32
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.flatnonzero(sieve)[1:]
        if len(primes) >= count:
            return primes[:count].tolist()
        limit *= 2


def prime_ring(primes: list[int]) -> str:
    """A simple ring whose bottom chain has the vertices (i, 1 / p_i),
    x-monotone and with no three on a line, closed by two corners at
    y = 10: the document of a polygon whose scales are coprime."""
    m = len(primes)
    pts = [[i, f"1/{p}"] for i, p in enumerate(primes)] + [[m - 1, 10], [0, 10]]
    return json.dumps({"outer": pts})


def test_coprime_scales_past_the_grid_stay_canonical():
    """Sixteen odd primes as scales: their lcm passes 2**53, so the table
    stays canonical, and outputs are the canonical gathers'."""
    P = load_polygon(prime_ring(odd_primes(16)))
    check_table(P)
    assert sorted(set(P._ints[2].tolist())) == [1, *odd_primes(16)]
    check_public(P)
    check_outputs(P, oracle=True)


def test_many_coprime_scales_load_in_linear_time():
    """20 000 distinct prime scales: the lcm stops once it passes 2**53,
    so the ring loads in under 1 s, canonical."""
    primes = odd_primes(20_000)
    text = prime_ring(primes)
    start = time.perf_counter()
    P = load_polygon(text)
    elapsed = time.perf_counter() - start
    assert P._ints[2].tolist() == [*primes, 1, 1]
    assert elapsed < 1.0


def test_grid_star_has_no_distinct_scale_lane(monkeypatch):
    """The documents of the 20 000-vertex star and of the 21/2, 2/3
    annulus through load_polygon, parallel_reeb_complexity and reeb_graph
    at the witness: every delta_lanes lane on the polygon's table pairs
    two equal scales, the star's 14 scales being written over their lcm,
    10**12, and the annulus's 1, 2 and 12 over 12. Every delta_lanes
    call of parallel_reeb_complexity reads the table itself, no copy of
    its columns, also for the ends of the arc that the annulus's
    perturbed witness is built in."""
    calls = []
    delta_lanes = exactmath.delta_lanes

    def recording(ints, lanes):
        calls.append((ints, lanes))
        return delta_lanes(ints, lanes)

    for module in (exactmath, geometry, complexity):
        monkeypatch.setattr(module, "delta_lanes", recording)
    for Q, min_leaves, min_lanes, witness in [
            (lower_bound_polygon(FamilyParams(10_000)), 9998, 10_000, [-1, 9550]),
            (annulus_polygon(Fraction(21, 2), Fraction(2, 3)), 2, 0, [-253, 252])]:
        P = load_polygon(dump_polygon(Q))
        start = len(calls)
        res = parallel_reeb_complexity(P)
        assert calls[start:] and all(ints is P._ints for ints, _ in calls[start:])
        assert res.as_dict()["witness"] == witness
        assert reeb_graph(P, res.witness).l == res.min_leaves == min_leaves
        own = [lanes for ints, lanes in calls if ints is P._ints]
        assert sum(lanes.shape[1] for lanes in own) > min_lanes
        D = P._ints[2]
        assert len(set(D.tolist())) == 1
        assert sum(int(np.count_nonzero(D[a] != D[b])) for a, b in own) == 0


def point_generic_witness(P, lo, hi):
    """complexity._generic_witness with its perturbation bound taken over
    the Points' attributes, as before the vertex table."""
    a, b = complexity._simplest_in_arc(lo, hi)
    w = Direction(a, b)
    if is_generic(P, w):
        return w
    pts = points(P)
    top = max(p.D for p in pts)
    second = max((p.D for p in pts if p.D != top), default=1)
    diff = 2 * max(max(abs(p.X), abs(p.Y)) * (second if p.D == top else top) for p in pts)
    q = 1 + (abs(a) + abs(b)) * max(diff, abs(lo[0]) + abs(lo[1]), abs(hi[0]) + abs(hi[1]))
    return Direction(q * a - b, q * b + a)


# narrow arcs about the slopes 0, 1 and 2, whose simplest directions
# (1, 0), (1, 1) and (1, 2) tie two heights of many rings on small integers
ARCS = [((1000, -1), (1000, 1)), ((1001, 1000), (1000, 1001)), ((1000, 1999), (1000, 2001))]


@settings(max_examples=60, deadline=None)
@given(rings())
def test_perturbation_bound_matches_points(P):
    """The witness's perturbation, its bound now taken as array maxima of
    the table, is the one taken over the Points."""
    for lo, hi in ARCS:
        want = point_generic_witness(P, lo, hi)
        assert complexity._generic_witness(P, lo, hi).canonical_pair() == want.canonical_pair()


@pytest.mark.parametrize("spikes, r1", [(7, 4), (12, 4), (7, 10 ** 7), (12, 10 ** 7)])
def test_table_matches_points_on_stars(spikes, r1):
    """Stars built from integer arrays: int64 at r1 = 4, Python ints at
    r1 = 10**7, whose scaled coordinates pass 2**53."""
    P = lower_bound_polygon(FamilyParams(spikes, r1=r1))
    check_table(P)
    assert P._ints.dtype == (np.int64 if r1 == 4 else object)
    assert (len(set(P._ints[2].tolist())) == 1) == (r1 == 4)  # a grid at r1 = 4 alone
    check_public(P)
    check_outputs(P, oracle=True)


def test_complexity_reads_no_point_attribute(monkeypatch):
    """parallel_reeb_complexity on the 20 000-vertex star reads every
    integer from the vertex table: no Point's X, Y or D."""
    P = lower_bound_polygon(FamilyParams(10_000))
    reads = 0

    def counting(name):
        slot = getattr(Point, name)

        def get(p):
            nonlocal reads
            reads += 1
            return slot.__get__(p, Point)

        return property(get, slot.__set__)

    for name in ("X", "Y", "D"):
        monkeypatch.setattr(Point, name, counting(name))
    P.vertex(0).X  # the counter counts
    assert reads == 1
    res = parallel_reeb_complexity(P)
    assert reads == 1
    assert (res.min_leaves, res.as_dict()["witness"]) == (9998, [-1, 9550])


def test_cli_path_makes_no_point(monkeypatch):
    """The CLI's calls on the 20 000-vertex star's document, load_polygon,
    parallel_reeb_complexity, reeb_graph at the witness and reeb_to_dict,
    make no Point: the vertex table is the polygon's only per-vertex
    store, and Points are made at the public edge alone."""
    text = dump_polygon(lower_bound_polygon(FamilyParams(10_000)))
    made = 0
    slot = Point.X  # every way of making a Point sets its X once

    def made_one(p, value):
        nonlocal made
        made += 1
        slot.__set__(p, value)

    # Point's own __new__ cannot be patched away and back on CPython
    monkeypatch.setattr(Point, "X", property(slot.__get__, made_one))
    P = load_polygon(text)
    res = parallel_reeb_complexity(P)
    out = reeb_to_dict(reeb_graph(P, res.witness))
    assert made == 0
    assert out["l"] == res.min_leaves == 9998
    P.vertex(0)  # the counter counts
    assert made == 1
