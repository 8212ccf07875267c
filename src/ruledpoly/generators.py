"""Polygon families with known or bounded ruling complexity.

Three constructors: the spiked star family whose complexity grows
linearly with the spike count, an upward-pronged comb whose complexity
is exactly 2 despite arbitrarily many reflex vertices, and a square
annulus for exercising the hole terms. random_simple_polygon draws
seeded random simple polygons for differential tests.

Trigonometric and random coordinates are rounded to 12 decimal digits
before emission so that serialized polygons round-trip byte for byte;
every downstream predicate operates on the rounded rationals, never the
unrounded reals. The rounding works on integer arrays (int64 while the
scaled coordinates stay below 2**53, Python ints beyond), and its
integer table and mirrors are handed to the polygon as they are
(Polygon._set), so generation makes no Fraction and no Point.
Every star is proved simple by one exact O(n) certificate (radial
monotonicity about the origin and a crossing count) on that table,
instead of the validation sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactmath import filtered_sign_array, integer_lanes, orient_lanes, static_cross_bound
from .geometry import (
    Polygon,
    PolygonError,
    _EXACT_FLOAT,
    _table,
    _touching,
    as_fraction,
)

__all__ = [
    "FamilyParams",
    "lower_bound_polygon",
    "comb_polygon",
    "annulus_polygon",
    "random_simple_polygon",
    "UntangleError",
]

_SCALE = 10 ** 12
_MAX_RADIUS = 10 ** 300  # float() of a smaller r1 is finite; a larger r1 fails anyway


class UntangleError(RuntimeError):
    """Random ring could not be made simple within the iteration budget."""


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the spiked star family.

    n is the spike count; r1 and r2 are the outer and inner radii of the
    two concentric circles carrying the spike tips and notch corners.
    Coordinates are rounded as floats times 10**12, so r1 * 10**12 must
    lie in the float range: r1 below about 1.8e296.
    """

    n: int
    r1: Fraction = field(default=Fraction(4))
    r2: Fraction = field(default=Fraction(1))

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 7:
            raise ValueError(f"spike count must be an integer >= 7, got {self.n!r}")
        object.__setattr__(self, "r1", as_fraction(self.r1))
        object.__setattr__(self, "r2", as_fraction(self.r2))
        if not self.r1 > self.r2 > 0:
            raise ValueError(
                f"radii must satisfy r1 > r2 > 0, got r1={self.r1}, r2={self.r2}")
        # the tip at angle 0 is (0, r1), rounded as float(r1) * 10**12
        if self.r1 > _MAX_RADIUS or math.isinf(float(self.r1) * _SCALE):
            raise ValueError("r1 times 10**12 must lie in the float range (about 1.8e308), "
                             "so r1 below about 1.8e296")


def _round12(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex table and mirror arrays (geometry._table) of the points
    (x, y) rounded to 12 decimal digits, for x, y in the float arrays xs, ys.

    Each coordinate is n / 10**12 for the integer n nearest to its float
    times 10**12; dividing n and 10**12 by their gcd, then taking the
    lcm of the two denominators, gives the point's canonical integers.
    In int64 while every |n| is below 2**53, so nothing wraps; beyond
    that, as Python ints.
    """
    sx, sy = np.round(xs * float(_SCALE)), np.round(ys * float(_SCALE))
    if max(np.abs(sx).max(), np.abs(sy).max()) < _EXACT_FLOAT:
        sx, sy, scale = sx.astype(np.int64), sy.astype(np.int64), np.int64(_SCALE)
    else:
        sx, sy = (np.array([int(v) for v in a.tolist()], dtype=object) for a in (sx, sy))
        scale = _SCALE
    gx, gy = np.gcd(sx, scale), np.gcd(sy, scale)
    dx, dy = scale // gx, scale // gy
    d = np.lcm(dx, dy)
    return _table(sx // gx * (d // dx), sy // gy * (d // dy), d)


def _certify_star_shaped(ints: np.ndarray, xf: np.ndarray, yf: np.ndarray) -> None:
    """Prove a ring simple by radial monotonicity about the origin, the
    ring given as its vertex table ints and mirrors xf, yf.

    Requires every adjacent pair of position vectors to span a nonzero
    oriented angle of consistent sign (the exact signs of one
    orient_lanes call) and the ring to wind exactly once about the
    origin. Each step then turns by less than 180 degrees one way, so
    the winding number is the count of steps that cross one ray from
    the origin (the crossing-number rule, O'Rourke, Computational
    Geometry in C, 7.4): those that enter the half-turn of angles
    [0, 180) from outside it, which cross the ray along +x on a
    counterclockwise ring and the ray along -x on a clockwise one.
    Signs of the integers decide which points lie in the half-turn. The
    boundary is then the graph of a radial function, hence simple, with
    the origin strictly inside.
    """
    n = ints.shape[1]
    # cross(p_i - origin, p_{i+1} - p_i) = cross(p_i - origin, p_{i+1} - origin):
    # one orient_lanes lane (i, i + 1, origin), the origin appended as column (0, 0, 1)
    i = np.arange(n)
    signs = orient_lanes(np.concatenate((ints, [[0], [0], [1]]), axis=1), np.append(xf, 0.0),
                         np.append(yf, 0.0), np.array((i, (i + 1) % n, np.full(n, n))),
                         static_cross_bound(xf, yf))
    if np.any(signs == 0):
        raise PolygonError("star certificate failed: adjacent radial collinearity")
    if not (np.all(signs == 1) or np.all(signs == -1)):
        raise PolygonError("star certificate failed: inconsistent turning")
    # a correctly rounded mirror has the sign of its integer unless it is 0
    zero = np.zeros(n)
    sy = filtered_sign_array(yf, zero, lambda lanes: integer_lanes(ints, lanes)[1])
    sx = filtered_sign_array(xf, zero, lambda lanes: integer_lanes(ints, lanes)[0])
    upper = (sy > 0) | ((sy == 0) & (sx > 0))  # angle in [0, 180)
    if np.count_nonzero(~upper & np.roll(upper, -1)) != 1:
        raise PolygonError("star certificate failed: winding is not one turn")


def lower_bound_polygon(params: FamilyParams) -> Polygon:
    """Spiked star with n outer tips and n reflex notch corners.

    Outer vertices sit on the radius-r1 circle at angles 2*pi*i/n from
    north, inner vertices on the radius-r2 circle at the midway angles;
    the boundary alternates tip, notch, tip, notch. Every inner vertex
    is reflex, so k = n and h = 0. The ring is proved simple by the
    exact star certificate, in O(n), instead of the validation sweep.
    """
    n = params.n
    idx = np.arange(n, dtype=float)
    theta = 2.0 * math.pi * idx / n
    phi = (2.0 * idx + 1.0) * math.pi / n
    r1 = float(params.r1)
    r2 = float(params.r2)
    # the ring alternates tip i and notch i
    xs = np.stack((r1 * np.sin(theta), r2 * np.sin(phi)), axis=1).ravel()
    ys = np.stack((r1 * np.cos(theta), r2 * np.cos(phi)), axis=1).ravel()
    table = _round12(xs, ys)
    _certify_star_shaped(*table)
    return Polygon.__new__(Polygon)._set([table], validate=False)


def comb_polygon(teeth: int) -> Polygon:
    """Axis-aligned comb with upward prongs and bumped gap floors.

    Each of the teeth-1 gaps carries a small peak in its floor, so the
    floor corners u and w are reflex (k = 2*(teeth-1)) and the vertical
    sweep closes one extra leaf per gap: v = (0,1) yields 2*teeth = k+2
    leaves while v = (1,0) yields 2. Every wall and floor is tilted by a
    hair (odd multiples of one tiny dyadic quantum q) so both axis
    directions are literally generic: no two vertices share an x or a y.
    """
    if not isinstance(teeth, int) or teeth < 2:
        raise ValueError(f"teeth must be an integer >= 2, got {teeth!r}")
    t = teeth
    q = Fraction(1, 2 ** (10 + (5 * t).bit_length()))
    four = Fraction(4)
    one = Fraction(1)
    bump_y = Fraction(5, 4)

    def prong_top_right(i):  # B_i
        return (3 * i + 1 + q, four + (2 * i + 1) * q)

    def prong_top_left(i):  # A_i
        return (3 * i - q, four + (2 * i + 2) * q)

    def gap_left(i):  # u_i, base of prong i's right wall
        return (3 * i + 1 + 2 * q, one + (3 * i + 1) * q)

    def gap_peak(i):  # s_i
        return (3 * i + 2, bump_y + (3 * i + 2) * q)

    def gap_right(i):  # w_i, base of prong (i+1)'s left wall
        return (3 * i + 3 - 2 * q, one + (3 * i + 3) * q)

    ring = [(0, 0), (3 * t - 2, -q)]
    for i in range(t - 1, -1, -1):
        ring.append(prong_top_right(i))
        ring.append(prong_top_left(i))
        if i > 0:
            ring.append(gap_right(i - 1))
            ring.append(gap_peak(i - 1))
            ring.append(gap_left(i - 1))
    return Polygon(ring)


def annulus_polygon(outer_side, hole_side) -> Polygon:
    """Axis-aligned square with a centered square hole: n=8, h=1, k=4."""
    s = as_fraction(outer_side)
    w = as_fraction(hole_side)
    if not 0 < w < s:
        raise ValueError(
            f"need 0 < hole_side < outer_side, got {hole_side!r}, {outer_side!r}")
    c = s / 2
    half = w / 2
    outer = [(0, 0), (s, 0), (s, s), (0, s)]
    hole = [
        (c - half, c - half),
        (c - half, c + half),
        (c + half, c + half),
        (c + half, c - half),
    ]
    return Polygon(outer, [hole])


def _find_contact(ints: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[int, int] | None:
    """First pair (i, j), i < j in lexicographic order, of non-adjacent
    edges sharing a point, or None, on the ring of the vertex table ints
    and mirrors xs, ys. Every pair is a lane of the contact test of the
    validation sweep."""
    n = ints.shape[1]
    i, j = np.triu_indices(n, 2)
    keep = (i > 0) | (j < n - 1)  # edges 0 and n - 1 are adjacent
    i, j = i[keep], j[keep]
    quads = np.stack((i, (i + 1) % n, j, (j + 1) % n))
    hits = np.flatnonzero(_touching(ints, xs, ys, quads, static_cross_bound(xs, ys)))
    return (int(i[hits[0]]), int(j[hits[0]])) if len(hits) else None


def random_simple_polygon(vertex_count: int, seed: int) -> Polygon:
    """Simple polygon through vertex_count random points in a disk.

    Points are drawn uniformly, rounded to 12 decimal digits, ordered
    by angle about their centroid, and then uncrossed by 2-opt segment
    reversals until no two non-adjacent edges touch. Reversing a proper
    crossing strictly shortens the tour, so the process terminates;
    the iteration budget guards the measure-zero contact cases.
    """
    if not isinstance(vertex_count, int) or vertex_count < 3:
        raise ValueError(f"vertex_count must be an integer >= 3, got {vertex_count!r}")
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(vertex_count))
    angle = 2.0 * math.pi * rng.random(vertex_count)
    xs = radius * np.cos(angle)
    ys = radius * np.sin(angle)
    cx = float(np.mean(xs))
    cy = float(np.mean(ys))
    order = np.lexsort((np.hypot(xs - cx, ys - cy),
                        np.arctan2(ys - cy, xs - cx)))
    ints, xf, yf = _round12(xs[order], ys[order])

    budget = 60 * vertex_count * vertex_count
    ring = np.arange(vertex_count)  # the tour, as indices into the table
    while budget > 0:
        contact = _find_contact(ints[:, ring], xf[ring], yf[ring])
        if contact is None:
            break
        i, j = contact
        ring[i + 1:j + 1] = ring[i + 1:j + 1][::-1].copy()
        budget -= 1
    else:
        raise UntangleError(
            f"could not untangle {vertex_count} points with seed {seed}")

    try:
        return Polygon.__new__(Polygon)._set([(ints[:, ring], xf[ring], yf[ring])], True)
    except PolygonError as exc:
        raise UntangleError(
            f"untangled ring failed validation for seed {seed}: {exc}") from exc
