"""Polygon families with known or bounded ruling complexity.

Three constructors: the spiked star family whose complexity grows
linearly with the spike count, an upward-pronged comb whose complexity
is exactly 2 despite arbitrarily many reflex vertices, and a square
annulus for exercising the hole terms. random_simple_polygon draws
seeded random simple polygons for differential tests.

Trigonometric coordinates are rounded to 12 decimal digits before
emission so that serialized polygons round-trip byte for byte; every
downstream predicate operates on the rounded rationals, never the
unrounded reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactmath import corner_cross, filtered_sign_array
from .geometry import Point, Polygon, PolygonError, _segments_touch, as_fraction

__all__ = [
    "FamilyParams",
    "lower_bound_polygon",
    "comb_polygon",
    "annulus_polygon",
    "random_simple_polygon",
    "UntangleError",
]

_SCALE = 10 ** 12


class UntangleError(RuntimeError):
    """Random ring could not be made simple within the iteration budget."""


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the spiked star family.

    n is the spike count; r1 and r2 are the outer and inner radii of the
    two concentric circles carrying the spike tips and notch corners.
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


def _round12(values: np.ndarray) -> list[Fraction]:
    scaled = np.round(values * float(_SCALE))
    return [Fraction(int(s), _SCALE) for s in scaled]


def _certify_star_shaped(xs: list[Fraction], ys: list[Fraction]) -> None:
    """Prove a ring simple by radial monotonicity about the origin.

    Requires every adjacent pair of position vectors to span a nonzero
    oriented angle of consistent sign (exact cross product test, float
    filtered) and the total turning to be exactly one revolution. The
    boundary is then the graph of a radial function, hence simple, with
    the origin strictly inside.
    """
    n = len(xs)
    xf = np.array([float(v) for v in xs])
    yf = np.array([float(v) for v in ys])
    # cross(p_i - origin, p_{i+1} - p_i) = cross(p_i, p_{i+1})
    cr, err = corner_cross(0.0, 0.0, xf, yf, np.roll(xf, -1), np.roll(yf, -1))
    signs = filtered_sign_array(
        cr, err, lambda i: xs[i] * ys[(i + 1) % n] - ys[i] * xs[(i + 1) % n])
    if np.any(signs == 0):
        raise PolygonError("star certificate failed: adjacent radial collinearity")
    if not (np.all(signs == 1) or np.all(signs == -1)):
        raise PolygonError("star certificate failed: inconsistent turning")
    angles = np.arctan2(yf, xf)
    steps = np.diff(np.concatenate([angles, angles[:1]]))
    steps = np.mod(steps * signs[0], 2.0 * math.pi)
    # exact steps lie in (0, pi); anything near 2*pi is a wrapped rounding
    steps = np.where(steps > 1.5 * math.pi, steps - 2.0 * math.pi, steps)
    winding = float(np.sum(steps)) / (2.0 * math.pi)
    if abs(winding - 1.0) > 0.25:
        raise PolygonError("star certificate failed: winding is not one turn")


# above this size an O(n) star certificate stands in for the validation sweep
_VALIDATE_LIMIT = 4096


def lower_bound_polygon(params: FamilyParams) -> Polygon:
    """Spiked star with n outer tips and n reflex notch corners.

    Outer vertices sit on the radius-r1 circle at angles 2*pi*i/n from
    north, inner vertices on the radius-r2 circle at the midway angles;
    the boundary alternates tip, notch, tip, notch. Every inner vertex
    is reflex, so k = n and h = 0.
    """
    n = params.n
    idx = np.arange(n, dtype=float)
    theta = 2.0 * math.pi * idx / n
    phi = (2.0 * idx + 1.0) * math.pi / n
    r1 = float(params.r1)
    r2 = float(params.r2)
    ox = _round12(r1 * np.sin(theta))
    oy = _round12(r1 * np.cos(theta))
    ix = _round12(r2 * np.sin(phi))
    iy = _round12(r2 * np.cos(phi))

    ring: list[Point] = []
    for i in range(n):
        ring.append(Point(ox[i], oy[i]))
        ring.append(Point(ix[i], iy[i]))

    if 2 * n <= _VALIDATE_LIMIT:
        return Polygon(ring)
    _certify_star_shaped([p.x for p in ring], [p.y for p in ring])
    return Polygon(ring, validate=False)


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
        return Point(3 * i + 1 + q, four + (2 * i + 1) * q)

    def prong_top_left(i):  # A_i
        return Point(3 * i - q, four + (2 * i + 2) * q)

    def gap_left(i):  # u_i, base of prong i's right wall
        return Point(3 * i + 1 + 2 * q, one + (3 * i + 1) * q)

    def gap_peak(i):  # s_i
        return Point(3 * i + 2, bump_y + (3 * i + 2) * q)

    def gap_right(i):  # w_i, base of prong (i+1)'s left wall
        return Point(3 * i + 3 - 2 * q, one + (3 * i + 3) * q)

    ring = [Point(0, 0), Point(3 * t - 2, -q)]
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
    outer = [Point(0, 0), Point(s, 0), Point(s, s), Point(0, s)]
    hole = [
        Point(c - half, c - half),
        Point(c - half, c + half),
        Point(c + half, c + half),
        Point(c + half, c - half),
    ]
    return Polygon(outer, [hole])


def _find_contact(pts: list[Point], touch) -> tuple[int, int] | None:
    """First pair of non-adjacent edges sharing a point, or None."""
    n = len(pts)
    for i in range(n):
        a1 = pts[i]
        a2 = pts[(i + 1) % n]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if touch(a1, a2, pts[j], pts[(j + 1) % n]):
                return i, j
    return None


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
    scale = 10 ** 12
    pts = [Point(Fraction(int(round(xs[i] * scale)), scale),
                 Fraction(int(round(ys[i] * scale)), scale)) for i in order]

    budget = 60 * vertex_count * vertex_count
    while budget > 0:
        contact = _find_contact(pts, _segments_touch)
        if contact is None:
            break
        i, j = contact
        pts[i + 1:j + 1] = reversed(pts[i + 1:j + 1])
        budget -= 1
    else:
        raise UntangleError(
            f"could not untangle {vertex_count} points with seed {seed}")

    try:
        return Polygon(pts)
    except PolygonError as exc:
        raise UntangleError(
            f"untangled ring failed validation for seed {seed}: {exc}") from exc
