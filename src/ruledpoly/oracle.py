"""Exact brute-force reference for parallel ruling complexity.

The leaf count of a directional sweep changes only when the direction
crosses a cone boundary or becomes orthogonal to some vertex-pair
difference. Collecting every such direction partitions the circle of
directions (mod 180 degrees) into open intervals on which the leaf
count is constant, so evaluating one representative per interval and
taking the minimum is an exact, if quadratic, oracle. Cone boundaries
are edge normals, i.e. orthogonals of adjacent vertex pairs, so the
all-pairs orthogonal set already contains them; it also contains every
direction that ties two vertex heights, which makes each interval
representative automatically generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .exactmath import exact_delta, sign
from .geometry import Direction, Polygon
from .reeb import reeb_graph

__all__ = [
    "EventPartition",
    "OracleCapError",
    "OracleResult",
    "brute_force_complexity",
    "build_event_partition",
]


class OracleCapError(ValueError):
    """Polygon is larger than the oracle's vertex cap."""


def _sweep_cmp(u: tuple[int, int], w: tuple[int, int]) -> int:
    """Total order of canonical integer pairs along the rotational sweep.

    The vertical-line normal (0, 1) comes first; then directions with
    dx < 0 (first quarter turn), then dx > 0, each by exact cross sign.
    """
    pu = 0 if u[0] == 0 else (1 if u[0] < 0 else 2)
    pw = 0 if w[0] == 0 else (1 if w[0] < 0 else 2)
    if pu != pw:
        return pu - pw
    if pu == 0:
        return 0
    return -sign(u[0] * w[1] - u[1] * w[0])


@dataclass(frozen=True)
class EventPartition:
    """Sorted event angles and the open intervals between them."""

    angles: tuple[Direction, ...]

    @property
    def intervals(self) -> tuple[tuple[Direction, Direction], ...]:
        m = len(self.angles)
        return tuple((self.angles[j], self.angles[(j + 1) % m]) for j in range(m))


def build_event_partition(P: Polygon) -> EventPartition:
    """Every direction orthogonal to some vertex-pair difference, sorted;
    each keeps the exact values of the first normal (x / s, y / s) found."""
    pts = P._pts
    seen = {}
    for i in range(P.n):
        a = pts[i]
        for j in range(i + 1, P.n):
            dx, dy, s = exact_delta(a, pts[j])
            if dx == 0 and dy == 0:
                continue
            g = math.gcd(dx, dy)
            x, y = -dy // g, dx // g
            if y < 0 or (y == 0 and x < 0):
                x, y = -x, -y
            seen.setdefault((x, y), (-dy, dx, s))
    order = sorted(seen, key=cmp_to_key(_sweep_cmp))
    return EventPartition(tuple(Direction(Fraction(x, s), Fraction(y, s))
                                for x, y, s in map(seen.get, order)))


def _rep_and_angle(d: Direction) -> tuple[tuple[int, int, int], float]:
    """Sweep representative (x, y, s), the vector (x / s, y / s), and angle."""
    x, y, m = d._ints
    if x == 0:
        return (0, -1, 1), 0.0
    if x < 0:
        return (-x, -y, m), math.atan2(-d.fdx, d.fdy)
    return (x, y, m), math.atan2(d.fdx, -d.fdy)


def _strictly_inside_arc(fx: float, fy: float, lo: tuple[int, int],
                         hi: tuple[int, int]) -> bool:
    """Whether the float vector (fx, fy), read exactly as integers w over
    one power of two, lies strictly inside the open arc lo -> hi.

    lo and hi are sweep representatives less than 180 degrees apart, so
    strict cross product tests against w or -w decide membership.
    """
    (a, c), (b, d) = fx.as_integer_ratio(), fy.as_integer_ratio()
    w = a * (max(c, d) // c), b * (max(c, d) // d)

    def inside(wx, wy):
        return (lo[0] * wy - lo[1] * wx > 0) and (wx * hi[1] - wy * hi[0] > 0)

    return inside(w[0], w[1]) or inside(-w[0], -w[1])


def _interval_representative(lo_r, hi_r, s_lo: float, s_hi: float) -> Direction:
    """Deterministic direction strictly inside one open interval.

    The float angular midpoint is snapped to exact rationals and
    verified strictly inside by cross products; the exact positive
    combination of the endpoints backs it up for degenerate widths.
    """
    s_mid = 0.5 * (s_lo + s_hi)
    vx, vy = math.sin(s_mid), -math.cos(s_mid)
    if (vx or vy) and _strictly_inside_arc(vx, vy, lo_r[:2], hi_r[:2]):
        return Direction(vx, vy)
    (x1, y1, s1), (x2, y2, s2) = lo_r, hi_r
    return Direction(Fraction(x1 * s2 + x2 * s1, s1 * s2), Fraction(y1 * s2 + y2 * s1, s1 * s2))


@dataclass(frozen=True)
class OracleResult:
    """Brute-force minimum; unpacks as the pair (min_leaves, witness)."""

    min_leaves: int
    witness: Direction
    intervals_evaluated: int
    boundary_beats_interior: bool
    boundary_value: int

    def __iter__(self):
        yield self.min_leaves
        yield self.witness

    def as_dict(self) -> dict:
        return {
            "min_leaves": self.min_leaves,
            "witness": [float(self.witness.dx), float(self.witness.dy)],
            "intervals_evaluated": self.intervals_evaluated,
            "boundary_beats_interior": self.boundary_beats_interior,
        }


def brute_force_complexity(P: Polygon, cap: int = 64) -> OracleResult:
    """Exact minimum leaf count over parallel rulings, by enumeration.

    Evaluates the sweep at one generic representative inside every open
    angular interval. Event angles themselves are scored by the closed
    cone-counting formula k - coverage + 2 - 2h and reported separately
    when their best value beats every interior one.
    """
    if P.n > cap:
        raise OracleCapError(
            f"polygon has {P.n} vertices, oracle cap is {cap}; raise cap to force")
    part = build_event_partition(P)
    m = len(part.angles)
    reps = [_rep_and_angle(a) for a in part.angles]

    best = None
    witness = None
    for j in range(m):
        lo_r, s_lo = reps[j]
        if j + 1 < m:
            hi_r, s_hi = reps[j + 1]
        else:
            r0, s0 = reps[0]
            hi_r, s_hi = (-r0[0], -r0[1], r0[2]), s0 + math.pi
        v = _interval_representative(lo_r, hi_r, s_lo, s_hi)
        leaves = reeb_graph(P, v).l
        if best is None or leaves < best:
            best = leaves
            witness = v

    cones = [P.cone(i) for i in P.reflex_indices()]
    k = len(cones)
    boundary_best = None
    for a in part.angles:
        cov = sum(1 for c in cones if c.contains(a))
        score = k - cov + 2 - 2 * P.h
        if boundary_best is None or score < boundary_best:
            boundary_best = score

    return OracleResult(
        min_leaves=best,
        witness=witness,
        intervals_evaluated=m,
        boundary_beats_interior=boundary_best < best,
        boundary_value=boundary_best,
    )
