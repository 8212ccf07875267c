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

from .complexity import _strictly_inside_arc, _sweep_rep
from .exactmath import float_direction, sign
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


def _sweep_cmp(u: Direction, w: Direction) -> int:
    """Total order of canonical directions along the rotational sweep.

    The vertical-line normal (0, 1) comes first; then directions with
    dx < 0 (first quarter turn), then dx > 0, each by exact cross sign.
    """
    pu = 0 if u.dx == 0 else (1 if u.dx < 0 else 2)
    pw = 0 if w.dx == 0 else (1 if w.dx < 0 else 2)
    if pu != pw:
        return pu - pw
    if pu == 0:
        return 0
    return -sign(u.dx * w.dy - u.dy * w.dx)


@dataclass(frozen=True)
class EventPartition:
    """Sorted event angles and the open intervals between them."""

    angles: tuple[Direction, ...]

    @property
    def intervals(self) -> tuple[tuple[Direction, Direction], ...]:
        m = len(self.angles)
        return tuple((self.angles[j], self.angles[(j + 1) % m]) for j in range(m))


def build_event_partition(P: Polygon) -> EventPartition:
    """Every direction orthogonal to some vertex-pair difference, sorted."""
    pts = [P.vertex(i) for i in range(P.n)]
    seen = {}
    for i in range(P.n):
        a = pts[i]
        for j in range(i + 1, P.n):
            b = pts[j]
            dx = b.x - a.x
            dy = b.y - a.y
            if dx == 0 and dy == 0:
                continue
            d = Direction(-dy, dx)
            seen.setdefault(d.canonical_pair(), d)
    angles = sorted(seen.values(), key=cmp_to_key(_sweep_cmp))
    return EventPartition(tuple(angles))


def _rep_and_angle(d: Direction) -> tuple[tuple[Fraction, Fraction], float]:
    """Sweep representative vector and float sweep angle of an event."""
    if d.dx == 0:
        return (Fraction(0), Fraction(-1)), 0.0
    r = _sweep_rep((d.dx, d.dy))
    fx, fy = float_direction(r[0], r[1])
    return r, math.atan2(fx, -fy)


def _interval_representative(lo_r, hi_r, s_lo: float, s_hi: float) -> Direction:
    """Deterministic direction strictly inside one open interval.

    The float angular midpoint is snapped to exact rationals and
    verified strictly inside by cross products; the exact positive
    combination of the endpoints backs it up for degenerate widths.
    """
    s_mid = 0.5 * (s_lo + s_hi)
    vx = Fraction(math.sin(s_mid))
    vy = Fraction(-math.cos(s_mid))
    if (vx or vy) and _strictly_inside_arc((vx, vy), lo_r, hi_r):
        return Direction(vx, vy)
    return Direction(lo_r[0] + hi_r[0], lo_r[1] + hi_r[1])


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
            hi_r, s_hi = (-r0[0], -r0[1]), s0 + math.pi
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
