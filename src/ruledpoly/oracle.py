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

Everything is integer: each event direction is its coprime pair, and
each interval's representative is the sum of the pairs at its two ends,
each taken with the sign that points into the sweep's half-turn. The
ends are less than 180 degrees apart, so the sum lies strictly inside
the interval.

The representatives of one polygon are swept as one batch
(reeb._reeb_graphs): their height orders come a block of directions at a
time, one float pass and one row-wise sort per block with exact
fallbacks, and then one Reeb sweep per representative, with every
consistency check of the sweep, of which only the leaf count is read:
no Reeb node object is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key

from .exactmath import exact_delta, sign
from .geometry import Direction, Polygon
from .reeb import _reeb_graphs

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
    """Every direction orthogonal to some vertex-pair difference, as its
    coprime canonical integer pair, sorted along the sweep. Each vertex
    difference is exact_delta's, of the polygon's Points' integers."""
    pts = [(p.X, p.Y, p.D) for ring in P.rings for p in ring]
    seen = set()
    for i in range(P.n):
        a = pts[i]
        for j in range(i + 1, P.n):
            dx, dy, _ = exact_delta(a, pts[j])
            if dx == 0 and dy == 0:
                continue
            g = math.gcd(dx, dy)
            x, y = -dy // g, dx // g
            if y < 0 or (y == 0 and x < 0):
                x, y = -x, -y
            seen.add((x, y))
    order = sorted(seen, key=cmp_to_key(_sweep_cmp))
    return EventPartition(tuple(Direction(x, y) for x, y in order))


def _sweep_rep(d: Direction) -> tuple[int, int]:
    """The integer pair of d that points into the sweep's half-turn:
    (0, -1) for the vertical-line normal, otherwise the one with dx > 0."""
    x, y = d.canonical_pair()
    if x == 0:
        return 0, -1
    return (-x, -y) if x < 0 else (x, y)


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
            "witness": list(self.witness.canonical_pair()),
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
    reps = [_sweep_rep(a) for a in part.angles]
    # the wrap interval ends at the first representative turned by 180
    # degrees; any two ends are less than 180 degrees apart (a polygon
    # has at least 3 event angles), so the sum of the two ends lies
    # strictly inside the open interval between them
    ends = reps[1:] + [(-reps[0][0], -reps[0][1])]

    inside = [Direction(x1 + x2, y1 + y2) for (x1, y1), (x2, y2) in zip(reps, ends)]

    best = None
    witness = None
    for v, g in zip(inside, _reeb_graphs(P, inside)):
        if best is None or g.l < best:
            best = g.l
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
