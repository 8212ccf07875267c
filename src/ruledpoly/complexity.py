"""Reeb complexity over parallel rulings: rotational cone sweep.

A reflex vertex p stops producing a branch node exactly when the sweep
direction v lies in its closed double cone C_p, so the minimum leaf
count over all parallel rulings is k - c_max + 2 - 2h where c_max is the
maximum number of cones any single direction stabs. Directions live on
the circle mod 180 degrees; each cone is a closed angular interval, so
c_max is a 1-dimensional stabbing problem: sort the 2k interval
endpoints, initialize a counter with the number of cones already
containing the start direction v0 = (0, -1), and walk the circle once,
counting entries before exits at shared angles because the intervals are
closed.

The walk tracks two maxima. The interval maximum is the best coverage
over open arcs between events, i.e. the best any generic direction can
achieve; that is what bounds the ruling leaf count, so it is the c_max
the complexity result reports. The pointwise maximum also counts
isolated event angles and can exceed the interval maximum, e.g. at the
shared edge normal of two adjacent reflex vertices; such a direction
ties two vertex heights, so no valid ruling realizes the higher count.
A gap between the two maxima is reported as the degenerate flag, and
max_cone_coverage (a pure stabbing query, no genericity constraint)
reports the pointwise maximum.

Both entry points share one front end (_event_set) that turns the 2k
apex-to-neighbor vectors of k cones, stacked in one array, into sweep
events: event i < k is cone i's entry, at the normal of the vector to
its ring predecessor, and event k + i its exit, at the normal of the
vector to its successor. max_cone_coverage reads the vectors from
materialized DoubleCone objects, parallel_reeb_complexity straight from
the polygon's coordinate arrays, since constructing tens of thousands
of exact cone objects would dominate the runtime budget. Angles are
float keys with rigorous radii (exactmath.angle_filter);
exactmath.filtered_order re-orders events whose radii overlap by exact
slope comparison. The sweep has one exact accessor, from event lanes to
the integer sweep representatives of their normals, lane by lane. It
reads the caller's event vectors as integer rows at a positive scale of
each: the cones' vectors, or the polygon's edge vectors as
exactmath.delta_lanes gives them from the polygon's integer vertex
table, over its common scale where it has one, so that on a grid every
lane subtracts in int64 and stays there: the slope comparison
(_cmp_sweep) is exactmath.cross_sign, over int64 limbs. On a
point-symmetric polygon every event ties with its antipodal twin, and
all such two-lane chains take one gather and one lane-wise comparison.
The ends of the chosen arc come through the same accessor, at the
table's own scale, which is the scale the witness's perturbation bound
reads, as Python ints.

A witness is built, not searched for (_generic_witness): the simplest
integer direction of the chosen open arc, checked once for genericity,
and only if it ties two heights, an exact perturbation of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exactmath import (
    angle_filter,
    cross_sign,
    delta_lanes,
    diff_error_bound,
    filtered_order,
    filtered_sign_array,
    float_direction,
    mirror_error_bound,
)
from .geometry import Direction, DoubleCone, Polygon
from .reeb import is_generic

__all__ = [
    "ComplexityResult",
    "max_cone_coverage",
    "parallel_reeb_complexity",
]

_V0 = (0, -1)      # angular sweep starts straight down
_V0_END = (0, 1)   # v0 rotated by 180 degrees


@dataclass(frozen=True)
class ComplexityResult:
    """Minimum leaf count over parallel rulings, with its witness.

    c_max is the interval coverage maximum, so the witness is always a
    generic integer direction lying in exactly c_max cones and
    min_leaves is attained by an actual ruling; as_dict writes it as its
    two coprime canonical integers. degenerate means some isolated cone
    boundary angle is covered by strictly more than c_max cones; that
    direction ties vertex heights and admits no valid ruling.
    """

    min_leaves: int
    witness: Direction
    c_max: int
    k: int
    h: int
    degenerate: bool

    def as_dict(self) -> dict:
        return {
            "min_leaves": self.min_leaves,
            "c_max": self.c_max,
            "k": self.k,
            "h": self.h,
            "witness": list(self.witness.canonical_pair()),
            "degenerate": self.degenerate,
        }


# -- shared sweep core ------------------------------------------------------
#
# Directions are parametrized by the rotation s in [0, pi) taking v0
# counterclockwise onto them; the "sweep representative" of a canonical
# direction u is R = -u when u.dx < 0 (s in (0, pi/2)) and R = u when
# u.dx > 0 (s in [pi/2, pi)). R ranges over the seam-free half circle
# from (0,-1) through (1,0) to (0,1), so float angle keys never wrap.
# Directions with u.dx == 0 sit exactly at s = 0: their entries are
# already counted in the initial coverage and their exits happen before
# any positive angle.


@dataclass(frozen=True)
class _EventSet:
    """Non-seam events plus the one exact accessor of the sweep."""

    sf: np.ndarray
    kind: np.ndarray
    radius: np.ndarray
    # event lanes (indices into sf) -> rows (x, y) of the sweep
    # representatives R of their normals, integers, x > 0
    exact: Callable[[np.ndarray], np.ndarray]
    init_count: int
    seam_exits: int
    seam_entries: int


def _cmp_sweep(u, w):
    """Exact sweep order of sweep representatives u, w (x > 0), by slope:
    -1, 0 or 1 as u comes before, with or after w, the sign of
    cross(w, u). Lane by lane on rows of them, too."""
    return cross_sign(w[0], w[1], u[0], u[1])


@dataclass(frozen=True)
class _SweepProfile:
    """Both coverage maxima of one sweep, with their attainment."""

    closed_max: int     # counts isolated event angles (entries before exits)
    interior_max: int   # best coverage over open arcs between events
    interior_arc: tuple  # (lo_R, hi_R): first open arc attaining interior_max
    closed_sel: tuple   # ("interval", lo, hi) or ("point", R)


def _sweep_select(ev: _EventSet) -> _SweepProfile:
    """Run the angular sweep and locate both coverage maxima.

    interior_arc endpoints are sweep representatives (lo may be v0, hi
    may be v0 + 180 degrees); the arc is never empty because seam events
    were stripped, so every event group sits strictly between the two.
    closed_sel prefers an arc and falls back to the first isolated
    angle, its sweep representative, when only points attain closed_max.
    """
    init0 = ev.init_count - ev.seam_exits
    if len(ev.sf) == 0:
        # no angular events at all: constant coverage
        full = ("interval", _V0, _V0_END)
        return _SweepProfile(ev.init_count, ev.init_count, (_V0, _V0_END), full)

    order, tie = filtered_order(ev.sf, ev.radius, ev.exact, _cmp_sweep)
    kinds = ev.kind[order]
    starts = np.flatnonzero(~tie)  # one event group per exact angle
    ent = np.add.reduceat((kinds > 0).astype(np.int64), starts)
    ext = np.add.reduceat((kinds < 0).astype(np.int64), starts)
    net = np.cumsum(ent - ext)
    c_before = init0 + np.concatenate(([0], net[:-1]))
    point_cov = c_before + ent
    interval_cov = point_cov - ext
    # period identity: cones seen at v0 are the seam entries plus everything
    # still covering the last interval (seam exits end at 180 degrees)
    if int(interval_cov[-1]) != ev.init_count - ev.seam_entries:
        raise RuntimeError("sweep counter did not close the period")
    if int(interval_cov.min()) < 0:
        raise RuntimeError("negative coverage: entry/exit mislabeled")

    closed_max = max(ev.init_count, int(point_cov.max()))
    interior_max = max(init0, int(interval_cov.max()))

    n_groups = len(starts)

    def group_reps(groups: list[int]) -> list[tuple[int, int]]:
        return [tuple(r) for r in ev.exact(order[starts[groups]]).T.tolist()]

    def arc_after(g: int):
        # the open arc following event group g; g == -1 is the arc from v0
        ends = group_reps([h for h in (g, g + 1) if 0 <= h < n_groups])
        lo = _V0 if g < 0 else ends.pop(0)
        hi = _V0_END if g == n_groups - 1 else ends.pop(0)
        return lo, hi

    if init0 == interior_max:
        interior_arc = arc_after(-1)
    else:
        interior_arc = arc_after(int(np.flatnonzero(interval_cov == interior_max)[0]))

    if closed_max == interior_max:
        closed_sel = ("interval",) + interior_arc
    elif ev.init_count == closed_max:
        closed_sel = ("point", _V0_END)
    else:
        g = int(np.flatnonzero(point_cov == closed_max)[0])
        closed_sel = ("point", group_reps([g])[0])
    return _SweepProfile(closed_max, interior_max, interior_arc, closed_sel)


def _event_set(dx, dy, ex, ey, exact_d: Callable[[np.ndarray], np.ndarray]) -> _EventSet:
    """The 2k sweep events of k cones, one entry and one exit each.

    Event i < k is cone i's entry, at the normal of the float vector
    (dx[i], dy[i]) from its apex to its ring predecessor; event k + i is
    its exit, at the normal of the vector to its successor. ex and ey
    are absolute error bounds, and exact_d(events) gives those events'
    vectors exactly, as the rows (x, y, ...) of integers at any positive
    scale of each. Signs and directions are scale-free, so this one
    accessor serves the signs, the tie chains and the arc endpoints, the
    last at the scale of the caller's rows, which the witness's
    perturbation bound reads as they come.
    """
    k = len(dx) // 2
    sy = filtered_sign_array(dy, ey, lambda events: exact_d(events)[1])

    # v0 = (0,-1) lies in the cone iff sign(d1y) * sign(d2y) <= 0
    init = int(np.count_nonzero(sy[:k] * sy[k:] <= 0))

    # the event at the normal (dy, -dx) has the sweep representative
    # R = sign(dy) (dy, -dx) = (|dy|, -sign(dy) dx); a normal with no x
    # component sits on the seam
    seam = sy == 0
    ids = np.flatnonzero(~seam)
    s = sy[ids]
    kind = np.where(ids < k, 1, -1).astype(np.int8)
    # the angle of (-R.y, R.x); R.x >= 0 is clamped at 0 so rounding never
    # wraps it across the seam
    sf, radius = angle_filter(np.maximum(s * dy[ids], 0.0), s * dx[ids], ey[ids], ex[ids])

    def exact(lanes: np.ndarray) -> np.ndarray:
        x, y = exact_d(ids[lanes])[:2]
        return np.array((abs(y), -s[lanes] * x))

    return _EventSet(sf, kind, radius, exact, init,
                     int(np.count_nonzero(seam[k:])), int(np.count_nonzero(seam[:k])))


def _simplest_above(p0: int, q0: int, p1: int, q1: int) -> tuple[int, int]:
    """(a, b), b / a the simplest fraction strictly between p0 / q0 >= 0
    and p1 / q1 (q1 == 0: no upper bound), by continued-fraction descent.

    With n = floor(p0 / q0) it is n + 1 if that is below the upper bound,
    else n + 1 / t, t the simplest fraction of (1 / (p1 / q1 - n),
    1 / (p0 / q0 - n)). (b0 b1; a0 a1) composes the maps t -> n + 1 / t;
    its determinant is +-1, so a and b are coprime.
    """
    b0, b1, a0, a1 = 1, 0, 0, 1
    while True:
        n = p0 // q0
        if q1 == 0 or (n + 1) * q1 < p1:
            return a0 * (n + 1) + a1, b0 * (n + 1) + b1
        b0, b1, a0, a1 = b0 * n + b1, b0, a0 * n + a1, a0
        p0, q0, p1, q1 = q1, p1 - n * q1, q0, p0 - n * q0


def _simplest_in_arc(lo: tuple[int, int], hi: tuple[int, int]) -> tuple[int, int]:
    """The simplest integer direction (a, b) strictly inside the open arc lo -> hi.

    lo and hi are sweep representatives, so the arc is the open slope
    interval (lo.y / lo.x, hi.y / hi.x) of directions with a > 0, x == 0
    standing for -inf or +inf. b / a is its Stern-Brocot simplest
    fraction (Graham, Knuth and Patashnik, Concrete Mathematics 4.5):
    0 if it holds 0, else found on the positive side, mirrored if need be.
    """
    (lx, ly), (hx, hy) = lo, hi
    if (lx == 0 or ly < 0) and (hx == 0 or hy > 0):
        return 1, 0
    if hx and hy <= 0:
        a, b = _simplest_above(-hy, hx, -ly, lx)
        return a, -b
    return _simplest_above(ly, lx, hy, hx)


def _generic_witness(P: Polygon, lo: tuple[int, int], hi: tuple[int, int]) -> Direction:
    """A generic direction strictly inside the open arc lo -> hi, built.

    The simplest direction w = (a, b) of the arc is checked once. If it
    ties two heights, w' = q w + (-b, a) is generic and in the arc for q
    above three bounds (symbolic perturbation; Edelsbrunner and Mucke,
    Simulation of Simplicity, 1990). A vertex difference d tied under w
    is parallel to (-b, a), which splits it. Any other d, as the integers
    (x, y) that exactmath.delta_lanes gives from P's table, has
    |<w, (x, y)>| >= 1 and |<(-b, a), (x, y)>| <= (|a| + |b|)
    max(|x|, |y|), so q keeps the sign of <w, d>. Equal scales give
    |x| <= 2 max |X|; distinct ones |X_j D_i - X_i D_j| <= |X_j| D_i +
    |X_i| D_j, each term at most |X| times the largest scale other than
    the point's own. The bound reads the table at its own scale: a grid
    has one, so its second scale is 1, and any other table is canonical.
    lo and hi are integer vectors from the same table, so the witness is
    a function of the polygon through its table. cross(lo, w) >= 1 and
    |cross(lo, (-b, a))| = |<lo, w>| <= (|a| + |b|) |lo|_1, so w' stays
    on w's side of lo, and so of hi.
    """
    a, b = _simplest_in_arc(lo, hi)
    w = Direction(a, b)
    if is_generic(P, w):
        return w
    X, Y, D = P._ints
    top = int(D.max())
    at_top = D == top
    second = int(D[~at_top].max(initial=1))
    mag = np.maximum(abs(X), abs(Y))
    diff = 2 * max(int(mag[at_top].max()) * second, int(mag[~at_top].max(initial=0)) * top)
    q = 1 + (abs(a) + abs(b)) * max(diff, abs(lo[0]) + abs(lo[1]), abs(hi[0]) + abs(hi[1]))
    return Direction(q * a - b, q * b + a)


def max_cone_coverage(cones: Sequence[DoubleCone]) -> tuple[int, Direction]:
    """Maximum number of closed cones a single direction lies in.

    Returns (c_max, witness). This is the pointwise count: two cones
    sharing a single boundary direction score 2 there. The witness
    attains c_max: the simplest direction of an attaining arc when one
    exists, otherwise the isolated boundary direction itself. It is not
    genericity adjusted; that is the caller's concern.
    """
    if not cones:
        return 0, Direction(1, 0)
    vecs = [c._d1[:2] for c in cones] + [c._d2[:2] for c in cones]
    # any positive scale of each vector will do, so none overflows a float
    d = np.array([float_direction(*u) for u in vecs])
    exact = np.array(vecs, dtype=object).T
    ev = _event_set(*d.T, *mirror_error_bound(d).T, lambda events: exact[:, events])
    prof = _sweep_select(ev)
    skind, *data = prof.closed_sel
    vec = _simplest_in_arc(*data) if skind == "interval" else data[0]
    return prof.closed_max, Direction(*vec)


def parallel_reeb_complexity(P: Polygon) -> ComplexityResult:
    """Reeb complexity of P over parallel rulings: min_leaves with witness.

    Builds the cone boundary events directly from the polygon's
    coordinate arrays (one vectorized pass plus exact fallback lanes)
    and runs the angular sweep. The witness is an integer direction
    strictly inside a best open arc and generic by construction
    (_generic_witness), so reeb_graph(P, witness) realizes min_leaves
    even when the flag marks a higher boundary-only pointwise count.
    """
    r = np.flatnonzero(P._reflex)
    k = len(r)
    h = P.h
    if k == 0:
        witness = _generic_witness(P, _V0, _V0_END)
        return ComplexityResult(2 - 2 * h, witness, 0, 0, h, False)

    apex = np.concatenate((r, r))
    neighbor = np.concatenate((P._prev[r], P._next[r]))  # entries, then exits
    X = P._coords[:, 0]
    Y = P._coords[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # filtered_sign_array signs inf lanes exactly
        dx = X[neighbor] - X[apex]
        dy = Y[neighbor] - Y[apex]
        ex = diff_error_bound(dx, X[neighbor], X[apex])
        ey = diff_error_bound(dy, Y[neighbor], Y[apex])
    ends = np.array((apex, neighbor))
    ev = _event_set(dx, dy, ex, ey, lambda events: delta_lanes(P._ints, ends[:, events]))
    prof = _sweep_select(ev)
    c_max = prof.interior_max
    witness = _generic_witness(P, *prof.interior_arc)
    degenerate = prof.closed_max > c_max
    return ComplexityResult(k - c_max + 2 - 2 * h, witness, c_max, k, h, degenerate)
