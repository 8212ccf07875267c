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

Both entry points share one front end that turns each cone's two
apex-to-neighbor vectors into sweep events: max_cone_coverage reads them
from materialized DoubleCone objects, parallel_reeb_complexity straight
from the polygon's coordinate arrays, since constructing tens of
thousands of exact cone objects would dominate the runtime budget.
Angles are float keys with rigorous radii (exactmath.angle_filter);
exactmath.filtered_order re-orders events whose radii overlap by exact
cross product comparison, on vectors from the caller's one exact
accessor: the cones' Fraction vectors, or integer edge vectors from the
polygon's vertices held as integers over a per-vertex denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .exactmath import (
    angle_filter,
    diff_error_bound,
    filtered_order,
    filtered_sign_array,
    float_direction,
    mirror_error_bound,
    sign,
)
from .geometry import Direction, DoubleCone, Point, Polygon
from .reeb import is_generic

__all__ = [
    "ComplexityResult",
    "max_cone_coverage",
    "parallel_reeb_complexity",
]

_V0 = (Fraction(0), Fraction(-1))      # angular sweep starts straight down
_V0_END = (Fraction(0), Fraction(1))   # v0 rotated by 180 degrees


@dataclass(frozen=True)
class ComplexityResult:
    """Minimum leaf count over parallel rulings, with its witness.

    c_max is the interval coverage maximum, so the witness is always a
    generic direction lying in exactly c_max cones and min_leaves is
    attained by an actual ruling. degenerate means some isolated cone
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
            "witness": [float(self.witness.dx), float(self.witness.dy)],
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


class _EventSet:
    """Non-seam events plus the exact accessor for tie resolution."""

    __slots__ = ("sf", "kind", "radius", "ids", "exact_dir",
                 "init_count", "seam_exits", "seam_entries")

    def __init__(self, sf, kind, radius, ids, exact_dir,
                 init_count, seam_exits, seam_entries):
        self.sf = sf
        self.kind = kind
        self.radius = radius
        self.ids = ids
        self.exact_dir = exact_dir  # original event id -> canonical (dx, dy), any scale
        self.init_count = init_count
        self.seam_exits = seam_exits
        self.seam_entries = seam_entries


def _cmp_canonical(u, w) -> int:
    """Exact sweep order of two canonical non-seam direction vectors.

    Components may be Fractions or denominator-cleared integers; polygons
    use the integer form since symmetric polygons produce one coincident
    event pair per cone and Fraction products are the bottleneck at that
    volume.
    """
    pu = 0 if u[0] < 0 else 1
    pw = 0 if w[0] < 0 else 1
    if pu != pw:
        return pu - pw
    return -sign(u[0] * w[1] - u[1] * w[0])


def _sweep_rep(vec: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Exact sweep representative R of a canonical non-seam direction."""
    if vec[0] < 0:
        return (-vec[0], -vec[1])
    return vec


@dataclass(frozen=True)
class _SweepProfile:
    """Both coverage maxima of one sweep, with their attainment."""

    closed_max: int     # counts isolated event angles (entries before exits)
    interior_max: int   # best coverage over open arcs between events
    interior_arc: tuple  # (lo_R, hi_R): first open arc attaining interior_max
    closed_sel: tuple   # ("interval", lo, hi) or ("point", canonical vec)


def _sweep_select(ev: _EventSet) -> _SweepProfile:
    """Run the angular sweep and locate both coverage maxima.

    interior_arc endpoints are sweep representatives (lo may be v0, hi
    may be v0 + 180 degrees); the arc is never empty because seam events
    were stripped, so every event group sits strictly between the two.
    closed_sel prefers an arc and falls back to the first isolated
    angle, canonical components, when only points attain closed_max.
    """
    init0 = ev.init_count - ev.seam_exits
    if len(ev.sf) == 0:
        # no angular events at all: constant coverage
        full = ("interval", _V0, _V0_END)
        return _SweepProfile(ev.init_count, ev.init_count, (_V0, _V0_END), full)

    order, tie = filtered_order(ev.sf, ev.radius,
                                lambda t: ev.exact_dir(int(ev.ids[t])), _cmp_canonical)
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

    def group_vec(g: int) -> tuple[Fraction, Fraction]:
        return ev.exact_dir(int(ev.ids[int(order[starts[g]])]))

    n_groups = len(starts)

    def arc_after(g: int):
        # the open arc following event group g; g == -1 is the arc from v0
        lo = _V0 if g < 0 else _sweep_rep(group_vec(g))
        hi = _V0_END if g == n_groups - 1 else _sweep_rep(group_vec(g + 1))
        return lo, hi

    if init0 == interior_max:
        interior_arc = arc_after(-1)
    else:
        interior_arc = arc_after(int(np.flatnonzero(interval_cov == interior_max)[0]))

    if closed_max == interior_max:
        closed_sel = ("interval",) + interior_arc
    elif ev.init_count == closed_max:
        closed_sel = ("point", (Fraction(0), Fraction(1)))
    else:
        g = int(np.flatnonzero(point_cov == closed_max)[0])
        closed_sel = ("point", group_vec(g))
    return _SweepProfile(closed_max, interior_max, interior_arc, closed_sel)


def _event_set(d1x, d1y, d2x, d2y, e1x, e1y, e2x, e2y,
               exact_d: Callable[[int, int], tuple]) -> _EventSet:
    """The 2k sweep events of k cones, one entry and one exit each.

    Cone i is given by the float vectors d1, d2 from its apex to its ring
    predecessor and successor, with absolute error bounds e*, and by
    exact_d(i, 1) or exact_d(i, 2), the same vector exactly at any
    positive scale. Signs and directions are scale-free, so this one
    accessor serves the signs, the tie clusters and the arc endpoints.
    Event id i is cone i's entry, at the normal of d1; k + i its exit.
    """
    k = len(d1x)
    s1x = filtered_sign_array(d1x, e1x, lambda i: exact_d(i, 1)[0])
    s1y = filtered_sign_array(d1y, e1y, lambda i: exact_d(i, 1)[1])
    s2x = filtered_sign_array(d2x, e2x, lambda i: exact_d(i, 2)[0])
    s2y = filtered_sign_array(d2y, e2y, lambda i: exact_d(i, 2)[1])

    # v0 = (0,-1) lies in the cone iff sign(d1y) * sign(d2y) <= 0
    init = int(np.count_nonzero(s1y * s2y <= 0))

    # raw normals: entry (d1y, -d1x), exit (d2y, -d2x); canonical flip when
    # the y component is negative, or zero with negative x component
    def build(dy, dx, sy, sx, e_dx, e_dy):
        # event direction raw = (dy, -dx): x error is e_dy, y error is e_dx
        flip = (sx > 0) | ((sx == 0) & (sy < 0))
        fsign = np.where(flip, -1.0, 1.0)
        cx = fsign * dy
        cy = fsign * (-dx)
        seam = sy == 0
        phase = np.where(flip, -sy, sy).astype(np.float64)
        return cx, cy, e_dy, e_dx, phase, seam

    en_cx, en_cy, en_xe, en_ye, en_ph, en_seam = build(d1y, d1x, s1y, s1x, e1x, e1y)
    ex_cx, ex_cy, ex_xe, ex_ye, ex_ph, ex_seam = build(d2y, d2x, s2y, s2x, e2x, e2y)

    seam_entries = int(np.count_nonzero(en_seam))
    seam_exits = int(np.count_nonzero(ex_seam))

    keep_en = ~en_seam
    keep_ex = ~ex_seam
    cx = np.concatenate([en_cx[keep_en], ex_cx[keep_ex]])
    cy = np.concatenate([en_cy[keep_en], ex_cy[keep_ex]])
    x_err = np.concatenate([en_xe[keep_en], ex_xe[keep_ex]])
    y_err = np.concatenate([en_ye[keep_en], ex_ye[keep_ex]])
    phase = np.concatenate([en_ph[keep_en], ex_ph[keep_ex]])
    kind = np.concatenate([
        np.ones(int(np.count_nonzero(keep_en)), dtype=np.int8),
        -np.ones(int(np.count_nonzero(keep_ex)), dtype=np.int8),
    ])
    ids = np.concatenate([np.flatnonzero(keep_en), k + np.flatnonzero(keep_ex)])
    # the angle of (-R.y, R.x) for the sweep representative R = phase * (cx, cy);
    # R.x >= 0 is clamped at 0 so rounding never wraps it across the seam
    sf, radius = angle_filter(np.maximum(phase * cx, 0.0), -(phase * cy), x_err, y_err)

    def exact_dir(event_id: int) -> tuple:
        i, which = (event_id, 1) if event_id < k else (event_id - k, 2)
        dx, dy = exact_d(i, which)
        vx, vy = dy, -dx
        if vy < 0 or (vy == 0 and vx < 0):
            vx, vy = -vx, -vy
        return (vx, vy)

    return _EventSet(sf, kind, radius, ids, exact_dir, init, seam_exits, seam_entries)


def _strictly_inside_arc(w: tuple[Fraction, Fraction],
                         lo: tuple[Fraction, Fraction],
                         hi: tuple[Fraction, Fraction]) -> bool:
    """Whether direction w lies strictly inside the open arc lo -> hi.

    lo and hi are sweep representatives less than 180 degrees apart, so
    strict cross product tests against one of w's two vector
    representatives decide membership.
    """

    def inside(wx, wy):
        return (lo[0] * wy - lo[1] * wx > 0) and (wx * hi[1] - wy * hi[0] > 0)

    return inside(w[0], w[1]) or inside(-w[0], -w[1])


def _dyadic_positions():
    """1/4, 3/4, 1/8, 3/8, ...: deterministic bisection order."""
    depth = 2
    while True:
        step = 1.0 / (1 << depth)
        for odd in range(1, 1 << depth, 2):
            yield odd * step
        depth += 1


def _rep_angle(vec: tuple[Fraction, Fraction]) -> float:
    """Float sweep angle of an exact representative (for searching only)."""
    fx, fy = float_direction(vec[0], vec[1])
    return math.atan2(fx, -fy)


def _generic_witness(P: Polygon, lo: tuple[Fraction, Fraction],
                     hi: tuple[Fraction, Fraction], budget: int = 512) -> Direction:
    """A generic direction strictly inside the open arc lo -> hi.

    Tries the angular midpoint first, then the exact positive
    combination lo + hi (always strictly inside), then bisects toward
    either endpoint, verifying every candidate exactly, until some
    candidate separates all vertex heights.
    """
    s_lo = _rep_angle(lo)
    s_hi = _rep_angle(hi)

    def try_angle(s: float) -> Direction | None:
        vec = (Fraction(math.sin(s)), Fraction(-math.cos(s)))
        if (vec[0] or vec[1]) and _strictly_inside_arc(vec, lo, hi):
            cand = Direction(vec[0], vec[1])
            if is_generic(P, cand):
                return cand
        return None

    found = try_angle(0.5 * (s_lo + s_hi))
    if found is not None:
        return found
    mx, my = lo[0] + hi[0], lo[1] + hi[1]
    if mx or my:
        cand = Direction(mx, my)
        if is_generic(P, cand):
            return cand
    tried = 0
    for t in _dyadic_positions():
        found = try_angle(s_lo + (s_hi - s_lo) * t)
        if found is not None:
            return found
        tried += 1
        if tried >= budget:
            raise ValueError(
                "no generic direction found inside the optimal angular interval")


def max_cone_coverage(cones: Sequence[DoubleCone]) -> tuple[int, Direction]:
    """Maximum number of closed cones a single direction lies in.

    Returns (c_max, witness). This is the pointwise count: two cones
    sharing a single boundary direction score 2 there. The witness
    attains c_max, strictly inside an attaining arc when one exists,
    otherwise the isolated boundary direction itself. It is not
    genericity adjusted; that is the caller's concern.
    """
    if not cones:
        return 0, Direction(1, 0)
    # any positive scale of each vector will do, so none overflows a float
    d = np.array([float_direction(*c._d1) + float_direction(*c._d2) for c in cones])
    ev = _event_set(*d.T, *mirror_error_bound(d).T,
                    lambda i, which: cones[i]._d1 if which == 1 else cones[i]._d2)
    prof = _sweep_select(ev)
    skind, *data = prof.closed_sel
    if skind == "interval":
        lo, hi = data
        witness = Direction(lo[0] + hi[0], lo[1] + hi[1])
    else:
        (vec,) = data
        witness = Direction(vec[0], vec[1])
    return prof.closed_max, witness


def _homogeneous(p: Point) -> tuple[int, int, int]:
    """Integers (X, Y, D) with p = (X/D, Y/D), D the lcm of p's denominators."""
    xn, xd = p.x.as_integer_ratio()
    yn, yd = p.y.as_integer_ratio()
    d = math.lcm(xd, yd)
    return xn * (d // xd), yn * (d // yd), d


def _integer_edges(P: Polygon, r: np.ndarray) -> Callable[[int, int], tuple[int, int]]:
    """exact_d for the cones at P's reflex vertices r, as integer pairs.

    Symmetric polygons tie on nearly every event, so the clusters must
    run on ints rather than Fractions. Each vertex keeps its own scale
    D: one common denominator grows with n when denominators differ.
    """
    coords = [_homogeneous(p) for p in P._pts]
    apex = r.tolist()
    neighbor = (None, P._prev[r].tolist(), P._next[r].tolist())

    def exact_d(i: int, which: int) -> tuple[int, int]:
        xa, ya, da = coords[apex[i]]
        xb, yb, db = coords[neighbor[which][i]]
        if da == db:
            return (xb - xa, yb - ya)
        return (xb * da - xa * db, yb * da - ya * db)

    return exact_d


@np.errstate(over="ignore", invalid="ignore")  # filtered_sign_array signs inf lanes exactly
def parallel_reeb_complexity(P: Polygon) -> ComplexityResult:
    """Reeb complexity of P over parallel rulings: min_leaves with witness.

    Builds the cone boundary events directly from the polygon's
    coordinate arrays (one vectorized pass plus exact fallback lanes)
    and runs the angular sweep. The witness is always drawn from the
    interior of a best open arc and perturbed within it until generic,
    so reeb_graph(P, witness) realizes min_leaves even when the flag
    marks a higher boundary-only pointwise count.
    """
    reflex_ids = P.reflex_indices()
    k = len(reflex_ids)
    h = P.h
    if k == 0:
        witness = _generic_witness(P, _V0, _V0_END)
        return ComplexityResult(2 - 2 * h, witness, 0, 0, h, False)

    r = np.array(reflex_ids, dtype=np.intp)
    X = P._coords[:, 0]
    Y = P._coords[:, 1]
    rp = P._prev[r]
    rn = P._next[r]
    d1x = X[rp] - X[r]
    d1y = Y[rp] - Y[r]
    d2x = X[rn] - X[r]
    d2y = Y[rn] - Y[r]
    e1x = diff_error_bound(d1x, X[rp], X[r])
    e1y = diff_error_bound(d1y, Y[rp], Y[r])
    e2x = diff_error_bound(d2x, X[rn], X[r])
    e2y = diff_error_bound(d2y, Y[rn], Y[r])
    ev = _event_set(d1x, d1y, d2x, d2y, e1x, e1y, e2x, e2y, _integer_edges(P, r))
    prof = _sweep_select(ev)
    c_max = prof.interior_max
    witness = _generic_witness(P, *prof.interior_arc)
    degenerate = prof.closed_max > c_max
    return ComplexityResult(k - c_max + 2 - 2 * h, witness, c_max, k, h, degenerate)
