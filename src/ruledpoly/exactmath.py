"""Filtered exact arithmetic: one error model behind every float decision.

Every geometric decision here is the sign or the order of small
polynomials in exact coordinates, integers over a positive scale: one
common scale for a whole polygon where its grid fits below 2^53, and
each point's own otherwise (exact_delta). Every sign and order is
scale-free. Each is evaluated in floats with a rigorous error bound
and recomputed exactly, in integers, only when the float value is not
clearly decided. The floats are rounded mirrors of exact rationals, and
every bound is built from one model of their error: a relative U
(2^-52, twice the unit roundoff) for each rounding, of an exact
rational into its mirror or of a float operation, and an absolute ETA
(2^-1074, twice the largest error of a rounding into the subnormal
range) for each rounding that may underflow: a mirror or a product, not
a sum or a difference, which is then exact. mirror_error_bound,
diff_error_bound, cross_filter (orient_sign for point location, and
orient_lanes for every other orientation: corner signs, contacts and
the star certificate of generators), dot_filter (reeb's heights) and
angle_filter (sweep angles) apply it; filtered_sign_array and
filtered_order let exact values decide the rest. Both take one batch
accessor, exact(lanes): for an index array of the lanes the floats
leave undecided, their exact values in one array whose last axis runs
over those lanes, object arrays of Python ints, so that every operation
on them stays exact; chain_cuts finds where float order decides alone.
The lane forms read a polygon's vertex table, the integers (X, Y, D)
of every vertex as the rows of one array (int64 over one common scale
D, or each vertex over its own: int64, or Python ints when a value
reaches 2^53), by fancy indexing: integer_lanes gathers its columns as
such rows, and delta_lanes is exact_delta's lane form, as orient_lanes
is orient_sign's. static_cross_bound is cross_filter's bound at the
largest mirror magnitude of a polygon, one number that dominates the
bound of every triple of its points: the static first stage of the
point location that both planar sweeps share (geometry._Status) and of
orient_lanes, taken once by its caller.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import Callable

import numpy as np

U = 2.0 ** -52     # relative error bound of one rounding
ETA = 2.0 ** -1074  # absolute error bound of one rounding that may underflow
_K = 2.0 * ETA / U  # U * (s + _K) charges two such roundings on top of U * s


def sign(x) -> int:
    """Sign of an exact number."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def exact_cross(ax, ay, bx, by):
    """Exact cross product ax*by - ay*bx of two exact vectors."""
    return ax * by - ay * bx


def exact_delta(p, q) -> tuple[int, int, int]:
    """q - p as integers (x, y, s), s > 0, for points (X / D, Y / D):
    q - p = (x / s, y / s). Equal scales D, as on a polygon's common
    scale, are not multiplied, so no size depends on other points;
    distinct ones, each point's own, are."""
    if p.D == q.D:
        return q.X - p.X, q.Y - p.Y, p.D
    return q.X * p.D - p.X * q.D, q.Y * p.D - p.Y * q.D, p.D * q.D


def integer_lanes(ints: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """The columns lanes of the vertex table ints, shape (3, n): the
    integers (X, Y, D) of those vertices, as the rows of an object array
    of Python ints, so every operation on them is exact. They are over
    the table's scales, one common scale or each vertex's own."""
    return ints[:, lanes].astype(object, copy=False)


def delta_lanes(ints: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """exact_delta of the vertices p and q of the table ints for every
    column (p, q) of lanes, shape (2, m): the rows (x, y, s) of an object
    array, exact_delta's own integers. Equal scales are subtracted in the
    table's own type, which cannot overflow below 2^53, and converted
    once: every lane of a table over one common scale. Distinct ones,
    which only a table that does not fit one grid has (an object table,
    one whose grid passes 2^53, or a ring's own table while it is
    merged), are multiplied as Python ints."""
    p, q = ints[:, lanes[0]], ints[:, lanes[1]]
    out = np.concatenate((q[:2] - p[:2], p[2:])).astype(object, copy=False)
    apart = np.flatnonzero(p[2] != q[2])
    if len(apart):
        p, q = p[:, apart].astype(object, copy=False), q[:, apart].astype(object, copy=False)
        out[:2, apart] = q[:2] * p[2] - p[:2] * q[2]
        out[2, apart] = p[2] * q[2]
    return out


def mirror_error_bound(x):
    """Bound on |x - X| for the rounded mirror x of an exact X."""
    return U * np.abs(x) + ETA


def diff_error_bound(d, a, b):
    """Bound on |d - (A - B)| for d = a - b of the mirrors a, b of A, B."""
    return U * (np.abs(d) + np.abs(a) + np.abs(b) + _K)


def cross_filter(ax, ay, bx, by, cx, cy):
    """Float cross(a - c, b - c) of mirrors, and a bound on its distance
    from the exact cross product of the values they mirror.

    Written with abs() and operators only, so one code serves Python
    floats (orient_sign, no numpy call) and numpy arrays lane by lane.
    An inf or NaN lane never clears its bound.
    """
    ux, uy = ax - cx, ay - cy
    wx, wy = bx - cx, by - cy
    t1, t2 = ux * wy, uy * wx
    det = t1 - t2
    return det, _cross_error(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy), abs(ux),
                             abs(uy), abs(wx), abs(wy), abs(t1), abs(t2), abs(det))


def _cross_error(ax, ay, bx, by, cx, cy, ux, uy, wx, wy, t1, t2, det):
    """cross_filter's bound from the magnitudes of its mirrors a, b, c,
    differences u = a - c, w = b - c, products t1 = ux wy, t2 = uy wx and
    det = t1 - t2. It only adds and multiplies nonnegative floats, and
    rounding is monotone, so no magnitude made larger makes it smaller."""
    kcx, kcy = cx + _K, cy + _K
    # each difference: its own rounding plus the two mirrors' errors
    eux = U * (ux + ax + kcx)
    euy = U * (uy + ay + kcy)
    ewx = U * (wx + bx + kcx)
    ewy = U * (wy + by + kcy)
    # the roundings of t1, t2 and det, and the operand errors in each product
    return (U * (t1 + t2 + det + _K) + eux * wy + (ux + eux) * ewy
            + euy * wx + (uy + euy) * ewx)


def static_cross_bound(*mirrors) -> float:
    """A bound on cross_filter's error over every triple of points whose
    mirrors are among the floats or float arrays mirrors, and so a first
    stage in front of it: a float det beyond this bound has the exact
    sign.

    _cross_error at |a| = m, the largest mirror magnitude, |a - c| <= 2m,
    products at most 4m^2 and |det| at most 8m^2: rounding is monotone,
    so every rounded magnitude in cross_filter is at most its value here,
    and the bound at least cross_filter's, rounding for rounding. About
    48 U m^2; inf when 2m or 4m^2 overflows, so that no det clears it.
    """
    m = float(max(np.abs(a).max() for a in mirrors))
    d = m + m
    t = d * d
    return _cross_error(m, m, m, m, m, m, d, d, d, d, t, t, t + t)


def orient_sign(a, b, c) -> int:
    """Sign of cross(a - c, b - c) for three Points. Exact.

    Positive when a, b, c make a left turn. The float mirrors decide
    unless the determinant is within its bound; then the integers do.
    """
    det, err = cross_filter(a.xf, a.yf, b.xf, b.yf, c.xf, c.yf)
    if det > err:
        return 1
    if det < -err:
        return -1
    ux, uy, _ = exact_delta(c, a)
    wx, wy, _ = exact_delta(c, b)
    return sign(ux * wy - uy * wx)


_LANE_BLOCK = 4096  # lanes per cross_filter call: bounds its float temporaries


@np.errstate(over="ignore", invalid="ignore")  # overflowed lanes go to the exact path
def orient_lanes(ints: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 lanes: np.ndarray, bound: float) -> np.ndarray:
    """orient_sign of the vertices a, b, c for every column (a, b, c) of
    lanes, shape (3, m), indices into the vertex table ints and its
    mirrors xs, ys. Exact.

    _LANE_BLOCK lanes at a time, so that float temporaries stay small,
    in three stages: cross_filter's det, term for term, decides a lane
    when it clears bound, the caller's static_cross_bound of mirrors at
    least as large as the lanes' (of xs and ys, or of a table they were
    cut from); cross_filter and its bound decide most of the rest, and
    the integers decide what is left.
    """
    out = np.empty(lanes.shape[1], dtype=np.int64)
    for start in range(0, lanes.shape[1], _LANE_BLOCK):
        block = lanes[:, start:start + _LANE_BLOCK]
        (ax, bx, cx), (ay, by, cy) = xs[block], ys[block]
        det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
        signs = (det > bound).astype(np.int64) - (det < -bound)
        rest = np.flatnonzero(~(np.abs(det) > bound))  # NaN lanes too
        if len(rest):
            left = block[:, rest]
            (ax, bx, cx), (ay, by, cy) = xs[left], ys[left]
            det, err = cross_filter(ax, ay, bx, by, cx, cy)

            def exact(undecided: np.ndarray) -> np.ndarray:
                a, b, c = left[:, undecided]
                ux, uy, _ = delta_lanes(ints, np.array((c, a)))
                wx, wy, _ = delta_lanes(ints, np.array((c, b)))
                return exact_cross(ux, uy, wx, wy)

            signs[rest] = filtered_sign_array(det, err, exact)
        out[start:start + _LANE_BLOCK] = signs
    return out


def dot_filter(x, y, wx, wy):
    """Float x * wx + y * wy of mirror arrays x, y, and a bound on its
    distance from W . (X, Y), for (wx, wy) within U |w| + ETA of W.
    With wx, wy columns, one row per direction, both come out as rows.
    """
    t1, t2 = x * wx, y * wy
    h = t1 + t2
    ewx, ewy = U * abs(wx) + ETA, U * abs(wy) + ETA
    # each product: its rounding, x's mirror error times wx, X times wx's error
    return h, (U * (np.abs(h) + np.abs(t1) + np.abs(t2)) + np.abs(x) * (U * abs(wx) + 2 * ewx)
               + np.abs(y) * (U * abs(wy) + 2 * ewy) + ETA * (2 + abs(wx) + abs(wy) + ewx + ewy))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def angle_filter(y, x, ey, ex) -> tuple[np.ndarray, np.ndarray]:
    """np.arctan2(y, x) of float arrays each within (ex, ey) of an exact
    vector, and a bound on the distance from that vector's angle.

    If e = |error| < r/2, r = |(x, y)|, the angle between the vectors
    is below 4 (ex|y| + ey|x|) / r^2; a larger error (a zero float
    vector, say) gets 4 > pi, which overlaps every angle in [0, pi].
    64 U covers the rounding of arctan2 and of the bound itself.
    """
    r = np.hypot(x, y)
    near = 4.0 * ((ex / r) * (np.abs(y) / r) + (ey / r) * (np.abs(x) / r))
    return np.arctan2(y, x), np.where(2.0 * (ex + ey) < r, near, 4.0) + 64.0 * U


def float_direction(x: int, y: int, d: int = 1) -> tuple[float, float]:
    """Float pair along the nonzero exact vector (x / d, y / d), d > 0.

    The correctly rounded quotients when both are in range and not both
    tiny; otherwise the vector is first scaled by the power of two that
    brings its larger component near 1, which keeps the direction, so
    an angle taken from the pair is always meaningful.
    """
    try:
        fx, fy = x / d, y / d
    except OverflowError:
        pass
    else:
        if max(abs(fx), abs(fy)) >= 2.0 ** -960:
            return fx, fy
    m = max(abs(x), abs(y))
    g = math.gcd(m, d)
    shift = (m // g).bit_length() - (d // g).bit_length()
    x, y, d = (x, y, d << shift) if shift >= 0 else (x << -shift, y << -shift, d)
    return x / d, y / d


def filtered_sign_array(vals: np.ndarray, errs: np.ndarray,
                        exact: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Exact signs of float values with error bounds, lane by lane.

    The float sign decides every lane whose value clears its bound;
    exact(lanes) returns the exact values of the remaining lanes, an
    index array, as one array (object arrays of Python ints keep them
    exact), the same batch accessor as filtered_order's.
    """
    out = (vals > errs).astype(np.int64) - (vals < -errs)
    undecided = np.flatnonzero(~(np.abs(vals) > errs))  # NaN lanes (overflow) too
    if len(undecided):
        out[undecided] = np.sign(exact(undecided))
    return out


def chain_cuts(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """cut[..., t]: for v sorted along its last axis, each within r of its
    exact value, every lane after t clears every lane up to t."""
    return (np.minimum.accumulate((v - r)[..., ::-1], axis=-1)[..., ::-1][..., 1:]
            > np.maximum.accumulate(v + r, axis=-1)[..., :-1])


def filtered_order(values: np.ndarray, radii: np.ndarray,
                   exact: Callable[[np.ndarray], np.ndarray],
                   cmp: Callable[[object, object], object]) -> tuple[np.ndarray, np.ndarray]:
    """Exact ascending order of lanes, and which lanes tie exactly.

    values[i] lies within radii[i] of lane i's exact value (after one
    positive scale common to all lanes). The exact values come from the
    batch accessor exact(lanes): for an index array of lanes, one array
    whose last axis runs over them, lane lanes[j] at [..., j] (object
    arrays of Python ints keep them exact). cmp(p, q) is negative, zero
    or positive as p <, ==, > q exactly; written with operators only, it
    compares whole arrays of values lane by lane and also one lane's
    value, vals.T[j], with another's.

    Float order decides only across a cut that every interval below
    clears; the lanes between two cuts form a chain. All two-lane chains,
    by far the common ones, take one exact call and one lane-wise cmp,
    and numpy writes their swaps and ties. Longer chains take one exact
    call together and are each re-sorted by cmp, stably. A call with no
    chain makes no exact call. Returns (order, tie): tie[t] is True iff
    lane order[t] is exactly equal to lane order[t - 1].
    """
    order = np.argsort(values, kind="stable")
    m = len(order)
    tie = np.zeros(m, dtype=bool)
    cut = chain_cuts(values[order], radii[order])
    if cut.all():
        return order, tie
    cuts = np.concatenate(([0], np.flatnonzero(cut) + 1, [m]))
    size = np.diff(cuts)
    lo = cuts[:-1][size == 2]
    if len(lo):
        pair = exact(np.concatenate((order[lo], order[lo + 1])))
        c = cmp(pair[..., :len(lo)], pair[..., len(lo):])
        swap = lo[c > 0]
        order[swap], order[swap + 1] = order[swap + 1], order[swap]
        tie[lo + 1] = c == 0
    long = size > 2
    if long.any():
        at = np.flatnonzero(np.repeat(long, size))  # the positions of every longer chain
        lanes = order[at]
        val = exact(lanes).T
        start = 0
        for n in size[long].tolist():
            ranks = sorted(range(start, start + n),
                           key=cmp_to_key(lambda a, b: cmp(val[a], val[b])))
            pos = at[start:start + n]
            order[pos] = lanes[ranks]
            tie[pos[1:]] = [cmp(val[a], val[b]) == 0 for a, b in zip(ranks, ranks[1:])]
            start += n
    return order, tie
