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
diff_error_bound, static_cross_bound, dot_filter (reeb's heights) and
angle_filter (sweep angles) apply it; filtered_sign_array and
filtered_order let exact values decide the rest. Both take one batch
accessor, exact(lanes): for an index array of the lanes the floats
leave undecided, their exact values in one array whose last axis runs
over those lanes; chain_cuts finds where float order decides alone.

Exact values are integers. Those of a grid table's lanes are int64
(delta_lanes), below 2^54 in magnitude, and every product of them is
taken by cross_sign, the one exact sign of a cross product, over 27-bit
limbs that never leave int64 (the sign of u . w is cross(u, (-wy, wx))).
The rest, an object table's lanes or lanes whose scales differ, are
object arrays of Python ints, on which cross_sign multiplies as Python
does, so that every operation on them stays exact.

Every orientation sign is decided in two stages (Devillers and Pion
2003): the float determinant against static_cross_bound, one bound
for every triple of a polygon's points, taken once by the caller, and
otherwise the integers. orient_lanes does both for lanes (corner signs,
contacts and the star certificate of generators); orient_sign is the
integers alone, the second stage of the point location that both
planar sweeps share (geometry._Status), whose first stage is written
there. Points are given to orient_sign and exact_delta as their
integers (X, Y, D). The lane forms read a polygon's vertex table, the
integers (X, Y, D) of every vertex as the rows of one array (int64 over
one common scale D, or each vertex over its own: int64, or Python ints
when a value reaches 2^53), by fancy indexing: integer_lanes gathers
its columns as such rows, and delta_lanes is exact_delta's lane form.
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


_LIMB = 27                      # bits of a low limb
_LOW = (1 << _LIMB) - 1         # its mask
_LIMB_RANGE = 1 << 2 * _LIMB    # int64 operands below it in magnitude take the limbs


def cross_sign(ax, ay, bx, by):
    """Exact sign of the cross product ax*by - ay*bx: -1, 0 or 1, lane
    by lane over arrays of one shape (int64 out), or of one lane's
    scalars (an int out), numpy int64 scalars among them.

    int64 arrays below 2^54 in magnitude never leave int64 (Knuth,
    TAOCP Vol. 2, 4.3.1; the middle stage of Shewchuk 1997): each
    operand splits into the limbs x >> 27, at most 2^27 in magnitude,
    and x & (2^27 - 1), nonnegative, so that every limb product is at
    most 2^54. The high, middle and low differences of those products
    are carried low into middle and middle into high, which leaves the
    value high 2^54 + middle 2^27 + low with 0 <= middle, low < 2^27:
    its sign is the high limb's, or else whether a low limb is nonzero.
    Any other operands, object arrays, larger values and one lane's
    scalars, which int() turns into Python ints (a numpy int64 scalar
    multiplied as it is could overflow), are multiplied as Python ints.
    """
    if np.ndim(ax) == 0:
        return sign(exact_cross(int(ax), int(ay), int(bx), int(by)))
    s = np.stack((ax, ay, bx, by))
    if s.dtype == np.int64 and -_LIMB_RANGE < s.min(initial=0) and s.max(initial=0) < _LIMB_RANGE:
        (axh, ayh, bxh, byh), (axl, ayl, bxl, byl) = s >> _LIMB, s & _LOW
        low = axl * byl - ayl * bxl
        mid = axh * byl + axl * byh - ayh * bxl - ayl * bxh + (low >> _LIMB)
        high = axh * byh - ayh * bxh + (mid >> _LIMB)
        return np.sign(2 * high + ((mid | low) & _LOW != 0))
    return np.sign(exact_cross(*s.astype(object, copy=False))).astype(np.int64)


def exact_delta(p, q) -> tuple[int, int, int]:
    """q - p as integers (x, y, s), s > 0, for points given as their
    integers (X, Y, D), the point (X / D, Y / D): q - p = (x / s, y / s).
    Equal scales D, as on a polygon's common scale, are not multiplied,
    so no size depends on other points; distinct ones, each point's
    own, are."""
    (px, py, pd), (qx, qy, qd) = p, q
    if pd == qd:
        return qx - px, qy - py, pd
    return qx * pd - px * qd, qy * pd - py * qd, pd * qd


def integer_lanes(ints: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """The columns lanes of the vertex table ints, shape (3, n): the
    integers (X, Y, D) of those vertices, as the rows of an object array
    of Python ints, so every operation on them is exact. They are over
    the table's scales, one common scale or each vertex's own."""
    return ints[:, lanes].astype(object, copy=False)


def delta_lanes(ints: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """exact_delta of the vertices p and q of the table ints for every
    column (p, q) of lanes, shape (2, m): the rows (x, y, s), exact_delta's
    own integers. Equal scales are subtracted in the table's own type,
    which cannot overflow below 2^53: on an int64 table, the rows are
    int64, each x and y below 2^54 in magnitude (the operands of
    cross_sign's limbs), wherever no lane's scales differ, every lane of
    a table over one common scale. Distinct ones, which only a table
    that does not fit one grid has (an object table, one whose grid
    passes 2^53, or a ring's own table while it is merged), are
    multiplied as Python ints, and the rows are then an object array."""
    p, q = ints[:, lanes[0]], ints[:, lanes[1]]
    out = np.concatenate((q[:2] - p[:2], p[2:]))
    apart = np.flatnonzero(p[2] != q[2])
    if len(apart):
        out = out.astype(object)
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


def static_cross_bound(*mirrors) -> float:
    """A bound on the error of the float determinant
    (ax - cx) (by - cy) - (ay - cy) (bx - cx) of the mirrors of three
    points, against the exact cross(a - c, b - c) of the values they
    mirror, for every triple whose mirrors are among the floats or float
    arrays mirrors: a det beyond it has the exact sign. This is the
    static first stage of every orientation sign.

    The error model at m, the largest mirror magnitude, where every
    difference is at most 2m, every product at most 4m^2 and det at
    most 8m^2: each difference carries its own rounding and the errors
    of its two mirrors, e; det the roundings of its two products and
    its own, and each product the errors of its operands. The bound
    only adds and multiplies nonnegative floats, and rounding is
    monotone, so a triple of smaller magnitudes has a smaller error,
    rounding for rounding. About 48 U m^2; inf when 2m or 4m^2
    overflows, so that no det clears it.
    """
    m = float(max(np.abs(a).max() for a in mirrors))
    d = m + m
    t = d * d
    e = U * (d + m + (m + _K))
    return U * (t + t + (t + t) + _K) + e * d + (d + e) * e + e * d + (d + e) * e


def orient_sign(a, b, c) -> int:
    """Sign of cross(a - c, b - c) for three points given as their
    integers (X, Y, D). Exact: integers alone, no float stage.

    Positive when a, b, c make a left turn.
    """
    ux, uy, _ = exact_delta(c, a)
    wx, wy, _ = exact_delta(c, b)
    return sign(exact_cross(ux, uy, wx, wy))


_LANE_BLOCK = 4096  # lanes per float pass: bounds its temporaries


@np.errstate(over="ignore", invalid="ignore")  # overflowed lanes go to the exact path
def orient_lanes(ints: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 lanes: np.ndarray, bound: float) -> np.ndarray:
    """orient_sign of the vertices a, b, c for every column (a, b, c) of
    lanes, shape (3, m), indices into the vertex table ints and its
    mirrors xs, ys. Exact.

    _LANE_BLOCK lanes at a time, so that float temporaries stay small,
    in two stages: the float det decides a lane when it clears bound,
    the caller's static_cross_bound of mirrors at least as large as the
    lanes' (of xs and ys, or of a table they were cut from), and the
    integers decide the rest, together (delta_lanes).
    """
    out = np.empty(lanes.shape[1], dtype=np.int64)
    for start in range(0, lanes.shape[1], _LANE_BLOCK):
        block = lanes[:, start:start + _LANE_BLOCK]
        (ax, bx, cx), (ay, by, cy) = xs[block], ys[block]
        det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)

        def exact(undecided: np.ndarray) -> np.ndarray:
            a, b, c = block[:, undecided]
            ux, uy, _ = delta_lanes(ints, np.array((c, a)))
            wx, wy, _ = delta_lanes(ints, np.array((c, b)))
            return cross_sign(ux, uy, wx, wy)

        out[start:start + _LANE_BLOCK] = filtered_sign_array(det, bound, exact)
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
    index array, as one array of integers (int64, or Python ints in an
    object array), or their signs (cross_sign), the same batch accessor
    as filtered_order's.
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
    of integers whose last axis runs over them, lane lanes[j] at
    [..., j]: int64, or Python ints in an object array. cmp(p, q) is
    negative, zero or positive as p <, ==, > q exactly; it compares whole
    arrays of values lane by lane and also one lane's value, vals.T[j],
    with another's, whose items are numpy scalars on an int64 array: a
    product of int64 values goes through cross_sign, which never
    overflows.

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
