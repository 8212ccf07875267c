"""Filtered exact arithmetic: one error model behind every float decision.

Every geometric decision here is the sign or the order of small
polynomials in exact Fraction coordinates. Each is evaluated in floats
with a rigorous error bound and recomputed exactly only when the float
value is not clearly decided. The floats are rounded mirrors of exact
rationals, and every bound is built from one model of their error: a
relative U (2^-52, twice the unit roundoff) for each rounding, of an
exact rational into its mirror or of a float operation, and an absolute
ETA (2^-1074, twice the largest error of a rounding into the subnormal
range) for each rounding that may underflow: a mirror or a product, not
a sum or a difference, which is then exact. mirror_error_bound,
diff_error_bound, cross_filter (orient_sign, corner_cross), dot_filter
(reeb's heights) and angle_filter (sweep angles) apply it;
filtered_sign_array and filtered_order let exact values decide the rest.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import Callable

import numpy as np

U = 2.0 ** -52     # relative error bound of one rounding
ETA = 2.0 ** -1074  # absolute error bound of one rounding that may underflow
_K = 2.0 * ETA / U  # U * (s + _K) charges two such roundings on top of U * s


def sign(x) -> int:
    """Sign of an exact number (int or Fraction)."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def exact_cross(ax, ay, bx, by) -> Fraction:
    """Exact cross product ax*by - ay*bx of two exact vectors."""
    return ax * by - ay * bx


def exact_dot(ax, ay, bx, by):
    """Exact dot product ax*bx + ay*by of two exact vectors."""
    return ax * bx + ay * by


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
    aux, auy, awx, awy = abs(ux), abs(uy), abs(wx), abs(wy)
    kcx, kcy = abs(cx) + _K, abs(cy) + _K
    # each difference: its own rounding plus the two mirrors' errors
    eux = U * (aux + abs(ax) + kcx)
    euy = U * (auy + abs(ay) + kcy)
    ewx = U * (awx + abs(bx) + kcx)
    ewy = U * (awy + abs(by) + kcy)
    # the roundings of t1, t2 and det, and the operand errors in each product
    return det, (U * (abs(t1) + abs(t2) + abs(det) + _K) + eux * awy + (aux + eux) * ewy
                 + euy * awx + (auy + euy) * ewx)


def orient_sign(a, b, c) -> int:
    """Sign of cross(a - c, b - c) for three Points. Exact.

    Positive when a, b, c make a left turn. The float mirrors decide
    unless the determinant is within its bound; then the Fractions do.
    """
    det, err = cross_filter(a.xf, a.yf, b.xf, b.yf, c.xf, c.yf)
    if det > err:
        return 1
    if det < -err:
        return -1
    return sign((a.x - c.x) * (b.y - c.y) - (a.y - c.y) * (b.x - c.x))


@np.errstate(over="ignore", invalid="ignore")  # overflowed lanes go to the exact path
def corner_cross(ax, ay, px, py, bx, by) -> tuple[np.ndarray, np.ndarray]:
    """Float cross(p - a, b - p) of mirror arrays and its error bound.

    Lane i is the turn at p_i coming from a_i and going on to b_i. A
    zero difference vector forces the exact cross to 0, which the bound
    can never clear.
    """
    det, err = cross_filter(ax, ay, bx, by, px, py)  # cross(a - p, b - p), negated
    return -det, err


def dot_filter(x, y, wx, wy):
    """Float x * wx + y * wy of mirror arrays x, y, and a bound on its
    distance from W . (X, Y), for (wx, wy) within U |w| + ETA of W.
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


def float_direction(x, y) -> tuple[float, float]:
    """Float pair pointing along the nonzero exact vector (x, y).

    The plain float mirrors when both are in range and not both tiny;
    otherwise both are first scaled by one power of two, which keeps
    the direction, so an angle taken from the pair is always meaningful.
    """
    try:
        fx, fy = float(x), float(y)
    except OverflowError:
        pass
    else:
        if max(abs(fx), abs(fy)) >= 2.0 ** -960:
            return fx, fy
    x, y = Fraction(x), Fraction(y)
    m = max(abs(x), abs(y))
    shift = m.numerator.bit_length() - m.denominator.bit_length()
    scale = Fraction(1, 1 << shift) if shift >= 0 else Fraction(1 << -shift)
    return float(x * scale), float(y * scale)


def filtered_sign_array(vals: np.ndarray, errs: np.ndarray,
                        exact_at: Callable[[int], object]) -> np.ndarray:
    """Exact signs of float values with error bounds, lane by lane.

    The float sign decides every lane whose value clears its bound;
    exact_at(i) computes the exact value of each remaining lane i.
    """
    out = np.where(vals > errs, 1, np.where(vals < -errs, -1, 0)).astype(np.int64)
    for i in np.flatnonzero(~(np.abs(vals) > errs)):  # NaN lanes (overflow) too
        out[i] = sign(exact_at(int(i)))
    return out


def filtered_order(values: np.ndarray, radii: np.ndarray,
                   exact: Callable[[int], object],
                   cmp: Callable[[object, object], int]) -> tuple[np.ndarray, np.ndarray]:
    """Exact ascending order of lanes, and which lanes tie exactly.

    Lane i has the exact value exact(i), and values[i] lies within
    radii[i] of it (after one positive scale common to all lanes);
    cmp(p, q) is negative, zero or positive as p <, ==, > q exactly.
    Float order decides only across a cut that every interval below
    clears; the lanes between two cuts are re-sorted by cmp, stably.
    Returns (order, tie): tie[t] is True iff lane order[t] is exactly
    equal to lane order[t - 1].
    """
    order = np.argsort(values, kind="stable")
    m = len(order)
    tie = np.zeros(m, dtype=bool)
    v = values[order]
    r = radii[order]
    # cut[t]: every lane after t clears every lane up to t (wide ones reach back)
    cut = np.minimum.accumulate((v - r)[::-1])[::-1][1:] > np.maximum.accumulate(v + r)[:-1]
    if cut.all():
        return order, tie
    cuts = np.concatenate(([0], np.flatnonzero(cut) + 1, [m]))
    chained = np.flatnonzero(np.diff(cuts) > 1)
    for lo, hi in zip(cuts[chained].tolist(), cuts[chained + 1].tolist()):
        lanes = order[lo:hi].tolist()
        val = {i: exact(i) for i in lanes}
        if hi - lo == 2:
            # by far the common chain: one comparison settles it
            c = cmp(val[lanes[0]], val[lanes[1]])
            if c > 0:
                order[lo], order[lo + 1] = lanes[1], lanes[0]
            tie[lo + 1] = c == 0
            continue
        lanes.sort(key=cmp_to_key(lambda p, q: cmp(val[p], val[q])))
        order[lo:hi] = lanes
        for t in range(lo + 1, hi):
            tie[t] = cmp(val[lanes[t - lo - 1]], val[lanes[t - lo]]) == 0
    return order, tie
