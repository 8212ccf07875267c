"""Filtered exact sign predicates.

Every geometric decision in this package reduces to the sign of a small
polynomial in the coordinates (a 2x2 determinant or a dot product).
Coordinates are exact Fractions, but evaluating every predicate in
rational arithmetic is far too slow for the sweep fast paths, so the
pattern throughout is: evaluate in floats together with a rigorous
forward error bound, and recompute exactly only when the float value is
not clearly on one side of zero.

The floats involved are rounded mirrors of exact rationals, not exact
inputs, so textbook filter constants for float inputs do not apply
directly: every difference of mirrors picks up an absolute error term
proportional to the operand magnitudes. The bounds below carry those
magnitude terms explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

# One ulp relative bound for IEEE double arithmetic and for the rounding
# of an exact rational into its float mirror. 2^-52 leaves a factor-two
# margin over the true unit roundoff.
U = 2.0 ** -52


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


def orient_sign(a, b, c) -> int:
    """Sign of cross(b - a, c - a) for three Points. Exact.

    Positive when a, b, c make a left turn. Filtered: the float mirrors
    decide unless the determinant is within the error bound, in which
    case the Fractions decide.
    """
    acx = a.xf - c.xf
    acy = a.yf - c.yf
    bcx = b.xf - c.xf
    bcy = b.yf - c.yf
    t1 = acx * bcy
    t2 = acy * bcx
    det = t1 - t2
    # mirror + subtraction errors for each difference
    e_acx = U * (abs(acx) + abs(a.xf) + abs(c.xf))
    e_acy = U * (abs(acy) + abs(a.yf) + abs(c.yf))
    e_bcx = U * (abs(bcx) + abs(b.xf) + abs(c.xf))
    e_bcy = U * (abs(bcy) + abs(b.yf) + abs(c.yf))
    e_t1 = U * abs(t1) + e_acx * abs(bcy) + abs(acx) * e_bcy + e_acx * e_bcy
    e_t2 = U * abs(t2) + e_acy * abs(bcx) + abs(acy) * e_bcx + e_acy * e_bcx
    err = U * abs(det) + e_t1 + e_t2
    if det > err:
        return 1
    if det < -err:
        return -1
    return sign((a.x - c.x) * (b.y - c.y) - (a.y - c.y) * (b.x - c.x))


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


@np.errstate(over="ignore", invalid="ignore")  # overflowed lanes go to the exact path
def corner_cross(ax, ay, px, py, bx, by) -> tuple[np.ndarray, np.ndarray]:
    """Float cross(p - a, b - p) of mirror arrays and its error bound.

    Lane i is the turn at p_i coming from a_i and going on to b_i; a
    lane is decided by filtered_sign_array when its value clears the
    bound. A zero difference vector forces the exact cross to 0, which
    the bound can never clear. Vectorized companion of orient_sign.
    """
    d1x, d1y = px - ax, py - ay
    d2x, d2y = bx - px, by - py
    e1x, e1y = diff_error_bound(d1x, px, ax), diff_error_bound(d1y, py, ay)
    e2x, e2y = diff_error_bound(d2x, bx, px), diff_error_bound(d2y, by, py)
    t1 = d1x * d2y
    t2 = d1y * d2x
    cr = t1 - t2
    e_t1 = U * np.abs(t1) + e1x * np.abs(d2y) + np.abs(d1x) * e2y + e1x * e2y
    e_t2 = U * np.abs(t2) + e1y * np.abs(d2x) + np.abs(d1y) * e2x + e1y * e2x
    return cr, U * np.abs(cr) + e_t1 + e_t2


def diff_error_bound(d, a, b):
    """Error bound array for d = a - b where a, b are mirror arrays."""
    return U * (np.abs(d) + np.abs(a) + np.abs(b))


def overlap_runs(values: np.ndarray, radii: np.ndarray) -> list[tuple[int, int]]:
    """Runs of indices in an ascending float array whose uncertainty
    intervals [v - r, v + r] chain together.

    Returns half-open index ranges of length >= 2; singleton values whose
    interval touches no neighbor are decisively ordered and omitted.
    """
    m = len(values)
    if m < 2:
        return []
    radii = np.broadcast_to(np.asarray(radii, dtype=float), values.shape)
    hi = np.maximum.accumulate(values + radii)
    breaks = np.flatnonzero(values[1:] - radii[1:] > hi[:-1]) + 1
    runs = []
    start = 0
    for stop in list(breaks) + [m]:
        if stop - start >= 2:
            runs.append((start, stop))
        start = stop
    return runs
