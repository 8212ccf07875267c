"""The star family and polygon files built from integers, against the
Fraction routes they replace.

lower_bound_polygon rounds its float coordinates to 12 decimal digits
as integer arrays and builds each Point from its canonical (X, Y, D);
dump_polygon writes each coordinate from (X, D). The references here
are the Fraction formulas: Fraction(round(v * 10**12), 10**12) for every
coordinate, and the decimal-or-"p/q" rendering of a Fraction.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ruledpoly import (
    FamilyParams,
    Point,
    Polygon,
    PolygonError,
    dump_polygon,
    load_polygon,
    lower_bound_polygon,
)
from ruledpoly.generators import _certify_star_shaped, _round12
from ruledpoly.geometry import _coordinate_text

from conftest import point_table

SCALE = 10 ** 12


def reference_round12(values):
    return [Fraction(int(s), SCALE) for s in np.round(values * float(SCALE))]


def reference_star(params):
    """lower_bound_polygon through Fractions and Point(x, y)."""
    n = params.n
    idx = np.arange(n, dtype=float)
    theta = 2.0 * math.pi * idx / n
    phi = (2.0 * idx + 1.0) * math.pi / n
    r1, r2 = float(params.r1), float(params.r2)
    ox, oy = reference_round12(r1 * np.sin(theta)), reference_round12(r1 * np.cos(theta))
    ix, iy = reference_round12(r2 * np.sin(phi)), reference_round12(r2 * np.cos(phi))
    ring = []
    for i in range(n):
        ring.append(Point(ox[i], oy[i]))
        ring.append(Point(ix[i], iy[i]))
    _certify_star_shaped(*point_table(ring))
    return Polygon(ring, validate=False)


def reference_coordinate(x: Fraction) -> str:
    """A decimal number when the denominator is 2^a * 5^b, "p/q" otherwise."""
    den = x.denominator
    if den == 1:
        return str(x.numerator)
    d, exp2, exp5 = den, 0, 0
    while d % 2 == 0:
        d //= 2
        exp2 += 1
    while d % 5 == 0:
        d //= 5
        exp5 += 1
    if d != 1:
        return f'"{x}"'
    exp = max(exp2, exp5)
    whole, frac = divmod(abs(x.numerator) * (10 ** exp) // den, 10 ** exp)
    text = f"{whole}.{str(frac).rjust(exp, '0').rstrip('0')}"
    return "-" + text if x.numerator < 0 else text


def reference_dump(P: Polygon) -> str:
    def ring_text(ring):
        return "[" + ",".join(f"[{reference_coordinate(p.x)},{reference_coordinate(p.y)}]"
                              for p in ring.vertices) + "]"

    holes = ",".join(ring_text(g) for g in P.holes)
    return '{"outer":' + ring_text(P.outer) + ',"holes":[' + holes + "]}\n"


def fields(P: Polygon):
    return [(p.X, p.Y, p.D, p.xf, p.yf, type(p.X), type(p.Y), type(p.D))
            for p in P.outer.vertices]


RADII = [
    (Fraction(4), Fraction(1)),  # the default
    (Fraction(7, 2), Fraction(3, 4)),  # the corners of the big-star benchmark's range
    (Fraction(9, 2), Fraction(5, 4)),
    (Fraction(10 ** 7), Fraction(1)),  # coordinates times 10**12 pass 2**63: Python ints
    (Fraction(10 ** 290), Fraction(10 ** 289)),
]


@pytest.mark.parametrize("spikes", [7, 31, 2100, 5000])
@pytest.mark.parametrize("r1, r2", RADII)
def test_star_matches_fraction_route(spikes, r1, r2):
    params = FamilyParams(spikes, r1, r2)
    P, Q = lower_bound_polygon(params), reference_star(params)
    assert fields(P) == fields(Q)
    assert dump_polygon(P) == reference_dump(Q)


@pytest.mark.parametrize("spikes, r2", [(7, Fraction(1, 10 ** 13)), (31, Fraction(1, 10 ** 13)),
                                        (31, Fraction(3, 10 ** 12)), (2100, Fraction(3, 10 ** 12))])
def test_tiny_inner_radius_fails_like_fraction_route(spikes, r2):
    """Notches that round to the origin, or to a few grid points next to
    it, fail the certificate."""
    params = FamilyParams(spikes, Fraction(4), r2)
    with pytest.raises(PolygonError) as want:
        reference_star(params)
    with pytest.raises(PolygonError) as got:
        lower_bound_polygon(params)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e6, 1e7, 1e290])
def test_round12_matches_fraction_route(scale):
    """The shared rounding, on random_simple_polygon's kind of input (a
    unit disk) and beyond 2**53 after scaling, where it takes Python ints."""
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(-scale, scale, 500), rng.uniform(-scale, scale, 500)
    xs[:3], ys[:3] = 0.0, (-0.0, 5e-13, -5e-13)  # zero, and ties of the rounding
    ints, mx, my = _round12(xs, ys)
    want = [Point(x, y) for x, y in zip(reference_round12(xs), reference_round12(ys))]
    assert ints.T.tolist() == [[q.X, q.Y, q.D] for q in want]
    assert ints.dtype == np.int64 or all(type(v) is int for v in ints.ravel())
    assert mx.tolist() == [p.xf for p in want] and my.tolist() == [p.yf for p in want]


# -- dump_polygon ------------------------------------------------------------

denominators = st.one_of(
    st.builds(lambda a, b: 2 ** a * 5 ** b, st.integers(0, 80), st.integers(0, 80)),
    st.builds(lambda a, b, p: 2 ** a * 5 ** b * p, st.integers(0, 6), st.integers(0, 6),
              st.sampled_from([3, 7, 49, 999983, 2 ** 61 - 1])),
    st.sampled_from([10 ** 400, 2 ** 1330, 3 * 10 ** 400]),  # the 1e-400 scale
)
numerators = st.one_of(
    st.just(0),
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(-2 ** 80, 2 ** 80),
    st.builds(lambda k: k * 10 ** 307, st.integers(-17, 17)),  # the 1e308 scale
)
triples = st.tuples(numerators, numerators, denominators)


@settings(max_examples=300, deadline=None)
@given(st.lists(triples, min_size=1, max_size=12))
def test_coordinate_text_matches_fraction_rendering(ts):
    """One cache of decimal forms serves every coordinate of a dump."""
    forms = {}
    for x, y, d in ts:
        for v in (x, y):
            assert _coordinate_text(v, d, forms) == reference_coordinate(Fraction(v, d))


@settings(max_examples=150, deadline=None)
@given(st.lists(triples, min_size=2, max_size=2), st.lists(triples, min_size=2, max_size=2))
def test_dump_matches_fraction_rendering_and_round_trips(xt, yt):
    """An axis-aligned rectangle: each corner's D is the lcm of two drawn
    denominators, so dump_polygon reduces before it renders."""
    (x0, x1), (y0, y1) = (sorted(Fraction(v, d) for v, _, d in t) for t in (xt, yt))
    assume(x0 != x1 and y0 != y1)
    P = Polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    text = dump_polygon(P)
    assert text == reference_dump(P)
    Q = load_polygon(text)
    assert list(Q.outer.vertices) == list(P.outer.vertices)
    assert dump_polygon(Q) == text
