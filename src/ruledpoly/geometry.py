"""Polygons with holes over exact rational coordinates.

A point is (X / D, Y / D) over integers, D > 0; a Point's D is its own
least common denominator, and every geometric decision is an exact
sign computed from such integers, whatever their scale; float mirrors
of all coordinates are kept alongside for numpy fast paths and the
first stage of point location (see exactmath). Each ring is read straight
into its integer table (the canonical (X, Y, D) of every vertex as the
rows of one array: int64 while every value is below 2**53, Python ints
beyond) and its mirrors, which come from the table, an entry at a
time, so that the first faulty entry raises (_read_ring). A polygon's
table, its only per-vertex store, holds every vertex over one common
scale L, the lcm of their D, where L and every scaled coordinate are
below 2**53 (a grid: every exact lane then subtracts in int64), and
each over its own D otherwise (_common_scale). Every exact lane gather
indexes it, and point location reads its mirrors and integers by index.
Points and Fractions are made only at the public edge (Polygon.vertex,
the rings, cones, error messages), always canonical: the table's
columns divided by their gcd (_points). Each ring's corner signs are
the lanes of one orient_lanes call per pass of its merge, one pass for
a ring with nothing to merge, and give its merging (itself decided as
lanes, the table and mirrors compressed together), its orientation and
its reflex vertices. The rings are then laid end to end in one flat
vertex table of integers, mirrors and signs, which validation and the
polygon share.

The polygon file format is a UTF-8 JSON document

    {"outer": [[x, y], ...], "holes": [[[x, y], ...], ...]}

with numbers given as JSON numbers, or as strings holding an optional
sign and then a decimal literal with an optional exponent ("-1.25",
".5", "3e-7") or a fraction of unsigned integers ("1/3"). Both parse
exactly, to integer ratios. Emission
writes each coordinate from its point's integers: a decimal number when
it has a terminating decimal expansion and a "p/q" string otherwise, so
every dump -> load cycle is exact and a generate -> load -> emit cycle
is byte identical.

Vertices are addressed by a single global index (the outer ring first,
then each hole in order); edge i joins vertex i to the next vertex of
the same ring.

Validation is one exact Shamos-Hoey sweep over the edges of all rings,
O(n log n) work in total: two edges may share only the vertex between
them on one ring, and every hole must lie inside the outer ring and
outside every other hole. Only locating a new vertex in the sweep
status calls a scalar predicate; the contact and order checks wait
until the sweep ends and are then decided together, as the lanes of
one filtered predicate, the first failing check in sweep order winning.

The sweep status (_Status) is shared with the Reeb sweep of reeb.py,
in one frame, and its point location (_Status.locate) is the only one
of both sweeps. Each of its comparisons has two stages: the plain
float determinant against one static bound per polygon
(exactmath.static_cross_bound, kept on the Polygon), then the one
scalar orient_sign call of both sweeps, on the three vertices'
integers, read from the table as Python ints; neither sweep makes a
Point.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
import re
import reprlib
from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key, partial
from typing import Iterable, Sequence

import numpy as np

from .exactmath import (
    cross_sign,
    delta_lanes,
    exact_cross,
    exact_delta,
    filtered_order,
    float_direction,
    integer_lanes,
    orient_lanes,
    orient_sign,
    static_cross_bound,
)

__all__ = [
    "PolygonError",
    "PolygonParseError",
    "TooFewVerticesError",
    "SlitVertexError",
    "SelfIntersectionError",
    "HolePlacementError",
    "NonReflexVertexError",
    "Point",
    "Direction",
    "Ring",
    "Polygon",
    "DoubleCone",
    "load_polygon",
    "dump_polygon",
    "as_fraction",
]

class PolygonError(ValueError):
    """Base class for polygon validation failures."""


class PolygonParseError(PolygonError):
    """Malformed polygon document: bad JSON, bad schema, or non-finite numbers."""


class TooFewVerticesError(PolygonError):
    """A ring has fewer than 3 corners after normalization."""


class SlitVertexError(PolygonError):
    """A vertex whose incident edges double back (interior angle 360 degrees)."""


class SelfIntersectionError(PolygonError):
    """Two edges of one ring share a point they should not."""


class HolePlacementError(PolygonError):
    """A hole outside the outer ring, nested in another hole, or touching."""


class NonReflexVertexError(ValueError):
    """A cone was asked for at a convex vertex."""


# an optional sign, then a decimal literal with an optional exponent or p/q, q > 0;
# no two ways to split a run of digits, so a failed match backtracks in linear time
_LITERAL = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+/0*[1-9][0-9]*)")


_BEYOND_FLOAT_RANGE = "coordinate beyond the float range (about 1.8e308)"
_EXPONENT_OUT_OF_RANGE = "coordinate with an exponent beyond the decimal module's range"
_EXACT_FLOAT = 2 ** 53  # every integer of smaller magnitude is a float
# a decimal of 1e309 or more is beyond the float range, whatever its digits
_FLOAT_PLACE = 309
# a decimal coordinate's last digit has a place value of 10**_LEAST_PLACE or more
_LEAST_PLACE = -5000
# digits of an integer literal ("p/q", a JSON integer), checked before int(), which takes
# quadratic time: CPython's default int_max_str_digits, the same on every interpreter
_MAX_DIGITS = 4300


def _ratio(value, cap: int | None = None) -> tuple[int, int]:
    """The reduced ratio (numerator, denominator > 0) of a coordinate-like
    value: int (but not bool), Fraction, Decimal, finite float (its exact
    binary value), or a string holding an optional sign, then a decimal
    literal with an optional exponent or "p/q" of unsigned integers.

    With a cap, a nonzero decimal (a Decimal or a decimal literal) whose
    leading digit has a place value of 10**cap or more (beyond the float
    range at a Point's cap, _FLOAT_PLACE), or whose last digit has one
    below 10**_LEAST_PLACE, is refused by its exponent, before its
    integers are built: those of 1e4000000, 1e-4000000 or a million
    fraction digits take seconds.
    """
    if type(value) is int:  # exact types first: JSON's int (its Decimal below), Fraction
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    if isinstance(value, str):
        if _LITERAL.fullmatch(value) is None:
            raise PolygonParseError(f"bad coordinate literal {reprlib.repr(value)}")
        p, slash, q = value.partition("/")
        if slash:
            if max(len(p.lstrip("+-")), len(q)) > _MAX_DIGITS:
                raise PolygonParseError(
                    f"coordinate literal of {len(value)} characters has too many digits")
            p, q = int(p), int(q)
            g = math.gcd(p, q)
            return p // g, q // g
        try:
            value = decimal.Decimal(value)
        except decimal.InvalidOperation as exc:  # an exponent beyond the decimal module's
            raise PolygonParseError(_EXPONENT_OUT_OF_RANGE) from exc
    if isinstance(value, (float, decimal.Decimal)):
        if cap is not None and isinstance(value, decimal.Decimal) and value:
            top = value.adjusted()  # the leading digit's place; 0 for NaN and inf
            if top >= cap:
                raise PolygonParseError(_BEYOND_FLOAT_RANGE if cap == _FLOAT_PLACE
                                        else f"coordinate of 1e{cap} or more")
            # the last digit's place is as_tuple's exponent, and above top - len(str(value))
            if top - len(str(value)) < _LEAST_PLACE and value.as_tuple().exponent < _LEAST_PLACE:
                raise PolygonParseError(f"coordinate with a digit below 1e{_LEAST_PLACE}")
        try:
            return value.as_integer_ratio()
        except (OverflowError, ValueError) as exc:  # infinities and NaNs
            raise PolygonParseError(f"non-finite coordinate {value!r}") from exc
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value.numerator, value.denominator
    raise PolygonParseError(f"unsupported coordinate type {type(value).__name__}")


def as_fraction(value) -> Fraction:
    """Coerce a coordinate-like value (see _ratio) to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _scaled(x, y, cap: int | None = None) -> tuple[int, int, int]:
    """(X, Y, D), D > 0 least, with (x, y) = (X / D, Y / D) (_ratio, cap)."""
    (xn, xd), (yn, yd) = _ratio(x, cap), _ratio(y, cap)
    d = math.lcm(xd, yd)
    return xn * (d // xd), yn * (d // yd), d


def _vertex(x, y) -> tuple[int, int, int, float, float]:
    """The canonical integers (X, Y, D) of the point (x, y) (_scaled, at
    the float range's cap) and its correctly rounded mirrors X / D, Y / D;
    a point beyond the float range is refused."""
    X, Y, D = _scaled(x, y, _FLOAT_PLACE)
    try:
        return X, Y, D, X / D, Y / D
    except OverflowError as exc:
        raise PolygonParseError(_BEYOND_FLOAT_RANGE) from exc


class Point:
    """Exact planar point (X / D, Y / D), D > 0 the least common denominator
    of its reduced coordinates, so (X, Y, D) is canonical. The float
    mirrors X / D and Y / D are correctly rounded; x and y are Fractions.

    A polygon keeps no Points: it makes them from its vertex table on
    access, canonical whatever scale the table holds (_points)."""

    __slots__ = ("X", "Y", "D", "xf", "yf")

    def __init__(self, x, y):
        self.X, self.Y, self.D, self.xf, self.yf = _vertex(x, y)

    @property
    def x(self) -> Fraction:
        return Fraction(self.X, self.D)

    @property
    def y(self) -> Fraction:
        return Fraction(self.Y, self.D)

    def __eq__(self, other):
        return isinstance(other, Point) and (self.X, self.Y, self.D) == (other.X, other.Y, other.D)

    def __hash__(self):
        return hash((self.X, self.Y, self.D))

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def _table(X, Y, D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex table of canonical integers X, Y, D, given as int64
    arrays, object arrays or lists of Python ints: one array of shape
    (3, n), and its mirror arrays X / D and Y / D. A ring's table; a
    polygon writes the tables of its rings over one scale where they fit
    (_common_scale), which leaves every mirror as it is: equal rationals
    divide to the same correctly rounded float.

    The table is int64 when every |X|, |Y| and D is below 2**53, and then
    divided in numpy: both operands convert exactly, so the quotient is
    correctly rounded, as Python's int / int always is. Otherwise it
    holds Python ints, divided as such.
    """
    try:
        ints = np.array((X, Y, D), dtype=np.int64)
    except OverflowError:
        ints = np.array((X, Y, D), dtype=object)
    else:  # abs(-2**63) is itself, which the unsigned view reads as 2**63
        if np.abs(ints).view(np.uint64).max(initial=0) >= _EXACT_FLOAT:
            ints = ints.astype(object)
    xs, ys = (ints[:2] / ints[2]).astype(float, copy=False)
    return ints, xs, ys


def _common_scale(ints: np.ndarray) -> np.ndarray:
    """The vertex table ints over one common scale L, where it fits:
    (X L / D, Y L / D, L), L the lcm of its scales D, when L and every
    scaled |X| and |Y| are below 2**53 (Fortune and Van Wyk's integer
    grid); otherwise ints itself. An object table never fits. The
    distinct scales are found by a sort, and their lcm is taken in
    Python ints, in any order, and stops once it reaches 2**53, so many
    coprime scales cost few steps."""
    if ints.dtype != np.int64:
        return ints
    D = np.sort(ints[2])
    scales = D[np.concatenate(([True], D[1:] != D[:-1]))].tolist()
    if len(scales) < 2:  # one scale already
        return ints
    scale = 1
    for d in scales:
        scale = math.lcm(scale, d)
        if scale >= _EXACT_FLOAT:
            return ints
    f = scale // ints[2]
    if (np.abs(ints[:2]) <= (_EXACT_FLOAT - 1) // f).all():  # so X L / D cannot overflow
        return ints * f  # D L / D = L
    return ints


def _points(cols: np.ndarray) -> list[Point]:
    """The Points of the columns cols, shape (3, m), of a vertex table:
    the one way from the table to Points. Each is canonical, whatever
    scale the table holds it over: its column divided by gcd(X, Y, D),
    in numpy and 2-D, so that an object table's columns stay Python
    ints. Their mirrors are divided as _table's are."""
    out = []
    for X, Y, D in zip(*(cols // np.gcd(np.gcd(cols[0], cols[1]), cols[2])).tolist()):
        p = Point.__new__(Point)
        p.X, p.Y, p.D, p.xf, p.yf = X, Y, D, X / D, Y / D
        out.append(p)
    return out


def _lex_cmp(p, q):
    """Exact lexicographic (x, y) order of points given as their integers
    (X, Y, D) (exactmath.integer_lanes): negative, zero or positive as
    p <, ==, > q. Operators only, so it serves single points and, lane by
    lane, rows of them. The x difference cx decides unless it is 0: an
    integer, it then outweighs the y difference cy, |cx (|cy| + 1)| > |cy|.
    """
    cx = p[0] * q[2] - q[0] * p[2]
    cy = p[1] * q[2] - q[1] * p[2]
    return cx * (abs(cy) + 1) + cy


class Direction:
    """A sweep direction modulo 180 degrees.

    (dx, dy) and (-dx, -dy) name the same Direction; the canonical
    representative has dy > 0, or dy == 0 and dx > 0, at the caller's
    scale. It is kept as integers (a, b, m), (dx, dy) = (a / m, b / m),
    built straight from two int components and through their exact
    ratios otherwise (_scaled), making no Fraction; dx and dy are
    Fractions worked out on access. Its coprime integer pair, fixed at
    construction, decides equality and every predicate; the float angle
    is only a sort key that exact comparisons refine.
    """

    __slots__ = ("_ints", "_pair", "fdx", "fdy")

    def __init__(self, dx, dy):
        self._set(*((dx, dy, 1) if type(dx) is int and type(dy) is int else _scaled(dx, dy)))

    def _set(self, a: int, b: int, m: int) -> None:
        """Hold the direction of (a / m, b / m), m > 0."""
        if not a and not b:
            raise ValueError("the zero vector has no direction")
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        self._ints = (a, b, m)
        self.fdx, self.fdy = float_direction(a, b, m)  # a positive multiple of (dx, dy)
        g = math.gcd(a, b)
        self._pair = (a // g, b // g)

    @property
    def dx(self) -> Fraction:
        return Fraction(self._ints[0], self._ints[2])

    @property
    def dy(self) -> Fraction:
        return Fraction(self._ints[1], self._ints[2])

    def canonical_pair(self) -> tuple[int, int]:
        """Coprime integer representative of the direction; hash/equality key."""
        return self._pair

    def __eq__(self, other):
        return isinstance(other, Direction) and self._pair == other._pair

    def __hash__(self):
        return hash(self._pair)

    def __repr__(self):
        return f"Direction({self.dx}, {self.dy})"


def _normal(x: int, y: int, s: int) -> Direction:
    """The Direction of (y / s, -x / s), at the caller's scale s."""
    v = Direction.__new__(Direction)
    v._set(y, -x, s)
    return v


class DoubleCone:
    """The closed double cone of directions eliminating one reflex vertex.

    Membership test: v lies in the cone iff <v, d1> * <v, d2> <= 0 where
    d1, d2 point from the apex to its two ring neighbors. Under such v
    both incident edges fall on one side of the ruling line through the
    apex, so the level set does not branch there; the set is closed and
    symmetric under v -> -v. d1 and d2 are kept as exact_delta's
    integers (x, y, s), d = (x / s, y / s), and v as its integer pair.

    Swept counterclockwise (mod 180 degrees) the cone is entered at
    arc_start, the outward normal of the incoming edge, and left at
    arc_end, the outward normal of the outgoing edge, each on access.
    """

    __slots__ = ("apex", "_d1", "_d2")

    def __init__(self, apex: Point, prev_point: Point, next_point: Point):
        a, p, q = ((v.X, v.Y, v.D) for v in (apex, prev_point, next_point))
        self._d1, self._d2 = d1, d2 = exact_delta(a, p), exact_delta(a, q)
        if exact_cross(d1[0], d1[1], d2[0], d2[1]) <= 0:
            raise NonReflexVertexError(f"vertex at {apex!r} is not reflex")
        self.apex = apex

    @property
    def arc_start(self) -> Direction:
        return _normal(*self._d1)

    @property
    def arc_end(self) -> Direction:
        return _normal(*self._d2)

    def contains(self, v: Direction) -> bool:
        """Exact closed containment test."""
        a, b = v._pair
        h1 = a * self._d1[0] + b * self._d1[1]
        h2 = a * self._d2[0] + b * self._d2[1]
        return not h1 or not h2 or (h1 > 0) != (h2 > 0)

    def __repr__(self):
        return f"DoubleCone(apex={self.apex!r}, {self.arc_start!r}..{self.arc_end!r})"


class Ring(tuple):
    """One boundary loop, the tuple of its vertices, oriented by Polygon."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self

    def __repr__(self):
        return f"Ring({len(self)} vertices)"


def _not_a_pair(label: str, i: int, item, length: int | None) -> PolygonParseError:
    """The error for entry i of ring label, named by its type and length,
    never by its contents, which may run to megabytes."""
    kind = type(item).__name__ if length is None else f"{type(item).__name__} of length {length}"
    return PolygonParseError(f"{label} entry {i} is not a coordinate pair: {kind}")


def _read_ring(items, label: str, strict: bool = False) -> tuple[np.ndarray, ...]:
    """The vertex table and mirrors (_table) of the ring label, read
    straight into columns an entry at a time, so the first faulty entry
    raises: a Point, or a coordinate pair (_vertex). Strict (a JSON
    document): the ring is a list of at least 3 entries, each a list of
    two; otherwise each entry is any iterable of two."""
    if strict and (not isinstance(items, list) or len(items) < 3):
        raise PolygonParseError(f"{label} must be a list of at least 3 coordinate pairs")
    X, Y, D = [], [], []
    for i, item in enumerate(items):
        if isinstance(item, Point):
            x, y, d = item.X, item.Y, item.D
        else:
            xy = item if isinstance(item, list) else None if strict else tuple(item)
            if xy is None or len(xy) != 2:
                raise _not_a_pair(label, i, item, None if xy is None else len(xy))
            x, y, d, _, _ = _vertex(xy[0], xy[1])
        X.append(x)
        Y.append(y)
        D.append(d)
    return _table(X, Y, D)


def _links(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(next, prev): the ring-next and ring-previous vertex of every
    global index, for rings of these sizes laid end to end."""
    sizes = np.array(sizes)
    ends = sizes.cumsum()
    starts = ends - sizes
    n = int(ends[-1])
    nxt = np.arange(1, n + 1)
    nxt[ends - 1] = starts
    prv = np.arange(-1, n - 1)
    prv[starts] = ends - 1
    return nxt, prv


def _corner_signs(ints: np.ndarray, xs: np.ndarray, ys: np.ndarray, bound: float) -> np.ndarray:
    """Exact sign of cross(p - prev, next - p) at every corner p of a ring,
    given as its vertex table ints and mirrors xs, ys: +1 a left turn, -1
    a right turn, 0 a duplicate, straight or slit corner. That cross is
    cross(next - p, prev - p), one orient_lanes lane, at its static bound."""
    n = ints.shape[1]
    nxt, prv = _links([n])
    return orient_lanes(ints, xs, ys, np.array((nxt, prv, np.arange(n))), bound)


def _merge_ring(ints: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Drop duplicate and straight-through vertices; reject slit corners.
    Returns the ring's vertex table and mirrors, compressed together, and
    its corner signs, all nonzero.

    Each pass takes the corner signs of the ring as it stood when the
    pass began, and decides the zero ones as lanes of their edge vectors
    u from the previous vertex and w to the next: w = 0 (a duplicate of
    the next vertex) is dropped, u = 0 kept until the next pass,
    u . w > 0 (straight through) dropped, and anything else is a slit.
    Iterates to a fixed point because removing a vertex can make its
    neighbor collinear in turn: a ring with no zero sign takes one pass.
    The static bound of the ring's mirrors is taken once: dropping
    vertices only shrinks them.
    """
    bound = static_cross_bound(xs, ys)
    while True:
        n = ints.shape[1]
        if n < 3:
            raise TooFewVerticesError(f"ring has {n} corners after merging")
        signs = _corner_signs(ints, xs, ys, bound)
        if signs.all():
            return ints, xs, ys, signs
        zero = np.flatnonzero(signs == 0)
        ux, uy, _ = delta_lanes(ints, np.array(((zero - 1) % n, zero)))
        wx, wy, _ = delta_lanes(ints, np.array((zero, (zero + 1) % n)))
        drop = (wx == 0) & (wy == 0) | (cross_sign(ux, uy, -wy, wx) > 0)  # u . w > 0
        slit = np.flatnonzero(~drop & ((ux != 0) | (uy != 0)))
        if len(slit):
            raise SlitVertexError(
                f"edges double back at {_points(ints[:, zero[slit[:1]]])[0]!r}")
        keep = np.ones(n, dtype=bool)
        keep[zero[drop]] = False
        ints, xs, ys = ints[:, keep], xs[keep], ys[keep]


def _normalize_ring(ints: np.ndarray, xs: np.ndarray, ys: np.ndarray, want: int) -> tuple[
        np.ndarray, ...]:
    """The ring merged and oriented (want: +1 counterclockwise, -1
    clockwise): its vertex table, float mirrors and exact corner signs.

    The corner signs come from the merge (_merge_ring), one pass on a
    ring with no zero sign. The orientation is the sign at the
    lexicographically least vertex, a strictly convex corner of a simple
    ring; a ring that is not simple is left for validation to reject.
    Reversing a ring reverses its table and mirrors and negates its signs.
    """
    ints, xs, ys, signs = _merge_ring(ints, xs, ys)
    # rounding is monotone, so the exact least x has the least mirror
    low = np.flatnonzero(xs == xs.min())
    cols = integer_lanes(ints, low).T
    least = low[min(range(len(low)), key=cmp_to_key(lambda i, j: _lex_cmp(cols[i], cols[j])))]
    if signs[least] != want:
        return ints[:, ::-1], xs[::-1], ys[::-1], -signs[::-1]
    return ints, xs, ys, signs


# the rows of (a, b, c, d) that form the four orientation lanes of a contact test
_CONTACT_ROWS = np.array([[0, 0, 2, 2], [1, 1, 3, 3], [2, 3, 0, 1]])


def _contact_lanes(quads: np.ndarray) -> np.ndarray:
    """The orientation lanes, shape (3, 4m), of the contact tests of
    segments a-b and c-d, one for each column (a, b, c, d) of quads,
    shape (4, m): c, then d, against a-b, then a, then b, against c-d."""
    return quads[_CONTACT_ROWS].reshape(3, -1)


def _touching(ints: np.ndarray, xs: np.ndarray, ys: np.ndarray, quads: np.ndarray,
              bound: float) -> np.ndarray:
    """Which closed segments a-b and c-d, one pair for each column (a, b,
    c, d) of quads, indices into the vertex table ints and its mirrors
    xs, ys, share a point. Exact.

    Their _contact_lanes are one orient_lanes call, at the static bound
    bound. Segments whose endpoints straddle each other touch; otherwise
    only an endpoint collinear with the other segment (a zero lane) can
    touch, and it does when it lies on that segment: when its vectors u,
    w to the segment's two ends have no coordinate of one strict sign,
    decided as lanes of their integers.
    """
    lanes = _contact_lanes(quads)
    o = orient_lanes(ints, xs, ys, lanes, bound).reshape(4, -1)
    o1, o2, o3, o4 = o
    touch = (o1 != o2) & (o3 != o4)
    zero = np.flatnonzero((o == 0) & ~touch)  # o[r, i] is lane r * len(touch) + i
    if len(zero):
        a, b, c = lanes[:, zero]
        ux, uy, _ = delta_lanes(ints, np.array((c, a)))
        wx, wy, _ = delta_lanes(ints, np.array((c, b)))
        opposed = (np.sign(ux) * np.sign(wx) <= 0) & (np.sign(uy) * np.sign(wy) <= 0)
        touch[zero[opposed] % len(touch)] = True
    return touch


_BLOCK = 64
_GAP = 1 << 16  # spacing of fresh block keys


class _Block(list):
    """A run of consecutive status edges; keys increase along the status."""

    __slots__ = ("key",)


def _forward(order: np.ndarray, nxt) -> list:
    """Whether each edge e, from vertex e to vertex nxt[e], runs forward
    in the event order: e comes before nxt[e] in order, a permutation,
    or in each row of order, rows of permutations (then a list per row)."""
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(order.shape[-1]), axis=-1)
    return (rank < rank[..., nxt]).tolist()


class _Status:
    """Edges crossing a sweep line, in order along it, with a handle for
    every edge, and the one point location of both planar sweeps, whose
    comparisons a static bound from the caller decides first. Vertices
    are indices into the sweep's vertex table and mirror lists.

    Edge e joins vertex e to vertex nxt[e] and is directed in event
    order: from e to nxt[e] iff forward[e]. The status runs from the
    edges a point on the sweep line lies strictly left of to those it
    does not: from bottom to top when the sweep line moves right, and
    from right to left looking along the sweep direction in general.

    Held as a list of short blocks (each at most 2 * _BLOCK long), so an
    insert or delete at a known position moves O(_BLOCK) entries and
    locating a new point takes O(log n) comparisons. A position is a
    (block, offset) pair, offset at most the block's length; the end of
    the status is (last block, its length). No block is empty.

    The handle home[e] is the block that holds edge e. Each block carries
    an integer key, and the keys increase along the status, so a known
    edge's position is one bisect over the keys and one scan of its
    block. Finding, deleting or replacing an edge already in the status
    therefore costs no predicate; only locate compares.
    """

    __slots__ = ("blocks", "keys", "home", "ints", "xs", "ys", "nxt", "forward", "bound")

    def __init__(self, ints: np.ndarray, xs: list[float], ys: list[float], nxt: list[int],
                 forward: list[bool], bound: float):
        """An empty status for the edges of the vertices of the vertex
        table ints, whose mirrors are the lists xs, ys, edge e running
        forward from e to nxt[e] iff forward[e]; bound is
        exactmath.static_cross_bound of the largest mirror magnitude
        (inf: no first stage)."""
        self.blocks: list[_Block] = []
        self.keys: list[int] = []
        self.home: list[_Block | None] = [None] * len(nxt)
        self.ints, self.xs, self.ys = ints, xs, ys
        self.nxt, self.forward, self.bound = nxt, forward, bound

    def locate(self, v: int) -> tuple[int, int, bool]:
        """(b, i, on): the position of the first edge that vertex v does
        not lie strictly left of, or the end, and whether v lies on that
        edge.

        In a status in order, that edge is the first through p when p
        lies on any edge. The search compares the edge at the position
        whatever the block layout, so on costs no predicate of its own.

        Each comparison has two stages (Devillers and Pion 2003): the
        float determinant of the vertices' mirrors, read from the mirror
        lists by index, decides when it clears the status's static bound,
        and otherwise orient_sign decides on their integers, one gather
        of the table turned into Python ints. It stays scalar: a lane
        form for these rare single comparisons costs more than it saves.
        """
        xs, ys, nxt, forward, bound = self.xs, self.ys, self.nxt, self.forward, self.bound
        px, py = xs[v], ys[v]
        on = []

        def rel(t: int) -> int:
            """Side of edge t, directed in event order, relative to v: -1
            if v lies strictly left of t. The sign is exact, so a swap of
            t's ends negates it."""
            a, b = t, nxt[t]
            # static_cross_bound's det, term for term, so the bound covers it; NaN falls through
            det = (xs[a] - px) * (ys[b] - py) - (ys[a] - py) * (xs[b] - px)
            if det > bound:
                o = 1
            elif det < -bound:
                o = -1
            else:
                o = orient_sign(*self.ints[:, [a, b, v]].T.tolist())
                if not o:
                    on.append(t)
            return -o if forward[t] else o

        blocks = self.blocks
        b = bisect_left(blocks, 0, key=lambda blk: rel(blk[-1]))
        if b == len(blocks):
            return (b - 1, len(blocks[-1]), False) if blocks else (0, 0, False)
        blk = blocks[b]
        i = bisect_left(blk, 0, 0, len(blk) - 1, key=rel)
        return b, i, blk[i] in on

    def place(self, e: int) -> tuple[int, int]:
        """Position of edge e, which must be in the status."""
        blk = self.home[e]
        return bisect_left(self.keys, blk.key), blk.index(e)

    def below(self, b: int, i: int) -> int | None:
        """The edge just before position (b, i)."""
        if i:
            return self.blocks[b][i - 1]
        return self.blocks[b - 1][-1] if b else None

    def at(self, b: int, i: int) -> int | None:
        """The edge at position (b, i), or None at the end."""
        blocks = self.blocks
        if not blocks:
            return None
        blk = blocks[b]
        if i < len(blk):
            return blk[i]
        return blocks[b + 1][0] if b + 1 < len(blocks) else None

    def pop(self, b: int, i: int) -> tuple[int, int]:
        """Delete the edge at (b, i); return the position of the gap."""
        blocks = self.blocks
        blk = blocks[b]
        del blk[i]
        if not blk:
            del blocks[b]
            del self.keys[b]
            if b == len(blocks):
                return (b - 1, len(blocks[-1])) if blocks else (0, 0)
            return b, 0
        if i == len(blk) and b + 1 < len(blocks):
            return b + 1, 0  # so that a second pop here deletes the next edge
        return b, i

    def insert(self, b: int, i: int, edges: list[int]) -> None:
        """Insert edges, in status order, at position (b, i)."""
        blocks = self.blocks
        home = self.home
        if not blocks:
            blk = _Block(edges)
            blk.key = 0
            blocks.append(blk)
            self.keys.append(0)
        else:
            blk = blocks[b]
            blk[i:i] = edges
        for e in edges:
            home[e] = blk
        if len(blk) > 2 * _BLOCK:
            self._split(b)

    def replace(self, e: int, f: int) -> None:
        """Put edge f in the place of edge e, which leaves the status."""
        blk = self.home[e]
        blk[blk.index(e)] = f
        self.home[f] = blk

    def _split(self, b: int) -> None:
        blocks, keys, home = self.blocks, self.keys, self.home
        blk = blocks[b]
        upper = _Block(blk[_BLOCK:])
        del blk[_BLOCK:]
        for e in upper:
            home[e] = upper
        top = keys[b + 1] if b + 1 < len(keys) else blk.key + 2 * _GAP
        if top - blk.key < 2:  # no key left between the halves: respace all
            for k, x in enumerate(blocks):
                x.key = keys[k] = k * _GAP
            top = blk.key + _GAP
        upper.key = (blk.key + top) // 2
        blocks.insert(b + 1, upper)
        keys.insert(b + 1, upper.key)


def _validate_rings(ints: np.ndarray, xf: np.ndarray, yf: np.ndarray, turn: np.ndarray,
                    sizes: list[int], bound: float) -> None:
    """Reject any contact between edges of the rings other than the
    vertex two ring-consecutive edges share, and any hole outside the
    outer ring or inside another hole. The rings lie end to end in one
    vertex table, the outer ring first, then the holes: their integers
    ints, float mirrors xf, yf and exact corner signs turn, with
    ring r's vertices following ring r - 1's, sizes[r] of them; bound is
    the static bound of the status (_Status) for all rings.

    One exact any-segment-intersection sweep over the edges of every
    ring (Shamos and Hoey 1976; de Berg et al., Computational Geometry,
    ch. 2) with O(n log n) work. Events are the vertices in exact
    lexicographic (x, y) order; the status holds the edges that cross
    the sweep line, in order along it. Only a leftmost vertex is located
    by search, one filtered comparison per step; edges that end are found
    by their handles, and the order of two edges starting at one vertex
    is that vertex's corner sign. What only checks the sweep is deferred:
    the contact test of every pair of edges that becomes adjacent in the
    status, and the test that a vertex whose edges ended lies between
    the two edges they leave. These checks become lanes of one filtered
    predicate (_failed_check) when the sweep ends or raises, and the
    first failing check in sweep order is reported, so the result is
    that of testing each check as it comes. Hole placement comes from
    the same sweep: at a hole's leftmost vertex the edge just below
    decides whether that vertex lies in the interior of the rings swept
    so far.

    When several faults are present, a self-intersection is reported
    before any hole placement fault.
    """
    try:
        _sweep(ints, xf, yf, turn, sizes, bound)
    except HolePlacementError:
        end = 0
        for size in sizes:  # one ring alone: raises only SelfIntersectionError
            ring = slice(end, end + size)
            end += size
            _sweep(ints[:, ring], xf[ring], yf[ring], turn[ring], [size], bound)
        raise


_LOST_ORDER = "sweep status lost the order of its edges"


def _failed_check(touches: list[int], sides: list[int], ints: np.ndarray, xs: np.ndarray,
                  ys: np.ndarray, bound: float) -> tuple[int, int, bool] | None:
    """The first check of the validation sweep that fails, or None.

    touches holds four vertex indices per contact check, (e, nxt[e], f,
    nxt[f]): edges e and f must not touch. sides holds seven integers
    per order check, (lo[t], hi[t], v, side, e, t, c): vertex v, where
    edge e ended, must lie strictly on side `side` (+1 left, -1 right)
    of edge t, directed from lo[t] to hi[t]; c contact checks came
    before it; the indices are into the vertex table ints and its
    mirrors xs, ys. _touching decides the contact checks, and the order
    checks are one orient_lanes call, both at the static bound bound. A failed check is returned as (e,
    f, touch): touch is True if edges e and f share a point (a vertex of
    e on t counts), and False if v lies strictly on the wrong side of t.
    """
    if not touches and not sides:
        return None
    quads = np.array(touches, dtype=np.intp).reshape(-1, 4).T
    rows = np.array(sides, dtype=np.intp).reshape(-1, 7).T
    touch = np.flatnonzero(_touching(ints, xs, ys, quads, bound))
    o = orient_lanes(ints, xs, ys, rows[:3], bound)
    wrong = np.flatnonzero(o != rows[3])
    if len(wrong) and (not len(touch) or rows[6, wrong[0]] <= touch[0]):
        j = wrong[0]
        return int(rows[4, j]), int(rows[5, j]), bool(o[j] == 0)
    if len(touch):
        return int(quads[0, touch[0]]), int(quads[2, touch[0]]), True
    return None


def _sweep(ints: np.ndarray, xf: np.ndarray, yf: np.ndarray, turn: np.ndarray,
           sizes: list[int], bound: float) -> None:
    n = len(turn)
    nxt, prv = _links(sizes)
    ring_of = np.repeat(np.arange(len(sizes)), sizes).tolist()
    turn = turn.tolist()

    # exact lexicographic order, equal points by index; x mirrors decide unless they tie
    events, repeat = filtered_order(xf, np.zeros(n), partial(integer_lanes, ints), _lex_cmp)
    # edge e runs from vertex e to nxt[e]; lo/hi are its first/last endpoints
    # in event order. The interior lies left of every edge, so above an
    # edge that runs forward in event order, and the status runs upward.
    forward = _forward(events, nxt)
    nxt, prv = nxt.tolist(), prv.tolist()
    events = events.tolist()
    repeat = repeat.tolist()
    lo = [e if forward[e] else nxt[e] for e in range(n)]
    hi = [nxt[e] if forward[e] else e for e in range(n)]
    status = _Status(ints, xf.tolist(), yf.tolist(), nxt, forward, bound)

    def fault(e: int, f: int) -> PolygonError:
        re, rf = ring_of[e], ring_of[f]
        if re == rf:
            first = sum(sizes[:re])
            i, j = sorted((e - first, f - first))
            near = _points(ints[:, [first + i]])[0]
            return SelfIntersectionError(f"edges {i} and {j} of a ring intersect near {near!r}")
        a, b = sorted((re, rf))
        if a == 0:
            return HolePlacementError(f"hole {b - 1} touches the outer boundary")
        return HolePlacementError(f"holes {a - 1} and {b - 1} touch")

    touches: list[int] = []  # the checks, in _failed_check's form
    sides: list[int] = []

    def check(e: int | None, f: int | None) -> None:
        """Check later that edges e and f, new neighbours in the status, do not touch."""
        if e is None or f is None or nxt[e] == f or nxt[f] == e:
            return
        touches.extend((e, nxt[e], f, nxt[f]))

    raised = None
    try:
        seen = [False] * len(sizes)
        for k, v in enumerate(events):
            if repeat[k]:
                raise fault(v, events[k - 1])  # a repeated point: both edges leaving it touch
            e_in, e_out = prv[v], v

            if hi[e_in] == v or hi[e_out] == v:
                # remove the edges ending at v, found by handle, lower first
                if hi[e_in] == v and hi[e_out] == v:
                    ending = sorted((e_in, e_out), key=status.place)
                else:
                    ending = [e_in if hi[e_in] == v else e_out]
                b, i = status.place(ending[0])
                if len(ending) == 2 and status.at(b, i + 1) != ending[1]:
                    raise RuntimeError(_LOST_ORDER)
                for e in ending:
                    b, i = status.pop(b, i)
                # the edges found by handle must have held v's place: v lies
                # above the edge below the gap and below the edge above it
                for t, side in ((status.below(b, i), 1), (status.at(b, i), -1)):
                    if t is not None:
                        sides.extend((lo[t], hi[t], v, side, ending[0], t, len(touches) // 4))
            else:
                # a leftmost vertex: both edges start here; locate v itself
                b, i, on = status.locate(v)
                if on:  # v lies on the edge at its place, the lowest through v
                    raise fault(e_out, status.at(b, i))

            # (b, i) is v's place in the status. An edge through v would have
            # touched a neighbour of the edges ending at v already, so the
            # edges starting at v go into the gap those leave.
            below = status.below(b, i)
            above = status.at(b, i)
            if lo[e_in] == v and lo[e_out] == v:
                # the edge to the next vertex runs below the one to the
                # previous iff the corner at v turns right
                starting = [e_in, e_out] if turn[v] < 0 else [e_out, e_in]
            elif lo[e_in] == v or lo[e_out] == v:
                starting = [e_in if lo[e_in] == v else e_out]
            else:
                check(below, above)
                continue
            check(below, starting[0])
            check(starting[-1], above)
            status.insert(b, i, starting)

            g = ring_of[v]
            if not seen[g]:
                seen[g] = True
                if g and (below is None or not forward[below]):
                    where = "lies outside the outer ring" if below is None or not ring_of[below] \
                        else f"is nested inside hole {ring_of[below] - 1}"
                    raise HolePlacementError(f"hole {g - 1} {where}")
    except Exception as exc:  # past a failed check the status may be out of order
        raised = exc
    # a check that failed before the sweep raised is the fault to report
    failed = _failed_check(touches, sides, ints, xf, yf, bound)
    if failed is not None:
        e, f, touch = failed
        raise fault(e, f) if touch else RuntimeError(_LOST_ORDER)
    if raised is not None:
        raise raised


class Polygon:
    """Simple polygon with holes.

    The outer ring is counterclockwise and holes are clockwise, so the
    interior always lies to the left of traversal and one cross product
    rule classifies reflex vertices on every ring.

    Construction reads each ring straight into its integer table and
    mirrors (_read_ring), then merges it (_merge_ring), each pass taking
    every corner sign as one orient_lanes call: zero signs (duplicate,
    straight-through or slit corners) are decided as lanes, dropping the
    first two kinds and rejecting the third. The signs of the last pass
    give the orientation, at the lexicographically least vertex, and
    the reflex vertices, the negative ones. The rings' integer tables
    (_table), mirrors and signs are concatenated once, into the vertex
    table that P keeps (_ints, shape (3, n), every exact gather's source
    and P's only per-vertex store; _coords, the mirrors) and validation
    reads, written over one common scale where that grid fits below
    2**53 (_common_scale), and validated with one exact sweep
    (_validate_rings):
    SelfIntersectionError when two edges of one ring share a point other
    than the vertex between consecutive edges, HolePlacementError when
    rings touch or a hole lies outside the outer ring or inside another
    hole. Construction also takes the static bound of point location
    over all of P's mirrors (exactmath.static_cross_bound), which
    validation and every Reeb sweep of P share. validate=False skips the
    validation sweep; it exists for generators that certify simplicity
    structurally. Such rings are still merged and oriented, but their
    simplicity and nesting are trusted: on a ring that is not simple the
    orientation, and with it the reflex mask, means nothing.

    P keeps no Points: vertex(i), the rings and cone(i) make them from
    the table on access, canonical whatever its scale (_points).
    """

    __slots__ = ("n", "h", "_starts", "_ints", "_prev", "_next", "_coords", "_bound",
                 "_reflex", "_cones")

    def __init__(self, outer, holes: Iterable = (), *, validate: bool = True):
        self._set((_read_ring(ring, f"holes[{r - 1}]" if r else "outer")
                   for r, ring in enumerate(itertools.chain([outer], holes))), validate)

    def _set(self, tables: Iterable[tuple[np.ndarray, ...]], validate: bool) -> Polygon:
        """Build P, and return it, from the vertex tables and mirrors
        (_table) of its rings, the outer ring first, each normalized as it
        comes: the step of __init__ past reading its rings, which
        load_polygon and the generators take on tables of their own, as
        Polygon.__new__(Polygon)._set(tables, validate)."""
        ints, xs, ys, signs = zip(*(_normalize_ring(*table, -1 if r else 1)
                                    for r, table in enumerate(tables)))
        sizes = [len(turn) for turn in signs]
        self._ints = _common_scale(np.concatenate(ints, axis=1))
        xf, yf, turn = np.concatenate(xs), np.concatenate(ys), np.concatenate(signs)
        # the first stage of every point location in P, validation's and the Reeb sweep's
        self._bound = static_cross_bound(xf, yf)
        if validate:
            _validate_rings(self._ints, xf, yf, turn, sizes, self._bound)

        self._starts = [0, *itertools.accumulate(sizes)]
        self.n, self.h = self._starts[-1], len(sizes) - 1
        self._next, self._prev = _links(sizes)
        self._coords = np.column_stack((xf, yf))
        self._reflex = turn < 0
        self._cones = {}
        return self

    # -- vertex addressing ------------------------------------------------

    def _index(self, i: int) -> int:
        """i itself, a global vertex index; IndexError outside 0 .. n-1."""
        if not 0 <= i < self.n:
            raise IndexError(f"vertex index {i} out of range for {self.n} vertices")
        return i

    def vertex(self, i: int) -> Point:
        """Point at global vertex index i."""
        return _points(self._ints[:, [self._index(i)]])[0]

    def neighbors(self, i: int) -> tuple[int, int]:
        """Global indices of the ring-previous and ring-next vertices."""
        i = self._index(i)
        return int(self._prev[i]), int(self._next[i])

    @property
    def outer(self) -> Ring:
        return self.rings[0]

    @property
    def holes(self) -> tuple[Ring, ...]:
        return self.rings[1:]

    @property
    def rings(self) -> tuple[Ring, ...]:
        pts, s = _points(self._ints), self._starts
        return tuple(Ring(pts[a:b]) for a, b in zip(s, s[1:]))

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the float mirrors."""
        xs = self._coords[:, 0]
        ys = self._coords[:, 1]
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())

    # -- reflex machinery --------------------------------------------------

    def reflex_indices(self) -> tuple[int, ...]:
        """Sorted global indices of reflex vertices."""
        return tuple(np.flatnonzero(self._reflex).tolist())

    def cone(self, i: int) -> DoubleCone:
        """DoubleCone at reflex vertex i (cached)."""
        c = self._cones.get(self._index(i))
        if c is None:
            if not self._reflex[i]:
                raise NonReflexVertexError(f"vertex {i} at {self.vertex(i)!r} is not reflex")
            c = DoubleCone(*_points(self._ints[:, [i, *self.neighbors(i)]]))
            self._cones[i] = c
        return c

    def __repr__(self):
        return f"Polygon(n={self.n}, h={self.h})"


# -- file format ----------------------------------------------------------


def _reject_constant(token: str):
    raise PolygonParseError(f"non-finite number {token!r} in polygon document")


def _json_int(text: str) -> int:
    """A JSON integer, its digits counted before int() reads them (_MAX_DIGITS)."""
    if len(text) - text.startswith("-") > _MAX_DIGITS:
        raise PolygonParseError("integer with too many digits in polygon document")
    return int(text)


def load_polygon(source) -> Polygon:
    """Parse and validate a polygon document.

    Accepts bytes, str, or a readable file object. Numbers are parsed
    exactly; NaN and infinities are rejected. A document that is not
    UTF-8, not JSON, nested beyond the parser's depth or holding an
    integer of more than _MAX_DIGITS digits is a PolygonParseError. Each
    ring is read straight into its vertex table (_read_ring).
    """
    if hasattr(source, "read"):
        source = source.read()
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        doc = json.loads(source, parse_float=decimal.Decimal, parse_int=_json_int,
                         parse_constant=_reject_constant)
    except PolygonParseError:
        raise
    except UnicodeDecodeError as exc:
        raise PolygonParseError(f"polygon document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PolygonParseError(f"invalid JSON: {exc}") from exc
    except decimal.InvalidOperation as exc:  # a JSON number's exponent beyond the decimal module's
        raise PolygonParseError(_EXPONENT_OUT_OF_RANGE) from exc
    except RecursionError as exc:
        raise PolygonParseError("polygon document nested too deeply") from exc
    if not isinstance(doc, dict):
        raise PolygonParseError("top level must be an object")
    unknown = set(doc) - {"outer", "holes"}
    if unknown:
        raise PolygonParseError(f"unknown keys {reprlib.repr(sorted(unknown))}")
    if "outer" not in doc:
        raise PolygonParseError('missing required key "outer"')
    outer = _read_ring(doc["outer"], "outer", strict=True)
    holes_spec = doc.get("holes", [])
    if not isinstance(holes_spec, list):
        raise PolygonParseError('"holes" must be a list of rings')
    holes = [_read_ring(r, f"holes[{i}]", strict=True) for i, r in enumerate(holes_spec)]
    return Polygon.__new__(Polygon)._set([outer, *holes], True)


def _decimal_form(den: int) -> tuple[int, int, int] | None:
    """(e, 10**e, 10**e // den) for the least e with den dividing 10**e,
    or None when den has a prime factor other than 2 and 5."""
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    e = max(twos, fives)
    return e, 10 ** e, 10 ** e // den


def _coordinate_text(num: int, den: int, forms: dict) -> str:
    """Exact JSON rendering of num / den, den > 0: a decimal number when
    the reduced denominator is 2^a * 5^b, the string "p/q" otherwise.
    forms caches _decimal_form by reduced denominator."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    if den == 1:
        return str(num)
    try:
        form = forms[den]
    except KeyError:
        form = forms[den] = _decimal_form(den)
    if form is None:
        return f'"{num}/{den}"'
    e, scale, factor = form
    # den divides 10**e for no smaller e, so the last digit is not 0
    whole, frac = divmod(abs(num) * factor, scale)
    text = f"{whole}.{str(frac).rjust(e, '0')}"
    return "-" + text if num < 0 else text


def dump_polygon(P: Polygon) -> str:
    """Serialize to the polygon file format, exactly and deterministically,
    from P's vertex table."""
    forms: dict = {}
    X, Y, D = P._ints.tolist()
    rings = ["[" + ",".join(
        f"[{_coordinate_text(X[i], D[i], forms)},{_coordinate_text(Y[i], D[i], forms)}]"
        for i in range(a, b)
    ) + "]" for a, b in itertools.pairwise(P._starts)]
    return '{"outer":' + rings[0] + ',"holes":[' + ",".join(rings[1:]) + "]}\n"
