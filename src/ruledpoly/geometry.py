"""Polygons with holes over exact rational coordinates.

A point is (X / D, Y / D) over integers, D > 0 its own least common
denominator, and every geometric decision is an exact sign computed
from these integers; float mirrors of all coordinates are kept
alongside for numpy fast paths and filtered scalar predicates (see
exactmath). Fractions appear only at the public edge. Each ring's
corner signs are computed once, at construction, and give its merging,
its orientation and its reflex vertices.

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
of both sweeps. Each of its comparisons is a three-stage filter: the
plain float determinant against one static bound per polygon
(exactmath.static_cross_bound, kept on the Polygon), then the one
scalar orient_sign call of both sweeps, which has its own float filter
and falls back to the integers.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key, partial
from typing import Iterable, Sequence

import numpy as np

from .exactmath import (
    corner_cross,
    delta_lanes,
    exact_cross,
    exact_delta,
    filtered_order,
    filtered_sign_array,
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


# an optional sign, then a decimal literal with an optional exponent or p/q, q > 0
_LITERAL = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+/0*[1-9][0-9]*)")


_BEYOND_FLOAT_RANGE = "coordinate beyond the float range (about 1.8e308)"
_EXACT_FLOAT = 2 ** 53  # every integer of smaller magnitude is a float


def _ratio(value, cap: int | None = None) -> tuple[int, int]:
    """The reduced ratio (numerator, denominator > 0) of a coordinate-like
    value: int (but not bool), Fraction, Decimal, finite float (its exact
    binary value), or a string holding an optional sign, then a decimal
    literal with an optional exponent or "p/q" of unsigned integers.

    With a cap, a decimal (a Decimal or a decimal literal) whose leading
    digit has a place value of 10**cap or more is refused by its
    exponent, before its integers are built: those of 1e4000000 take
    seconds.
    """
    if type(value) is int:  # exact types first: JSON's int (its Decimal below), Fraction
        return value, 1
    if type(value) is Fraction:
        return value.numerator, value.denominator
    if isinstance(value, str):
        if _LITERAL.fullmatch(value) is None:
            raise PolygonParseError(f"bad coordinate literal {value!r}")
        p, slash, q = value.partition("/")
        if slash:
            try:
                p, q = int(p), int(q)
            except ValueError as exc:  # beyond the interpreter's digit limit
                raise PolygonParseError(
                    f"coordinate literal of {len(value)} characters has too many digits") from exc
            g = math.gcd(p, q)
            return p // g, q // g
        value = decimal.Decimal(value)
    if isinstance(value, (float, decimal.Decimal)):
        if cap is not None and isinstance(value, decimal.Decimal) and value \
                and value.adjusted() >= cap:
            raise PolygonParseError(_BEYOND_FLOAT_RANGE)
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


class Point:
    """Exact planar point (X / D, Y / D), D > 0 the least common denominator
    of its reduced coordinates, so (X, Y, D) is canonical. The float
    mirrors X / D and Y / D are correctly rounded; x and y are Fractions."""

    __slots__ = ("X", "Y", "D", "xf", "yf")

    def __init__(self, x, y):
        # 1e309 and up are beyond the float range, whatever their digits
        (xn, xd), (yn, yd) = _ratio(x, 309), _ratio(y, 309)
        d = self.D = math.lcm(xd, yd)
        self.X, self.Y = xn * (d // xd), yn * (d // yd)
        try:
            self.xf, self.yf = self.X / d, self.Y / d
        except OverflowError as exc:
            raise PolygonParseError(_BEYOND_FLOAT_RANGE) from exc

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


def _points_from_ints(X: np.ndarray, Y: np.ndarray, D: np.ndarray) -> tuple[
        list[Point], np.ndarray, np.ndarray]:
    """The Points (X / D, Y / D) of canonical integers, given as int64
    arrays or object arrays of Python ints, and their mirror arrays.

    The mirrors are divided in numpy when every |X|, |Y| and D is below
    2**53: both operands then convert exactly, so the quotient is
    correctly rounded, as Python's int / int always is. Otherwise they
    are divided as Python ints.
    """
    if not all(-_EXACT_FLOAT < v.min() and v.max() < _EXACT_FLOAT for v in (X, Y, D)):
        X, Y, D = X.astype(object), Y.astype(object), D.astype(object)
    xs, ys = np.asarray(X / D, dtype=float), np.asarray(Y / D, dtype=float)
    new = Point.__new__
    pts = []
    for x, y, d, xf, yf in zip(X.tolist(), Y.tolist(), D.tolist(), xs.tolist(), ys.tolist()):
        p = new(Point)
        p.X, p.Y, p.D, p.xf, p.yf = x, y, d, xf, yf
        pts.append(p)
    return pts, xs, ys


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
    ratios otherwise; dx and dy are Fractions worked out on access. Its
    coprime integer pair, fixed at construction, decides equality and
    every predicate; the float angle is only a sort key that exact
    comparisons refine.
    """

    __slots__ = ("_ints", "_pair", "fdx", "fdy")

    def __init__(self, dx, dy):
        if type(dx) is int and type(dy) is int:
            a, b, m = dx, dy, 1
        else:
            dx, dy = as_fraction(dx), as_fraction(dy)
            m = math.lcm(dx.denominator, dy.denominator)
            a, b = dx.numerator * (m // dx.denominator), dy.numerator * (m // dy.denominator)
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


class DoubleCone:
    """The closed double cone of directions eliminating one reflex vertex.

    Membership test: v lies in the cone iff <v, d1> * <v, d2> <= 0 where
    d1, d2 point from the apex to its two ring neighbors. Under such v
    both incident edges fall on one side of the ruling line through the
    apex, so the level set does not branch there; the set is closed and
    symmetric under v -> -v. d1 and d2 are kept as integer vectors, each
    at a positive scale of its own, and v as its integer pair.

    Swept counterclockwise (mod 180 degrees) the cone is entered at
    arc_start, the outward normal of the incoming edge, and left at
    arc_end, the outward normal of the outgoing edge.
    """

    __slots__ = ("apex", "arc_start", "arc_end", "_d1", "_d2")

    def __init__(self, apex: Point, prev_point: Point, next_point: Point):
        x1, y1, s1 = exact_delta(apex, prev_point)
        x2, y2, s2 = exact_delta(apex, next_point)
        if exact_cross(x1, y1, x2, y2) <= 0:
            raise NonReflexVertexError(f"vertex at {apex!r} is not reflex")
        self.apex = apex
        self._d1 = (x1, y1)
        self._d2 = (x2, y2)
        self.arc_start = Direction(Fraction(y1, s1), Fraction(-x1, s1))
        self.arc_end = Direction(Fraction(y2, s2), Fraction(-x2, s2))

    def contains(self, v: Direction) -> bool:
        """Exact closed containment test."""
        a, b = v._pair
        h1 = a * self._d1[0] + b * self._d1[1]
        h2 = a * self._d2[0] + b * self._d2[1]
        return not h1 or not h2 or (h1 > 0) != (h2 > 0)

    def __repr__(self):
        return f"DoubleCone(apex={self.apex!r}, {self.arc_start!r}..{self.arc_end!r})"


class Ring:
    """One boundary loop. Vertices are normalized and oriented by Polygon."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Point]):
        self.vertices = tuple(vertices)

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def __repr__(self):
        return f"Ring({len(self.vertices)} vertices)"


def _coerce_points(ring_like) -> list[Point]:
    if isinstance(ring_like, Ring):
        return list(ring_like.vertices)
    pts = []
    for item in ring_like:
        if isinstance(item, Point):
            pts.append(item)
        else:
            xy = tuple(item)
            if len(xy) != 2:
                raise PolygonParseError(f"coordinate pair expected, got {item!r}")
            pts.append(Point(xy[0], xy[1]))
    return pts


def _mirrors(pts: list[Point]) -> tuple[np.ndarray, np.ndarray]:
    n = len(pts)
    return (np.fromiter((p.xf for p in pts), dtype=float, count=n),
            np.fromiter((p.yf for p in pts), dtype=float, count=n))


def _corner_signs(pts: list[Point], xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact sign of cross(p - prev, next - p) at every corner p of a ring:
    +1 a left turn, -1 a right turn, 0 a duplicate, straight or slit corner."""
    n = len(pts)
    # the ring padded with its last and first vertex: corner i is lanes i .. i + 2
    xe, ye = np.concatenate((xs[-1:], xs, xs[:1])), np.concatenate((ys[-1:], ys, ys[:1]))
    cr, err = corner_cross(xe[:-2], ye[:-2], xs, ys, xe[2:], ye[2:])

    def exact(lanes: np.ndarray) -> np.ndarray:
        ux, uy, _ = delta_lanes(pts, np.array(((lanes - 1) % n, lanes)))
        wx, wy, _ = delta_lanes(pts, np.array((lanes, (lanes + 1) % n)))
        return exact_cross(ux, uy, wx, wy)

    return filtered_sign_array(cr, err, exact)


def _merge_ring(pts: list[Point]) -> list[Point]:
    """Drop duplicate and straight-through vertices; reject slit corners.

    Iterates to a fixed point because removing a vertex can make its
    neighbor collinear in turn.
    """
    while True:
        n = len(pts)
        if n < 3:
            raise TooFewVerticesError(f"ring has {n} corners after merging")
        out = []
        changed = False
        for i in range(n):
            prv = pts[i - 1]
            p = pts[i]
            nxt = pts[(i + 1) % n]
            if p == nxt:
                changed = True
                continue
            if prv == p:
                out.append(p)  # duplicate resolved at the previous index next pass
                changed = True
                continue
            d1x, d1y, _ = exact_delta(prv, p)
            d2x, d2y, _ = exact_delta(p, nxt)
            cr = exact_cross(d1x, d1y, d2x, d2y)
            if cr == 0:
                if d1x * d2x + d1y * d2y > 0:
                    changed = True
                    continue
                raise SlitVertexError(f"edges double back at {p!r}")
            out.append(p)
        pts = out
        if not changed:
            return pts


def _normalize_ring(pts: list[Point], want: int) -> tuple[list[Point], np.ndarray,
                                                       np.ndarray, np.ndarray]:
    """The ring merged and oriented (want: +1 counterclockwise, -1
    clockwise), with its float mirrors and exact corner signs.

    One corner-sign pass decides everything. Only a zero sign sends the
    ring through the exact merge loop, which removes every zero. The
    orientation is the sign at the lexicographically least vertex, a
    strictly convex corner of a simple ring; a ring that is not simple
    is left for validation to reject. Reversing a ring negates its signs.
    """
    if len(pts) < 3:
        raise TooFewVerticesError(f"ring has {len(pts)} corners after merging")
    xs, ys = _mirrors(pts)
    signs = _corner_signs(pts, xs, ys)
    if not signs.all():
        pts = _merge_ring(pts)
        xs, ys = _mirrors(pts)
        signs = _corner_signs(pts, xs, ys)
    # rounding is monotone, so the exact least x has the least mirror
    low = np.flatnonzero(xs == xs.min())
    ints = integer_lanes(pts, low).T
    least = low[min(range(len(low)), key=cmp_to_key(lambda i, j: _lex_cmp(ints[i], ints[j])))]
    if signs[least] != want:
        return pts[::-1], xs[::-1], ys[::-1], -signs[::-1]
    return pts, xs, ys, signs


def _on_segment(a: Point, b: Point, c: Point) -> bool:
    """Whether c, known collinear with a-b, lies on the closed segment:
    a - c and b - c have no coordinate of one strict sign."""
    ax, ay, _ = exact_delta(c, a)
    bx, by, _ = exact_delta(c, b)
    return ax * bx <= 0 and ay * by <= 0


# the rows of (a, b, c, d) that form the four orientation lanes of a contact test
_CONTACT_ROWS = np.array([[0, 0, 2, 2], [1, 1, 3, 3], [2, 3, 0, 1]])


def _contact_lanes(quads: np.ndarray) -> np.ndarray:
    """The orientation lanes, shape (3, 4m), of the contact tests of
    segments a-b and c-d, one for each column (a, b, c, d) of quads,
    shape (4, m): c, then d, against a-b, then a, then b, against c-d."""
    return quads[_CONTACT_ROWS].reshape(3, -1)


def _touching(pts: list[Point], o: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Which closed segments pts[a]-pts[b] and pts[c]-pts[d], one pair for
    each column (a, b, c, d) of quads, share a point. Exact.

    o holds the exact signs of their _contact_lanes, shape (4, m).
    Segments whose endpoints straddle each other touch; otherwise only an
    endpoint collinear with the other segment (a zero lane) can touch,
    and _on_segment tells whether it does.
    """
    o1, o2, o3, o4 = o
    touch = (o1 != o2) & (o3 != o4)
    collinear = ~touch & ~o.all(axis=0)
    if collinear.any():
        for i in np.flatnonzero(collinear).tolist():
            p, q, r, s = (pts[k] for k in quads[:, i].tolist())
            touch[i] = (o1[i] == 0 and _on_segment(p, q, r) or o2[i] == 0 and _on_segment(p, q, s)
                        or o3[i] == 0 and _on_segment(r, s, p)
                        or o4[i] == 0 and _on_segment(r, s, q))
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
    comparisons a static bound from the caller decides first.

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

    __slots__ = ("blocks", "keys", "home", "pts", "nxt", "forward", "bound")

    def __init__(self, pts: Sequence[Point], nxt: list[int], forward: list[bool],
                 bound: float):
        """An empty status for the edges of the vertices pts, edge e
        running forward from e to nxt[e] iff forward[e]; bound is
        exactmath.static_cross_bound of the largest mirror magnitude
        among pts and the points to be located (inf: no first stage)."""
        self.blocks: list[_Block] = []
        self.keys: list[int] = []
        self.home: list[_Block | None] = [None] * len(nxt)
        self.pts, self.nxt, self.forward, self.bound = pts, nxt, forward, bound

    def locate(self, p: Point) -> tuple[int, int, bool]:
        """(b, i, on): the position of the first edge that p does not lie
        strictly left of, or the end, and whether p lies on that edge.

        In a status in order, that edge is the first through p when p
        lies on any edge. The search compares the edge at the position
        whatever the block layout, so on costs no predicate of its own.

        Each comparison is a three-stage filter (Devillers and Pion 2003;
        Shewchuk 1997): the float determinant of orient_sign's filter
        decides when it clears the status's static bound, then
        orient_sign decides, by its own filter or the integers.
        """
        pts, nxt, forward, bound = self.pts, self.nxt, self.forward, self.bound
        px, py = p.xf, p.yf
        on = []

        def rel(t: int) -> int:
            """Side of edge t, directed in event order, relative to p: -1
            if p lies strictly left of t. The sign is exact, so a swap of
            t's ends negates it."""
            a, b = pts[t], pts[nxt[t]]
            # cross_filter's det, term for term, so its bound covers it; NaN falls through
            det = (a.xf - px) * (b.yf - py) - (a.yf - py) * (b.xf - px)
            if det > bound:
                o = 1
            elif det < -bound:
                o = -1
            else:
                o = orient_sign(a, b, p)
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


def _validate_rings(rings: list[list[Point]], xs: list[np.ndarray], ys: list[np.ndarray],
                    signs: list[np.ndarray], bound: float) -> None:
    """Reject any contact between edges of the rings other than the
    vertex two ring-consecutive edges share, and any hole (rings[1:])
    outside the outer ring (rings[0]) or inside another hole. xs, ys and
    signs are each ring's float mirrors and exact corner signs; bound is
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
        _sweep(rings, xs, ys, signs, bound)
    except HolePlacementError:
        for ring in zip(rings, xs, ys, signs):  # one ring alone: raises only SelfIntersectionError
            _sweep(*([part] for part in ring), bound)
        raise


_LOST_ORDER = "sweep status lost the order of its edges"


def _failed_check(touches: list[int], sides: list[int], pts: list[Point], xs: np.ndarray,
                  ys: np.ndarray) -> tuple[int, int, bool] | None:
    """The first check of the validation sweep that fails, or None.

    touches holds four vertex indices per contact check, (e, nxt[e], f,
    nxt[f]): edges e and f must not touch. sides holds seven integers
    per order check, (lo[t], hi[t], v, side, e, t, c): vertex v, where
    edge e ended, must lie strictly on side `side` (+1 left, -1 right)
    of edge t, directed from lo[t] to hi[t]; c contact checks came
    before it. Every check is a lane of one orient_lanes call. A failed
    check is returned as (e, f, touch): touch is True if edges e and f
    share a point (a vertex of e on t counts), and False if v lies
    strictly on the wrong side of t.
    """
    if not touches and not sides:
        return None
    quads = np.array(touches, dtype=np.intp).reshape(-1, 4).T
    rows = np.array(sides, dtype=np.intp).reshape(-1, 7).T
    m = quads.shape[1]
    o = orient_lanes(pts, xs, ys, np.concatenate((_contact_lanes(quads), rows[:3]), axis=1))
    touch = np.flatnonzero(_touching(pts, o[:4 * m].reshape(4, m), quads))
    wrong = np.flatnonzero(o[4 * m:] != rows[3])
    if len(wrong) and (not len(touch) or rows[6, wrong[0]] <= touch[0]):
        j = wrong[0]
        return int(rows[4, j]), int(rows[5, j]), bool(o[4 * m + j] == 0)
    if len(touch):
        return int(quads[0, touch[0]]), int(quads[2, touch[0]]), True
    return None


def _sweep(rings: list[list[Point]], xs: list[np.ndarray], ys: list[np.ndarray],
           signs: list[np.ndarray], bound: float) -> None:
    pts = [p for ring in rings for p in ring]
    n = len(pts)
    ring_of: list[int] = []
    first: list[int] = []
    nxt = list(range(1, n + 1))
    base = 0
    for r, ring in enumerate(rings):
        first.append(base)
        ring_of.extend([r] * len(ring))
        base += len(ring)
        nxt[base - 1] = first[r]
    prv = [0] * n
    for e in range(n):
        prv[nxt[e]] = e
    xf, yf = np.concatenate(xs), np.concatenate(ys)
    turn = np.concatenate(signs).tolist()

    # exact lexicographic order, equal points by index; x mirrors decide unless they tie
    events, repeat = filtered_order(xf, np.zeros(n), partial(integer_lanes, pts), _lex_cmp)
    # edge e runs from vertex e to nxt[e]; lo/hi are its first/last endpoints
    # in event order. The interior lies left of every edge, so above an
    # edge that runs forward in event order, and the status runs upward.
    forward = _forward(events, nxt)
    events = events.tolist()
    repeat = repeat.tolist()
    lo = [e if forward[e] else nxt[e] for e in range(n)]
    hi = [nxt[e] if forward[e] else e for e in range(n)]
    status = _Status(pts, nxt, forward, bound)

    def fault(e: int, f: int) -> PolygonError:
        re, rf = ring_of[e], ring_of[f]
        if re == rf:
            i, j = sorted((e - first[re], f - first[re]))
            return SelfIntersectionError(
                f"edges {i} and {j} of a ring intersect near {rings[re][i]!r}")
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
        seen = [False] * len(rings)
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
                b, i, on = status.locate(pts[v])
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
    failed = _failed_check(touches, sides, pts, xf, yf)
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

    Construction makes one filtered pass over each ring for the exact
    sign of every corner. A zero sign (a duplicate, straight-through or
    slit corner) sends the ring through the exact merge loop, which drops
    the first two kinds and rejects the third; the sign at the
    lexicographically least vertex gives the orientation; the negative
    signs are the reflex vertices. The rings are then validated with one
    exact sweep (_validate_rings): SelfIntersectionError when two edges
    of one ring share a point other than the vertex between consecutive
    edges, HolePlacementError when rings touch or a hole lies outside the
    outer ring or inside another hole. Construction also takes the
    static bound of point location over all of P's mirrors
    (exactmath.static_cross_bound), which validation and every Reeb sweep
    of P share. validate=False skips the validation sweep;
    it exists for generators that certify simplicity structurally. Such
    rings are still merged and oriented, but their simplicity and
    nesting are trusted: on a ring that is not simple the orientation,
    and with it the reflex mask, means nothing.
    """

    __slots__ = ("outer", "holes", "n", "h", "_pts", "_prev", "_next", "_coords",
                 "_bound", "_reflex", "_cones")

    def __init__(self, outer, holes: Iterable = (), *, validate: bool = True):
        rings, xs, ys, signs = [], [], [], []
        for r, ring in enumerate(itertools.chain([outer], holes)):
            pts, x, y, s = _normalize_ring(_coerce_points(ring), -1 if r else 1)
            rings.append(pts)
            xs.append(x)
            ys.append(y)
            signs.append(s)
        coords = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
        # the first stage of every point location in P, validation's and the Reeb sweep's
        bound = static_cross_bound(float(np.abs(coords).max()))
        if validate:
            _validate_rings(rings, xs, ys, signs, bound)

        self.outer = Ring(rings[0])
        self.holes = tuple(Ring(r) for r in rings[1:])
        self._pts = [p for pts in rings for p in pts]
        self.n = len(self._pts)
        self.h = len(rings) - 1
        sizes = [len(pts) for pts in rings]
        ends = np.cumsum(sizes)
        starts = ends - sizes
        self._next = np.arange(1, self.n + 1)
        self._next[ends - 1] = starts
        self._prev = np.arange(-1, self.n - 1)
        self._prev[starts] = ends - 1
        self._coords = coords
        self._bound = bound
        self._reflex = np.concatenate(signs) < 0
        self._cones = {}

    # -- vertex addressing ------------------------------------------------

    def _index(self, i: int) -> int:
        """i itself, a global vertex index; IndexError outside 0 .. n-1."""
        if not 0 <= i < self.n:
            raise IndexError(f"vertex index {i} out of range for {self.n} vertices")
        return i

    def vertex(self, i: int) -> Point:
        """Point at global vertex index i."""
        return self._pts[self._index(i)]

    def neighbors(self, i: int) -> tuple[int, int]:
        """Global indices of the ring-previous and ring-next vertices."""
        i = self._index(i)
        return int(self._prev[i]), int(self._next[i])

    @property
    def rings(self) -> tuple[Ring, ...]:
        return (self.outer,) + self.holes

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the float mirrors."""
        xs = self._coords[:, 0]
        ys = self._coords[:, 1]
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())

    # -- reflex machinery --------------------------------------------------

    def reflex_indices(self) -> tuple[int, ...]:
        """Sorted global indices of reflex vertices."""
        return tuple(int(i) for i in np.flatnonzero(self._reflex))

    def cone(self, i: int) -> DoubleCone:
        """DoubleCone at reflex vertex i (cached)."""
        c = self._cones.get(self._index(i))
        if c is None:
            if not self._reflex[i]:
                raise NonReflexVertexError(f"vertex {i} at {self._pts[i]!r} is not reflex")
            c = DoubleCone(self._pts[i],
                           self._pts[int(self._prev[i])],
                           self._pts[int(self._next[i])])
            self._cones[i] = c
        return c

    def __repr__(self):
        return f"Polygon(n={self.n}, h={self.h})"


# -- file format ----------------------------------------------------------


def _reject_constant(token: str):
    raise PolygonParseError(f"non-finite number {token!r} in polygon document")


def load_polygon(source) -> Polygon:
    """Parse and validate a polygon document.

    Accepts bytes, str, or a readable file object. Numbers are parsed
    exactly; NaN and infinities are rejected.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source, parse_float=decimal.Decimal, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise PolygonParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolygonParseError("top level must be an object")
    unknown = set(doc) - {"outer", "holes"}
    if unknown:
        raise PolygonParseError(f"unknown keys {sorted(unknown)}")
    if "outer" not in doc:
        raise PolygonParseError('missing required key "outer"')
    outer = _parse_ring_spec(doc["outer"], "outer")
    holes_spec = doc.get("holes", [])
    if not isinstance(holes_spec, list):
        raise PolygonParseError('"holes" must be a list of rings')
    holes = [_parse_ring_spec(r, f"holes[{i}]") for i, r in enumerate(holes_spec)]
    return Polygon(outer, holes)


def _parse_ring_spec(spec, label: str) -> list[Point]:
    if not isinstance(spec, list) or len(spec) < 3:
        raise PolygonParseError(f"{label} must be a list of at least 3 coordinate pairs")
    pts = []
    for item in spec:
        if not isinstance(item, list) or len(item) != 2:
            raise PolygonParseError(f"{label} contains a non-pair entry {item!r}")
        pts.append(Point(item[0], item[1]))
    return pts


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
    """Serialize to the polygon file format, exactly and deterministically."""
    forms: dict = {}

    def ring_text(ring: Ring) -> str:
        return "[" + ",".join(
            f"[{_coordinate_text(p.X, p.D, forms)},{_coordinate_text(p.Y, p.D, forms)}]"
            for p in ring.vertices
        ) + "]"

    holes_text = ",".join(ring_text(g) for g in P.holes)
    return '{"outer":' + ring_text(P.outer) + ',"holes":[' + holes_text + "]}\n"
