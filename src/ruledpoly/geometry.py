"""Polygons with holes over exact rational coordinates.

Coordinates are Fractions and every geometric decision is made from
exact signs; float mirrors of all coordinates are kept alongside for
numpy fast paths and filtered scalar predicates (see exactmath). Each
ring's corner signs are computed once, at construction, and give its
merging, its orientation and its reflex vertices.

The polygon file format is a UTF-8 JSON document

    {"outer": [[x, y], ...], "holes": [[[x, y], ...], ...]}

with numbers given as decimal literals, or as strings holding a decimal
literal or a fraction "p/q". Both parse to exact Fractions. Emission
writes a decimal number when the coordinate has a terminating decimal
expansion and a "p/q" string otherwise, so every dump -> load cycle is
exact and a generate -> load -> emit cycle is byte identical.

Vertices are addressed by a single global index (the outer ring first,
then each hole in order); edge i joins vertex i to the next vertex of
the same ring.

Validation is one exact Shamos-Hoey sweep over the edges of all rings,
O(n log n) predicate calls in total: two edges may share only the
vertex between them on one ring, and every hole must lie inside the
outer ring and outside every other hole.
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exactmath import (
    corner_cross,
    exact_cross,
    exact_dot,
    filtered_sign_array,
    float_direction,
    orient_sign,
    sign,
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
    "is_reflex",
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


def as_fraction(value) -> Fraction:
    """Coerce a coordinate-like value to an exact Fraction.

    Accepts int, Fraction, Decimal, finite float (converted exactly from
    its binary value), and strings: decimal literals or "p/q".
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise PolygonParseError(f"non-finite coordinate {value!r}")
        return Fraction(value)
    if isinstance(value, decimal.Decimal):
        if not value.is_finite():
            raise PolygonParseError(f"non-finite coordinate {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise PolygonParseError(f"bad coordinate literal {value!r}") from exc
    raise PolygonParseError(f"unsupported coordinate type {type(value).__name__}")


class Point:
    """Exact planar point with float mirrors for filtered predicates."""

    __slots__ = ("x", "y", "xf", "yf")

    def __init__(self, x, y):
        self.x = as_fraction(x)
        self.y = as_fraction(y)
        try:
            self.xf = float(self.x)
            self.yf = float(self.y)
        except OverflowError as exc:
            raise PolygonParseError("coordinate beyond the float range (about 1.8e308)") from exc

    def __eq__(self, other):
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


class Direction:
    """A sweep direction modulo 180 degrees.

    (dx, dy) and (-dx, -dy) name the same Direction; the canonical
    representative has dy > 0, or dy == 0 and dx > 0. Equality and
    ordering are decided by exact cross product signs; the float angle
    is only a sort key that exact comparisons refine.
    """

    __slots__ = ("dx", "dy", "fdx", "fdy", "_pair")

    def __init__(self, dx, dy):
        dx = as_fraction(dx)
        dy = as_fraction(dy)
        if not dx and not dy:
            raise ValueError("the zero vector has no direction")
        if dy < 0 or (dy == 0 and dx < 0):
            dx, dy = -dx, -dy
        self.dx = dx
        self.dy = dy
        self.fdx, self.fdy = float_direction(dx, dy)  # a positive multiple of (dx, dy)
        self._pair = None

    def canonical_pair(self) -> tuple[int, int]:
        """Coprime integer representative of the direction; hash/equality key."""
        if self._pair is None:
            m = math.lcm(self.dx.denominator, self.dy.denominator)
            a = int(self.dx * m)
            b = int(self.dy * m)
            g = math.gcd(a, b)
            self._pair = (a // g, b // g)
        return self._pair

    def __eq__(self, other):
        return isinstance(other, Direction) and self.canonical_pair() == other.canonical_pair()

    def __hash__(self):
        return hash(self.canonical_pair())

    def __repr__(self):
        return f"Direction({self.dx}, {self.dy})"


class DoubleCone:
    """The closed double cone of directions eliminating one reflex vertex.

    Membership test: v lies in the cone iff <v, d1> * <v, d2> <= 0 where
    d1, d2 point from the apex to its two ring neighbors. Under such v
    both incident edges fall on one side of the ruling line through the
    apex, so the level set does not branch there; the set is closed and
    symmetric under v -> -v.

    Swept counterclockwise (mod 180 degrees) the cone is entered at
    arc_start, the outward normal of the incoming edge, and left at
    arc_end, the outward normal of the outgoing edge.
    """

    __slots__ = ("apex", "arc_start", "arc_end", "_d1", "_d2")

    def __init__(self, apex: Point, prev_point: Point, next_point: Point):
        d1 = (prev_point.x - apex.x, prev_point.y - apex.y)
        d2 = (next_point.x - apex.x, next_point.y - apex.y)
        if exact_cross(d1[0], d1[1], d2[0], d2[1]) <= 0:
            raise NonReflexVertexError(f"vertex at {apex!r} is not reflex")
        self.apex = apex
        self._d1 = d1
        self._d2 = d2
        self.arc_start = Direction(d1[1], -d1[0])
        self.arc_end = Direction(d2[1], -d2[0])

    def contains(self, v: Direction) -> bool:
        """Exact closed containment test."""
        s1 = sign(exact_dot(v.dx, v.dy, self._d1[0], self._d1[1]))
        s2 = sign(exact_dot(v.dx, v.dy, self._d2[0], self._d2[1]))
        return s1 * s2 <= 0

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
    cr, err = corner_cross(np.roll(xs, 1), np.roll(ys, 1), xs, ys,
                           np.roll(xs, -1), np.roll(ys, -1))

    def exact_at(i: int) -> Fraction:
        a, p, b = pts[i - 1], pts[i], pts[(i + 1) % n]
        return exact_cross(p.x - a.x, p.y - a.y, b.x - p.x, b.y - p.y)

    return filtered_sign_array(cr, err, exact_at)


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
            d1x, d1y = p.x - prv.x, p.y - prv.y
            d2x, d2y = nxt.x - p.x, nxt.y - p.y
            cr = exact_cross(d1x, d1y, d2x, d2y)
            if cr == 0:
                if exact_dot(d1x, d1y, d2x, d2y) > 0:
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
    low = np.flatnonzero(xs == xs.min()).tolist()
    least = min(low, key=lambda i: (pts[i].x, pts[i].y))
    if signs[least] != want:
        return pts[::-1], xs[::-1], ys[::-1], -signs[::-1]
    return pts, xs, ys, signs


def _on_segment(a: Point, b: Point, c: Point) -> bool:
    """Whether c, known collinear with a-b, lies on the closed segment."""
    return (min(a.x, b.x) <= c.x <= max(a.x, b.x)
            and min(a.y, b.y) <= c.y <= max(a.y, b.y))


def _segments_touch(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd share at least one point. Exact."""
    o1 = orient_sign(a, b, c)
    o2 = orient_sign(a, b, d)
    o3 = orient_sign(c, d, a)
    o4 = orient_sign(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


_BLOCK = 64


class _Status:
    """Edges crossing the sweep line, bottom to top.

    Held as a list of short blocks (each at most 2 * _BLOCK long), so an
    insert or delete at a located position moves O(_BLOCK) entries and
    locating takes O(log n) comparisons. A position is a (block, offset)
    pair, offset at most the block's length; the end of the status is
    (last block, its length).
    """

    __slots__ = ("blocks",)

    def __init__(self):
        self.blocks: list[list[int]] = []

    def locate(self, rel) -> tuple[int, int]:
        """Position of the first edge t with rel(t) >= 0, or the end.

        rel(t) is the side of t relative to the sought place: negative
        below it, positive above it; it must not decrease upwards.
        """
        blocks = self.blocks
        b = bisect_left(blocks, 0, key=lambda blk: rel(blk[-1]))
        if b == len(blocks):
            return (b - 1, len(blocks[-1])) if blocks else (0, 0)
        return b, bisect_left(blocks[b], 0, 0, len(blocks[b]) - 1, key=rel)

    def below(self, b: int, i: int) -> int | None:
        """The edge just below position (b, i)."""
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
            if b == len(blocks):
                return (b - 1, len(blocks[-1])) if blocks else (0, 0)
            return b, 0
        if i == len(blk) and b + 1 < len(blocks):
            return b + 1, 0  # so that a second pop here deletes the next edge
        return b, i

    def insert(self, b: int, i: int, edges: list[int]) -> None:
        """Insert edges, in bottom-to-top order, at position (b, i)."""
        blocks = self.blocks
        if not blocks:
            blocks.append(list(edges))
            return
        blk = blocks[b]
        blk[i:i] = edges
        if len(blk) > 2 * _BLOCK:
            blocks[b:b + 1] = [blk[:_BLOCK], blk[_BLOCK:]]


def _validate_rings(rings: list[list[Point]]) -> None:
    """Reject any contact between edges of the rings other than the
    vertex two ring-consecutive edges share, and any hole (rings[1:])
    outside the outer ring (rings[0]) or inside another hole.

    One exact any-segment-intersection sweep over the edges of every
    ring (Shamos and Hoey 1976; de Berg et al., Computational Geometry,
    ch. 2) with O(n log n) predicate calls. Events are the vertices in
    exact lexicographic (x, y) order; the status holds the edges that
    cross the sweep line, ordered by exact orient_sign, and every pair
    of edges that becomes adjacent in it is tested with _segments_touch.
    The first contact found is reported. Hole placement comes from the
    same sweep: at a hole's leftmost vertex the edge just below decides
    whether that vertex lies in the interior of the rings swept so far.

    When several faults are present, a self-intersection is reported
    before any hole placement fault.
    """
    try:
        _sweep(rings)
    except HolePlacementError:
        for pts in rings:  # one ring alone: raises only SelfIntersectionError
            _sweep([pts])
        raise


def _sweep(rings: list[list[Point]]) -> None:
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

    # exact lexicographic order; the float mirrors decide unless they tie
    events = sorted(zip([p.xf for p in pts], [p.x for p in pts],
                        [p.yf for p in pts], [p.y for p in pts], range(n)))
    rank = [0] * n
    for k, ev in enumerate(events):
        rank[ev[4]] = k
    # edge e runs from vertex e to nxt[e]; lo/hi are its first/last endpoints
    # in event order. The interior lies left of every edge, so above an
    # edge that runs forward in event order.
    forward = [rank[e] < rank[nxt[e]] for e in range(n)]
    lo = [e if forward[e] else nxt[e] for e in range(n)]
    hi = [nxt[e] if forward[e] else e for e in range(n)]

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

    def check(e: int | None, f: int | None) -> None:
        """Raise if edges e and f, new neighbours in the status, touch."""
        if e is None or f is None or nxt[e] == f or nxt[f] == e:
            return
        if _segments_touch(pts[e], pts[nxt[e]], pts[f], pts[nxt[f]]):
            raise fault(e, f)

    status = _Status()
    seen = [False] * len(rings)
    last = None
    for ev in events:
        v = ev[4]
        if last is not None and ev[0] == last[0] and ev[2] == last[2] \
                and ev[1] == last[1] and ev[3] == last[3]:
            raise fault(v, last[4])  # a repeated point: both edges leaving it touch
        last = ev
        p = pts[v]
        e_in, e_out = prv[v], v

        if hi[e_in] == v or hi[e_out] == v:
            # remove the edges ending at v, lower first
            if hi[e_in] == v and hi[e_out] == v:
                s = orient_sign(pts[lo[e_in]], p, pts[lo[e_out]])
                ending = [e_in, e_out] if s > 0 else [e_out, e_in]
            else:
                ending = [e_in if hi[e_in] == v else e_out]
            probe = ending[0]
            probe_lo = pts[lo[probe]]

            def rel(t: int) -> int:
                """Side of t relative to the probe, an edge ending at v."""
                if t == probe:
                    return 0
                if hi[t] == v:  # the other edge ending at v
                    return -orient_sign(pts[lo[t]], p, probe_lo)
                o = orient_sign(pts[lo[t]], pts[hi[t]], p)
                if o == 0:  # v lies on t
                    raise fault(probe, t)
                return -o

            b, i = status.locate(rel)
            for e in ending:
                if status.at(b, i) != e:
                    raise RuntimeError("sweep status lost the order of its edges")
                b, i = status.pop(b, i)
        else:
            # a leftmost vertex: both edges start here; locate v itself
            def rel(t: int) -> int:
                """Side of t relative to v."""
                o = orient_sign(pts[lo[t]], pts[hi[t]], p)
                if o == 0:  # v lies on t
                    raise fault(e_out, t)
                return -o

            b, i = status.locate(rel)

        # (b, i) is v's place in the status. An edge through v would have
        # touched a neighbour of the edges ending at v already, so the
        # edges starting at v go into the gap those leave.
        below = status.below(b, i)
        above = status.at(b, i)
        if lo[e_in] == v and lo[e_out] == v:
            s = orient_sign(p, pts[hi[e_in]], pts[hi[e_out]])
            starting = [e_in, e_out] if s > 0 else [e_out, e_in]
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
    outer ring or inside another hole. validate=False skips that sweep;
    it exists for generators that certify simplicity structurally. Such
    rings are still merged and oriented, but their simplicity and
    nesting are trusted: on a ring that is not simple the orientation,
    and with it the reflex mask, means nothing.
    """

    __slots__ = ("outer", "holes", "n", "h", "_pts", "_prev", "_next", "_coords",
                 "_reflex", "_cones")

    def __init__(self, outer, holes: Iterable = (), *, validate: bool = True):
        rings, xs, ys, signs = [], [], [], []
        for r, ring in enumerate(itertools.chain([outer], holes)):
            pts, x, y, s = _normalize_ring(_coerce_points(ring), -1 if r else 1)
            rings.append(pts)
            xs.append(x)
            ys.append(y)
            signs.append(s)
        if validate:
            _validate_rings(rings)

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
        self._coords = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
        self._reflex = np.concatenate(signs) < 0
        self._cones = {}

    # -- vertex addressing ------------------------------------------------

    def vertex(self, i: int) -> Point:
        """Point at global vertex index i."""
        return self._pts[i]

    def neighbors(self, i: int) -> tuple[int, int]:
        """Global indices of the ring-previous and ring-next vertices."""
        if not 0 <= i < self.n:
            raise IndexError(i)
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
        c = self._cones.get(i)
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


def is_reflex(P: Polygon, i: int) -> bool:
    """Whether the interior angle at global vertex index i exceeds 180 degrees."""
    if not 0 <= i < P.n:
        raise IndexError(i)
    return bool(P._reflex[i])


# -- file format ----------------------------------------------------------


def _reject_constant(token: str):
    raise PolygonParseError(f"non-finite number {token!r} in polygon document")


def _number_hook(token: str) -> Fraction:
    return Fraction(decimal.Decimal(token))


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
        doc = json.loads(source, parse_float=_number_hook, parse_int=_number_hook,
                         parse_constant=_reject_constant)
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


def _format_coordinate(x: Fraction) -> str:
    """Exact JSON rendering: a decimal number when the denominator is
    2^a * 5^b, the string "p/q" otherwise."""
    den = x.denominator
    if den == 1:
        return str(x.numerator)
    d = den
    exp2 = 0
    while d % 2 == 0:
        d //= 2
        exp2 += 1
    exp5 = 0
    while d % 5 == 0:
        d //= 5
        exp5 += 1
    if d != 1:
        return f'"{x}"'
    exp = max(exp2, exp5)
    scaled = abs(x.numerator) * (10 ** exp) // den
    whole, frac = divmod(scaled, 10 ** exp)
    text = f"{whole}.{str(frac).rjust(exp, '0').rstrip('0')}"
    return "-" + text if x.numerator < 0 else text


def dump_polygon(P: Polygon) -> str:
    """Serialize to the polygon file format, exactly and deterministically."""

    def ring_text(ring: Ring) -> str:
        return "[" + ",".join(
            f"[{_format_coordinate(p.x)},{_format_coordinate(p.y)}]" for p in ring.vertices
        ) + "]"

    holes_text = ",".join(ring_text(g) for g in P.holes)
    return '{"outer":' + ring_text(P.outer) + ',"holes":[' + holes_text + "]}\n"
