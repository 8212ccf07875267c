"""Reeb graphs of directional sweeps over polygons with holes.

For a direction v the height function f_v(x) = <v, x> sweeps a line
orthogonal to v across the polygon. The Reeb graph contracts every
connected component of every level set to a point: local minimum and
maximum vertices become leaves, reflex vertices whose cone does not
contain v become degree-3 branch nodes, and everything else is regular
and contracts into an edge.

Construction refuses non-generic directions (two vertices at equal
height) instead of perturbing. The complexity witness is generic by
construction: complexity._generic_witness perturbs exactly, inside the
open arc it must stay in, when its first direction ties two heights.

The sweep keeps the active edges in the sweep status of validation
(geometry._Status), in validation's order and frame: the height order
is the event order, each edge is directed up, and the status runs from
right to left looking along v. Edges are found and removed by handle;
only a local minimum is located, by _Status.locate. Each edge bounds
its level-set interval on one side for its whole life, fixed by whether
it runs up or down the ring, so an interval needs no object of its own.
The sweep needs only the order of the heights, which exact integer
heights refine only where float heights cannot decide it; a node works
its exact Fraction height out on access, and the export rounds it once
from integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmath import dot_filter, filtered_order, integer_lanes
from .geometry import Direction, Point, Polygon, _forward, _Status

__all__ = [
    "NonGenericDirectionError",
    "ReebNode",
    "ReebGraph",
    "reeb_graph",
    "is_generic",
    "branch_witnesses",
    "reeb_to_dict",
]


class NonGenericDirectionError(ValueError):
    """Two vertices of P have equal height under v.

    Carries the direction and one offending global vertex index pair.
    """

    def __init__(self, v: Direction, first: int, second: int):
        self.direction = v
        self.first = first
        self.second = second
        super().__init__(
            f"direction ({v.dx}, {v.dy}) is not generic: "
            f"vertices {first} and {second} have equal height")


@dataclass(frozen=True)
class ReebNode:
    """A contracted critical level component."""

    kind: str               # "leaf" or "branch"
    witness: Point          # the polygon vertex in the contracted component
    vertex: int             # global index of that vertex
    direction: Direction    # the sweep direction v

    @property
    def height(self) -> Fraction:
        """Exact <v, witness>, worked out on each access."""
        a, b, m = self.direction._ints
        w = self.witness
        return Fraction(a * w.X + b * w.Y, m * w.D)


@dataclass(frozen=True)
class ReebGraph:
    """Immutable Reeb graph with summary counts.

    Edges are (lower node id, upper node id) pairs and form a multiset:
    a polygon with holes can have two arcs between the same node pair.
    """

    nodes: tuple[ReebNode, ...]
    edges: tuple[tuple[int, int], ...]
    l: int
    b: int
    h: int

    @property
    def cycle_rank(self) -> int:
        """|E| - |V| + 1 of the (connected) graph; equals h."""
        return len(self.edges) - len(self.nodes) + 1


def _height_order(P: Polygon, v: Direction) -> np.ndarray:
    """Global vertex indices sorted by exact height under v.

    Float heights order almost everything (exactmath.filtered_order);
    exact ties are resolved on the integer pair (a, b) of v, a positive
    multiple of it: vertex (X / D, Y / D) has height (aX + bY) / D, the
    tied lanes' pairs (aX + bY, D) are gathered at once, and two heights
    compare by cross multiplication. The lowest exact tie raises
    NonGenericDirectionError.
    """
    # a power of two at most 1 brings v below 1/8, so nothing overflows; one
    # above 1 would magnify the error of a component that underflowed
    scale = 2.0 ** -max(0, math.frexp(max(abs(v.fdx), abs(v.fdy)))[1] + 3)
    hts, err = dot_filter(P._coords[:, 0], P._coords[:, 1], v.fdx * scale, v.fdy * scale)
    a, b = v._pair

    def heights(lanes: np.ndarray) -> np.ndarray:
        X, Y, D = integer_lanes(P._pts, lanes)
        return np.array((a * X + b * Y, D))

    order, tie = filtered_order(hts, err, heights, lambda g, h: g[0] * h[1] - h[0] * g[1])
    if tie.any():
        t = int(np.argmax(tie))
        raise NonGenericDirectionError(v, int(order[t - 1]), int(order[t]))
    return order


def is_generic(P: Polygon, v: Direction) -> bool:
    """True iff all vertex heights under v are pairwise distinct (exact)."""
    try:
        _height_order(P, v)
    except NonGenericDirectionError:
        return False
    return True


def branch_witnesses(P: Polygon, v: Direction) -> frozenset[int]:
    """Reflex vertices not eliminated by v: the branch nodes' witnesses.

    Computed from the cones alone, independently of the sweep, so the two
    routes can cross-check each other.
    """
    _height_order(P, v)
    return frozenset(i for i in P.reflex_indices() if not P.cone(i).contains(v))


def reeb_graph(P: Polygon, v: Direction) -> ReebGraph:
    """Reeb graph of f_v over P; v must be generic.

    One pass over the vertices in height order. The status holds the
    active edges, those crossing the level line, in validation's order:
    each edge directed up, the status runs from right to left looking
    along v (geometry._Status); edge i runs from vertex i to its ring
    successor. The interior lies left of every ring edge, so an edge
    running down the ring bounds its interval on the left and one
    running up bounds it on the right, for the edge's whole life, and
    right and left edges alternate in the status. Only a local minimum
    is located (_Status.locate, its comparisons first decided by P's
    static bound, taken once per Polygon, so repeated sweeps of one
    polygon share it), and the edge just left of it, the one at its
    place, tells inside from outside. Every other event finds its
    edges by handle: a regular vertex puts its born edge in its dying
    edge's place, a leaf closes two adjacent edges, and a merge removes
    the left edge of one interval and the right edge of the next. The
    node at the bottom of an interval's current arc is kept with the
    interval's left edge.
    """
    order = _height_order(P, v)
    forward = _forward(order, P._next)  # edge e runs up the ring: a right edge
    reflex = P._reflex.tolist()
    prev = P._prev.tolist()
    nxt = P._next.tolist()
    pts = P._pts

    nodes: list[ReebNode] = []
    edges: list[tuple[int, int]] = []
    status = _Status(pts, nxt, forward, P._bound)
    arc = [0] * P.n  # for a left edge: the node at the bottom of its interval's arc

    for gid in order.tolist():
        pr = prev[gid]
        # edge pr runs from prev to gid, edge gid from gid to next
        up_in, up_out = forward[pr], forward[gid]

        if up_in == up_out:
            # regular: one edge dies, the other takes its place and its side
            dying, born = (pr, gid) if up_out else (gid, pr)
            status.replace(dying, born)
            arc[born] = arc[dying]
        elif up_out:
            # local minimum: both edges are born here, pr a left and gid a right edge
            pt = pts[gid]
            b, i, on = status.locate(pt)
            if on:
                raise RuntimeError("event vertex lies on an active edge")
            left = status.at(b, i)
            inside = left is not None and not forward[left]
            if not reflex[gid]:
                if inside:
                    raise RuntimeError("opening vertex inside an existing interval")
                nodes.append(ReebNode("leaf", pt, gid, v))
                status.insert(b, i, [gid, pr])
                arc[pr] = len(nodes) - 1
            else:
                if not inside:
                    raise RuntimeError("splitting vertex outside every interval")
                nodes.append(ReebNode("branch", pt, gid, v))
                nid = len(nodes) - 1
                edges.append((arc[left], nid))
                status.insert(b, i, [pr, gid])
                arc[left] = arc[pr] = nid
        elif not reflex[gid]:
            # local maximum closing an interval: gid its left and pr its right edge
            b, i = status.place(pr)
            if status.at(b, i + 1) != gid:
                raise RuntimeError("closing edges span two intervals")
            nodes.append(ReebNode("leaf", pts[gid], gid, v))
            edges.append((arc[gid], len(nodes) - 1))
            status.pop(*status.pop(b, i))
        else:
            # local maximum merging two intervals: gid the left edge of the
            # right one and pr the right edge of the left one
            b, i = status.place(gid)
            if status.at(b, i + 1) != pr:
                b, i = status.place(pr)
                if status.at(b, i + 1) == gid:
                    raise RuntimeError("merging vertex closes a single interval")
                raise RuntimeError("merging intervals are not adjacent")
            left = status.at(*status.pop(*status.pop(b, i)))
            nodes.append(ReebNode("branch", pts[gid], gid, v))
            nid = len(nodes) - 1
            edges.append((arc[left], nid))
            edges.append((arc[gid], nid))
            arc[left] = nid

    if status.blocks:
        raise RuntimeError("sweep ended with open intervals")
    l = sum(1 for nd in nodes if nd.kind == "leaf")
    b = len(nodes) - l
    return ReebGraph(tuple(nodes), tuple(edges), l, b, P.h)


def reeb_to_dict(g: ReebGraph) -> dict:
    """JSON-ready export: nodes (kind, height, witness), edges, counts.

    A height (a X + b Y) / (m D), for v = (a, b) / m and the witness
    (X, Y) / D, is written as one integer quotient: int/int true division
    rounds correctly, as float(Fraction) does. A height beyond the float
    range is written exactly, as "p/q" text.
    """
    nodes = []
    for nd in g.nodes:
        a, b, m = nd.direction._ints
        w = nd.witness
        try:
            height = (a * w.X + b * w.Y) / (m * w.D)
        except OverflowError:
            height = str(nd.height)
        nodes.append({"kind": nd.kind, "height": height, "witness": [w.xf, w.yf]})
    return {
        "nodes": nodes,
        "edges": [[a, b] for a, b in g.edges],
        "l": g.l,
        "b": g.b,
        "h": g.h,
    }
