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
heights refine only where float heights cannot decide it. It reads
vertices by index from the polygon's vertex table and mirrors and makes
no Point, and it makes no per-node object: a graph is three flat integer
columns, a leaf flag and a vertex index per node and the two node ids of
each edge. ReebGraph.nodes makes a ReebNode, which works its witness
Point and exact Fraction height out from its vertex index, only on
access; the oracle reads the leaf count alone, and the export writes
from the columns and the table, rounding each height once from integers.

Many directions of one polygon, the oracle's interval representatives,
are swept as a batch (_reeb_graphs): their float heights are one
dot_filter call and one row-wise stable sort per block of directions,
sized so that its float temporaries stay small, and only a row whose
floats leave a chain goes through filtered_order on its own. Every lane
keeps its error bound and its exact fallback, so each order is the exact
one. reeb_graph, is_generic and branch_witnesses are the batch of one
direction.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exactmath
from .exactmath import chain_cuts, dot_filter, filtered_order, integer_lanes
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
    """A contracted critical level component.

    It holds its vertex's index and its polygon, not a Point: its
    witness and height are worked out on access, from P's vertex table.
    """

    kind: str               # "leaf" or "branch"
    vertex: int             # global index of the polygon vertex in the component
    direction: Direction    # the sweep direction v
    _polygon: Polygon = field(compare=False, repr=False)

    @property
    def witness(self) -> Point:
        """The polygon vertex in the contracted component, made on each access."""
        return self._polygon.vertex(self.vertex)

    @property
    def height(self) -> Fraction:
        """Exact <v, witness>, worked out on each access."""
        a, b, m = self.direction._ints
        X, Y, D = self._polygon._ints[:, self.vertex].tolist()
        return Fraction(a * X + b * Y, m * D)


@dataclass(frozen=True)
class ReebGraph:
    """Immutable Reeb graph with summary counts.

    Edges are (lower node id, upper node id) pairs and form a multiset:
    a polygon with holes can have two arcs between the same node pair.
    The graph is held as columns: a leaf flag and a vertex index per
    node, and the two node ids of each edge in turn. nodes and edges
    make each item on access, and their lens build none. Two graphs
    are equal when their nodes' kinds, vertices and direction, their
    edges and their counts are.
    """

    direction: Direction
    _leaf: bytearray = field(repr=False, hash=False)
    _vertex: array = field(repr=False, hash=False)
    _edges: array = field(repr=False, hash=False)
    l: int
    b: int
    h: int
    _polygon: Polygon = field(compare=False, repr=False)

    @property
    def nodes(self) -> Sequence[ReebNode]:
        """The nodes in id order, each ReebNode made on access."""
        return _View(len(self._vertex), lambda k: ReebNode(
            "leaf" if self._leaf[k] else "branch", self._vertex[k], self.direction, self._polygon))

    @property
    def edges(self) -> Sequence[tuple[int, int]]:
        """The (lower node id, upper node id) pairs in order, made on access."""
        return _View(len(self._edges) // 2, lambda k: (self._edges[2 * k], self._edges[2 * k + 1]))

    @property
    def cycle_rank(self) -> int:
        """|E| - |V| + 1 of the (connected) graph; equals h."""
        return len(self._edges) // 2 - len(self._vertex) + 1


class _View(Sequence):
    """n items, item(k) made on each access; equal to any sequence of equal items."""

    def __init__(self, n: int, item):
        self._n = n
        self._item = item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        ks = range(self._n)[i]
        return tuple(map(self._item, ks)) if isinstance(ks, range) else self._item(ks)

    def __eq__(self, other):
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


def _height_orders(P: Polygon, directions: Sequence[Direction]) -> Iterator[np.ndarray]:
    """Global vertex indices sorted by exact height under each direction,
    as the rows of arrays, one array per block of directions in turn.

    A block holds max(1, exactmath._LANE_BLOCK // n) directions, so its
    float temporaries stay small, and they are gone before its orders
    are yielded (_block_orders). The lowest exact tie under a direction
    raises NonGenericDirectionError in that direction's turn: the rows
    of every direction before it are yielded first.
    """
    rows = max(1, exactmath._LANE_BLOCK // len(P._coords))
    for start in range(0, len(directions), rows):
        orders, tie = _block_orders(P, directions[start:start + rows])
        if len(orders):
            yield orders
        if tie is not None:
            raise tie


def _block_orders(P: Polygon, block: Sequence[Direction]) \
        -> tuple[np.ndarray, NonGenericDirectionError | None]:
    """The exact height orders, as rows, of the directions of block up to
    the first one that ties two heights, and that one's error, or None.

    Float heights order almost everything: one dot_filter call gives
    every lane of the block its height and bound, one stable sort orders
    each row, and exactmath.chain_cuts, taken along the rows, finds the
    rows whose floats leave a chain. Each such row goes through
    filtered_order itself, whose exact ties are resolved on the
    integer pair (a, b) of its direction, a positive multiple of it:
    vertex (X / D, Y / D) has height (aX + bY) / D, the tied lanes'
    pairs (aX + bY, D) are gathered at once, and two heights compare by
    cross multiplication.
    """
    fdx = np.array([v.fdx for v in block])
    fdy = np.array([v.fdy for v in block])
    # a power of two at most 1 brings v below 1/8, so nothing overflows; one
    # above 1 would magnify the error of a component that underflowed
    scale = np.ldexp(1.0, -np.maximum(0, np.frexp(np.maximum(abs(fdx), abs(fdy)))[1] + 3))
    hts, err = dot_filter(P._coords[:, 0], P._coords[:, 1],
                          (fdx * scale)[:, None], (fdy * scale)[:, None])
    orders = np.argsort(hts, axis=1, kind="stable")
    cut = chain_cuts(np.take_along_axis(hts, orders, 1), np.take_along_axis(err, orders, 1))
    for j in np.flatnonzero(~cut.all(axis=1)).tolist():
        a, b = block[j]._pair

        def heights(lanes: np.ndarray) -> np.ndarray:
            X, Y, D = integer_lanes(P._ints, lanes)
            return np.array((a * X + b * Y, D))

        order, tie = filtered_order(hts[j], err[j], heights,
                                    lambda g, h: g[0] * h[1] - h[0] * g[1])
        if tie.any():
            t = int(np.argmax(tie))
            return orders[:j], NonGenericDirectionError(block[j], int(order[t - 1]), int(order[t]))
        orders[j] = order
    return orders, None


def _height_order(P: Polygon, v: Direction) -> np.ndarray:
    """Global vertex indices sorted by exact height under v; the lowest
    exact tie raises NonGenericDirectionError (_height_orders)."""
    return next(_height_orders(P, [v]))[0]


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


def _reeb_graphs(P: Polygon, directions: Sequence[Direction]) -> Iterator[ReebGraph]:
    """The Reeb graph of f_v over P for each v of directions, in turn; a
    v that is not generic raises NonGenericDirectionError in its turn.

    The height orders come a block of directions at a time
    (_height_orders), and P's arrays, its mirrors among them, become
    lists once: the sweep reads vertices by index and makes no Point.
    Each graph is one pass over the vertices in height order. The status holds the
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
    reflex = P._reflex.tolist()
    prev = P._prev.tolist()
    nxt = P._next.tolist()
    xs, ys = P._coords.T.tolist()
    n = P.n
    done = 0
    for orders in _height_orders(P, directions):
        forwards = _forward(orders, P._next)  # edge e runs up the ring: a right edge
        for order, forward in zip(orders, forwards):
            v = directions[done]
            done += 1
            leaf = bytearray()  # per node: 1 for a leaf, 0 for a branch
            vertex = array("q")  # per node: its vertex
            edges = array("q")  # per edge: its lower node id, then its upper one
            status = _Status(P._ints, xs, ys, nxt, forward, P._bound)
            arc = [0] * n  # for a left edge: the node at the bottom of its interval's arc

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
                    b, i, on = status.locate(gid)
                    if on:
                        raise RuntimeError("event vertex lies on an active edge")
                    left = status.at(b, i)
                    inside = left is not None and not forward[left]
                    if not reflex[gid]:
                        if inside:
                            raise RuntimeError("opening vertex inside an existing interval")
                        arc[pr] = len(vertex)
                        leaf.append(1)
                        vertex.append(gid)
                        status.insert(b, i, [gid, pr])
                    else:
                        if not inside:
                            raise RuntimeError("splitting vertex outside every interval")
                        nid = len(vertex)
                        leaf.append(0)
                        vertex.append(gid)
                        edges.extend((arc[left], nid))
                        status.insert(b, i, [pr, gid])
                        arc[left] = arc[pr] = nid
                elif not reflex[gid]:
                    # local maximum closing an interval: gid its left and pr its right edge
                    b, i = status.place(pr)
                    if status.at(b, i + 1) != gid:
                        raise RuntimeError("closing edges span two intervals")
                    edges.extend((arc[gid], len(vertex)))
                    leaf.append(1)
                    vertex.append(gid)
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
                    nid = len(vertex)
                    leaf.append(0)
                    vertex.append(gid)
                    edges.extend((arc[left], nid, arc[gid], nid))
                    arc[left] = nid

            if status.blocks:
                raise RuntimeError("sweep ended with open intervals")
            l = leaf.count(1)
            yield ReebGraph(v, leaf, vertex, edges, l, len(leaf) - l, P.h, P)


def reeb_graph(P: Polygon, v: Direction) -> ReebGraph:
    """Reeb graph of f_v over P; v must be generic (_reeb_graphs)."""
    return next(_reeb_graphs(P, [v]))


def reeb_to_dict(g: ReebGraph) -> dict:
    """JSON-ready export: nodes (kind, height, witness), edges, counts.

    Written from the graph's columns and its polygon's vertex table, one
    gather at the vertex column per exactmath._LANE_BLOCK nodes, so that
    its lists of fresh Python ints and floats stay small; no ReebNode is
    made. A height (a X + b Y) / (m D), for v = (a, b) / m and the
    witness (X, Y) / D, is written as one integer quotient: int/int true
    division rounds correctly, as float(Fraction) does. A height beyond
    the float range is written exactly, as "p/q" text. The witness is its
    mirrors.
    """
    nodes = []
    P = g._polygon
    a, b, m = g.direction._ints
    for start in range(0, len(g._vertex), exactmath._LANE_BLOCK):
        idx = g._vertex[start:start + exactmath._LANE_BLOCK]
        for leaf, X, Y, D, xf, yf in zip(g._leaf[start:start + exactmath._LANE_BLOCK],
                                         *P._ints[:, idx].tolist(), *P._coords[idx].T.tolist()):
            try:
                height = (a * X + b * Y) / (m * D)
            except OverflowError:
                height = str(Fraction(a * X + b * Y, m * D))
            nodes.append({"kind": "leaf" if leaf else "branch", "height": height, "witness": [xf, yf]})
    return {
        "nodes": nodes,
        "edges": np.asarray(g._edges).reshape(-1, 2).tolist(),
        "l": g.l,
        "b": g.b,
        "h": g.h,
    }
