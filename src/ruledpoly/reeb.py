"""Reeb graphs of directional sweeps over polygons with holes.

For a direction v the height function f_v(x) = <v, x> sweeps a line
orthogonal to v across the polygon. The Reeb graph contracts every
connected component of every level set to a point: local minimum and
maximum vertices become leaves, reflex vertices whose cone does not
contain v become degree-3 branch nodes, and everything else is regular
and contracts into an edge.

Construction refuses non-generic directions (two vertices at equal
height) instead of perturbing; callers that need a generic direction
near a degenerate one perturb on their side, where the admissible
angular interval is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmath import dot_filter, filtered_order, orient_sign
from .geometry import Direction, Point, Polygon

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

    kind: str           # "leaf" or "branch"
    height: Fraction    # exact <v, witness>
    witness: Point      # the polygon vertex in the contracted component
    vertex: int         # global index of that vertex


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


def _exact_height(P: Polygon, v: Direction, i: int) -> Fraction:
    p = P._pts[i]
    return v.dx * p.x + v.dy * p.y


def _height_order(P: Polygon, v: Direction) -> np.ndarray:
    """Global vertex indices sorted by exact height under v.

    Float heights order almost everything (exactmath.filtered_order);
    the lowest exact tie raises NonGenericDirectionError.
    """
    # a power of two at most 1 brings v below 1/8, so nothing overflows; one
    # above 1 would magnify the error of a component that underflowed
    scale = 2.0 ** -max(0, math.frexp(max(abs(v.fdx), abs(v.fdy)))[1] + 3)
    hts, err = dot_filter(P._coords[:, 0], P._coords[:, 1], v.fdx * scale, v.fdy * scale)
    order, tie = filtered_order(hts, err, lambda i: _exact_height(P, v, i),
                                lambda a, b: (a > b) - (a < b))
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


class _Component:
    """A level-set interval, bounded by the active edges left and right.

    arc_from is the Reeb node at the bottom of the arc this component is
    currently tracing.
    """

    __slots__ = ("left", "right", "arc_from")

    def __init__(self, left: int, right: int, arc_from: int):
        self.left = left
        self.right = right
        self.arc_from = arc_from


def reeb_graph(P: Polygon, v: Direction) -> ReebGraph:
    """Reeb graph of f_v over P; v must be generic.

    One pass over vertices in height order, maintaining the ordered list
    of level-set intervals keyed by their bounding edges. Edge i is the
    ring edge from vertex i to its ring successor.
    """
    order = _height_order(P, v)
    n = P.n
    ranks = np.empty(n, dtype=np.intp)
    ranks[order] = np.arange(n)
    reflex = P._reflex
    prev = P._prev
    nxt = P._next
    pts = P._pts

    nodes: list[ReebNode] = []
    edges: list[tuple[int, int]] = []
    active: list[_Component] = []
    edge_to: dict[int, tuple[_Component, int]] = {}

    def edge_side(pt: Point, e: int) -> int:
        """+1 if pt is strictly left of active edge e oriented upward."""
        a, b = e, int(nxt[e])
        if ranks[a] > ranks[b]:
            a, b = b, a
        s = orient_sign(pts[a], pts[b], pt)
        if s == 0:
            raise RuntimeError("event vertex lies on an active edge")
        return s

    def locate(pt: Point) -> tuple[int, bool]:
        """Binary search over the ordered disjoint components."""
        lo, hi = 0, len(active)
        while lo < hi:
            mid = (lo + hi) // 2
            comp = active[mid]
            if edge_side(pt, comp.left) > 0:
                hi = mid
            elif edge_side(pt, comp.right) < 0:
                lo = mid + 1
            else:
                return mid, True
        return lo, False

    def new_node(kind: str, gid: int) -> int:
        nodes.append(ReebNode(kind, _exact_height(P, v, gid), pts[gid], gid))
        return len(nodes) - 1

    for gid in order:
        gid = int(gid)
        pt = pts[gid]
        pr = int(prev[gid])
        nx = int(nxt[gid])
        up_p = ranks[pr] > ranks[gid]
        up_n = ranks[nx] > ranks[gid]
        e_in = pr   # ring edge (prev -> gid)
        e_out = gid  # ring edge (gid -> next)

        if up_p and up_n:
            # local minimum: both incident edges are born here
            s = orient_sign(pt, pts[pr], pts[nx])
            # among two upward edge vectors a, b: a is left of b iff cross(a, b) < 0
            left_e, right_e = (e_in, e_out) if s < 0 else (e_out, e_in)
            if not reflex[gid]:
                idx, inside = locate(pt)
                if inside:
                    raise RuntimeError("opening vertex inside an existing interval")
                nid = new_node("leaf", gid)
                comp = _Component(left_e, right_e, nid)
                active.insert(idx, comp)
                edge_to[left_e] = (comp, 0)
                edge_to[right_e] = (comp, 1)
            else:
                idx, inside = locate(pt)
                if not inside:
                    raise RuntimeError("splitting vertex outside every interval")
                comp = active[idx]
                nid = new_node("branch", gid)
                edges.append((comp.arc_from, nid))
                cl = _Component(comp.left, left_e, nid)
                cr = _Component(right_e, comp.right, nid)
                active[idx:idx + 1] = [cl, cr]
                edge_to[cl.left] = (cl, 0)
                edge_to[left_e] = (cl, 1)
                edge_to[right_e] = (cr, 0)
                edge_to[cr.right] = (cr, 1)
        elif not up_p and not up_n:
            # local maximum: both incident edges die here
            ca, sa = edge_to.pop(e_in)
            cb, sb = edge_to.pop(e_out)
            if not reflex[gid]:
                if ca is not cb or {sa, sb} != {0, 1}:
                    raise RuntimeError("closing edges span two intervals")
                nid = new_node("leaf", gid)
                edges.append((ca.arc_from, nid))
                active.pop(active.index(ca))
            else:
                if ca is cb:
                    raise RuntimeError("merging vertex closes a single interval")
                if sa == sb:
                    raise RuntimeError("merging edges bound their intervals on one side")
                left_c, right_c = (ca, cb) if sa == 1 else (cb, ca)
                nid = new_node("branch", gid)
                edges.append((left_c.arc_from, nid))
                edges.append((right_c.arc_from, nid))
                i = active.index(left_c)
                if active[i + 1] is not right_c:
                    raise RuntimeError("merging intervals are not adjacent")
                merged = _Component(left_c.left, right_c.right, nid)
                active[i:i + 2] = [merged]
                edge_to[merged.left] = (merged, 0)
                edge_to[merged.right] = (merged, 1)
        else:
            # regular: one incident edge dies, the other replaces it
            dying, born = (e_in, e_out) if up_n else (e_out, e_in)
            comp, side = edge_to.pop(dying)
            if side == 0:
                comp.left = born
            else:
                comp.right = born
            edge_to[born] = (comp, side)

    if active or edge_to:
        raise RuntimeError("sweep ended with open intervals")
    l = sum(1 for nd in nodes if nd.kind == "leaf")
    b = len(nodes) - l
    return ReebGraph(tuple(nodes), tuple(edges), l, b, P.h)


def _height_json(h: Fraction) -> float | str:
    """h as a float, or as the exact "p/q" text when it overflows one."""
    try:
        return float(h)
    except OverflowError:
        return str(h)


def reeb_to_dict(g: ReebGraph) -> dict:
    """JSON-ready export: nodes (kind, height, witness), edges, counts."""
    return {
        "nodes": [
            {"kind": nd.kind, "height": _height_json(nd.height),
             "witness": [float(nd.witness.x), float(nd.witness.y)]}
            for nd in g.nodes
        ],
        "edges": [[a, b] for a, b in g.edges],
        "l": g.l,
        "b": g.b,
        "h": g.h,
    }
