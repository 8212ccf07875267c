"""Reeb graph construction, genericity, and the structural identities."""

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ruledpoly.geometry as geometry
import ruledpoly.reeb as reeb
from ruledpoly import (
    Direction,
    FamilyParams,
    NonGenericDirectionError,
    Polygon,
    PolygonError,
    ReebNode,
    annulus_polygon,
    branch_witnesses,
    brute_force_complexity,
    dump_polygon,
    is_generic,
    lower_bound_polygon,
    parallel_reeb_complexity,
    random_simple_polygon,
    reeb_graph,
    reeb_to_dict,
)
from ruledpoly.cli import run_cli
from ruledpoly.exactmath import orient_sign

from conftest import nudge_generic, recorded_comparisons, xyd
from test_reeb_batch import polygons


def adjacency(g):
    adj = {i: [] for i in range(len(g.nodes))}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def test_square_generic_direction_is_path(square):
    g = reeb_graph(square, Direction(3, 10))
    assert (g.l, g.b, g.h) == (2, 0, 0)
    assert len(g.nodes) == 2
    assert g.edges == ((0, 1),)


def test_l_polygon_near_diagonal(l_poly):
    """The diagonal ties three corners at height 2, so it is refused;
    a nearby generic direction shows the published structure."""
    with pytest.raises(NonGenericDirectionError):
        reeb_graph(l_poly, Direction(1, 1))
    g = reeb_graph(l_poly, nudge_generic(l_poly, 1, 1))
    assert (g.l, g.b) == (3, 1)
    kinds = [nd.kind for nd in g.nodes]
    assert kinds.count("leaf") == 3
    assert kinds.count("branch") == 1
    by_kind = {(nd.kind, (nd.witness.x, nd.witness.y)) for nd in g.nodes}
    assert ("leaf", (0, 0)) in by_kind
    assert ("branch", (1, 1)) in by_kind
    assert ("leaf", (2, 1)) in by_kind
    assert ("leaf", (1, 2)) in by_kind
    # heights are exact inner products, not normalized
    assert all(isinstance(nd.height, Fraction) for nd in g.nodes)
    lowest = min(g.nodes, key=lambda nd: nd.height)
    assert (lowest.kind, (lowest.witness.x, lowest.witness.y)) == ("leaf", (0, 0))


def test_annulus_diagonal_has_cycle(annulus):
    g = reeb_graph(annulus, nudge_generic(annulus, 1, 1))
    assert (g.l, g.b, g.h) == (2, 2, 1)
    assert g.cycle_rank == 1
    assert len(g.edges) - len(g.nodes) + 1 == 1


def test_is_generic_axis_on_square(square):
    assert not is_generic(square, Direction(0, 1))
    assert not is_generic(square, Direction(1, 0))
    assert is_generic(square, Direction(3, 10))


def test_direction_beyond_float_range(l_poly):
    """A component beyond float range is scaled, not converted."""
    v = Direction(10 ** 400, 1)
    assert is_generic(l_poly, v)
    assert reeb_graph(l_poly, v).l == 3


@pytest.mark.filterwarnings("error")
def test_height_order_near_float_limit():
    """Float heights that would overflow to inf - inf are scaled into
    range, so the exact lowest and highest vertices are the leaves."""
    big = Fraction(10) ** 308
    P = Polygon([(-big / 10 ** 8, 0), (big, Fraction(-16, 10) * big), (1, 1)])
    v = Direction(3, 2)
    heights = sorted(range(P.n), key=lambda i: v.dx * P.vertex(i).x + v.dy * P.vertex(i).y)
    leaves = {node.vertex for node in reeb_graph(P, v).nodes if node.kind == "leaf"}
    assert leaves == {heights[0], heights[-1]}


def test_tie_under_direction_with_underflowed_component():
    """(1e-100, 1e-400) has the float pair (1e-100, 0.0); the vertices
    (1, 0) and (0, 1e300) still have exactly equal heights."""
    P = Polygon([(0, 0), (1, 0), (0, 10 ** 300)])
    assert not is_generic(P, Direction(Fraction(1, 10 ** 100), Fraction(1, 10 ** 400)))


def test_non_generic_direction_refused(square):
    with pytest.raises(NonGenericDirectionError) as exc:
        reeb_graph(square, Direction(0, 1))
    err = exc.value
    assert err.direction == Direction(0, 1)
    assert err.first != err.second
    hy = lambda i: square.vertex(i).y  # height under (0,1) is just y
    assert hy(err.first) == hy(err.second)


def test_branch_witnesses_examples(l_poly):
    near_diag = nudge_generic(l_poly, 1, 1)
    assert branch_witnesses(l_poly, near_diag) == frozenset(l_poly.reflex_indices())
    anti_diag = nudge_generic(l_poly, 1, -1)
    assert branch_witnesses(l_poly, anti_diag) == frozenset()
    with pytest.raises(NonGenericDirectionError):
        branch_witnesses(l_poly, Direction(1, 1))


def test_branch_witnesses_match_graph_nodes():
    for seed in (3, 11, 42):
        P = random_simple_polygon(14, seed)
        v = nudge_generic(P, 5, 17)
        g = reeb_graph(P, v)
        from_graph = frozenset(nd.vertex for nd in g.nodes if nd.kind == "branch")
        assert branch_witnesses(P, v) == from_graph


def test_leaf_witnesses_never_reflex():
    for seed in (1, 2, 9):
        P = random_simple_polygon(16, seed)
        v = nudge_generic(P, 7, 12)
        g = reeb_graph(P, v)
        refl = P.reflex_indices()
        for nd in g.nodes:
            if nd.kind == "leaf":
                assert nd.vertex not in refl


def test_node_degrees(l_poly, annulus):
    for P, v in ((l_poly, nudge_generic(l_poly, 1, 1)),
                 (annulus, nudge_generic(annulus, 2, 3))):
        g = reeb_graph(P, v)
        adj = adjacency(g)
        for i, nd in enumerate(g.nodes):
            if nd.kind == "leaf":
                assert len(adj[i]) == 1
            else:
                assert len(adj[i]) == 3  # generic implies Morse


def test_graph_connected(annulus):
    g = reeb_graph(annulus, nudge_generic(annulus, 1, 2))
    adj = adjacency(g)
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert seen == set(range(len(g.nodes)))


def test_euler_relation_and_bounds():
    """l = b + 2 - 2h, cycle rank h, and the two count bounds."""
    cases = []
    for seed in range(1, 9):
        cases.append(random_simple_polygon(12 + seed, seed))
    for P in cases:
        k = len(P.reflex_indices())
        for raw in ((1, 3), (5, -2), (9, 11)):
            v = nudge_generic(P, *raw)
            g = reeb_graph(P, v)
            assert g.l == g.b + 2 - 2 * g.h
            assert g.cycle_rank == g.h
            assert g.b <= (P.n - 2) // 2 + g.h
            assert g.l <= k + 2 - 2 * g.h


def test_two_hole_polygon_cycle_rank():
    P = Polygon(
        [(0, 0), (12, 0), (12, 6), (0, 6)],
        holes=[[(1, 1), (4, 1), (4, 5), (1, 5)],
               [(7, 1), (11, 1), (11, 5), (7, 5)]],
    )
    v = nudge_generic(P, 3, 7)
    g = reeb_graph(P, v)
    assert g.h == 2
    assert g.cycle_rank == 2
    assert g.l == g.b + 2 - 4


def test_reeb_to_dict_shape(l_poly):
    d = reeb_to_dict(reeb_graph(l_poly, nudge_generic(l_poly, 1, 1)))
    assert set(d) == {"nodes", "edges", "l", "b", "h"}
    assert d["l"] == 3 and d["b"] == 1
    for nd in d["nodes"]:
        assert set(nd) == {"kind", "height", "witness"}
        assert isinstance(nd["height"], float)


def dict_from_nodes(g):
    """reeb_to_dict's document, written from the public nodes and edges."""
    nodes = []
    for nd in g.nodes:
        try:
            height = float(nd.height)
        except OverflowError:
            height = str(nd.height)
        nodes.append({"kind": nd.kind, "height": height,
                      "witness": [float(nd.witness.x), float(nd.witness.y)]})
    return {"nodes": nodes, "edges": [[a, b] for a, b in g.edges], "l": g.l, "b": g.b, "h": g.h}


PENTAGON = Polygon([(0, 0), (Fraction(7, 3), Fraction(-1, 9)), (Fraction(13, 5), 2), (1, 1),
                    (Fraction(-1, 7), Fraction(19, 6))])


@pytest.mark.parametrize("v", [Direction(Fraction(-7, 3), Fraction(5, 11)),
                               Direction(Fraction(3, 10 ** 320), Fraction(1, 10 ** 315)),
                               Direction(10 ** 400, 1)])
@settings(max_examples=40, deadline=None)
@given(P=polygons())
@example(P=PENTAGON)
def test_reeb_to_dict_heights_are_the_exact_heights_rounded(P, v):
    """reeb_to_dict, written from the graph's columns, is the document
    written from its public ReebNodes: each height float(height), the
    correctly rounded exact value, or its "p/q" text where that
    overflows a float, each witness its coordinates rounded, and the
    edges as lists, byte for byte once dumped."""
    assume(is_generic(P, v))
    g = reeb_graph(P, v)
    got, want = reeb_to_dict(g), dict_from_nodes(g)
    assert got == want and json.dumps(got) == json.dumps(want)
    assert [type(nd["height"]) for nd in got["nodes"]] == [type(nd["height"]) for nd in want["nodes"]]


@pytest.fixture
def counted_nodes(monkeypatch):
    """The list of ReebNodes made while the test runs."""
    made = []
    init = ReebNode.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ReebNode, "__init__", counting)
    return made


def test_no_node_is_made_unless_asked(counted_nodes, tmp_path, capsys):
    """The oracle, the export, len(g.nodes), len(g.edges) and the CLI's
    reeb make no ReebNode; indexing or iterating g.nodes makes the nodes
    of the list-based sweep, one per item."""
    P = lower_bound_polygon(FamilyParams(9))
    brute_force_complexity(P)
    w = parallel_reeb_complexity(P).witness
    g = reeb_graph(P, w)
    reeb_to_dict(g)
    assert (len(g.nodes), len(g.edges)) == (g.l + g.b, g.l + g.b - 1)
    path = tmp_path / "star.json"
    path.write_text(dump_polygon(P))
    assert run_cli(["reeb", str(path), "--direction", "%d,%d" % w.canonical_pair()]) == 0
    assert f"nodes={len(g.nodes)} edges={len(g.edges)}" in capsys.readouterr().err
    assert counted_nodes == []

    v = nudge_generic(P, 3, 7)
    g = reeb_graph(P, v)
    nodes, edges, l, b = reference_reeb(P, v)
    want = [ReebNode(kind, vertex, v, P) for kind, vertex in nodes]
    counted_nodes.clear()
    assert list(g.nodes) == want and len(counted_nodes) == len(want)
    assert g.nodes[-1] == want[-1] and g.nodes[1:4] == tuple(want[1:4]) and g.nodes == tuple(want)
    assert [nd.witness for nd in g.nodes] == [P.vertex(vertex) for _, vertex in nodes]
    assert Counter(g.edges) == Counter(edges) and g.edges == tuple(g.edges)
    assert g == reeb_graph(P, v) and hash(g) == hash(reeb_graph(P, v)) and g != reeb_graph(P, w)


def test_graph_retains_its_columns(counted_nodes):
    """At the witness of the 20 000-vertex star, a graph retains at most
    120 bytes per node (tracemalloc), and no ReebNode is made."""
    P = lower_bound_polygon(FamilyParams(10_000))
    w = parallel_reeb_complexity(P).witness
    reeb_graph(P, w)  # what P takes on at its first sweep is not the graph's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = reeb_graph(P, w)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.l == 9998 and retained <= 120 * len(g.nodes)
    assert counted_nodes == []


# -- the list-based sweep, kept as a reference for the handle sweep ---------

class _Component:
    """A level-set interval, bounded by the active edges left and right.

    arc_from is the Reeb node at the bottom of the arc this component is
    currently tracing.
    """

    __slots__ = ("left", "right", "arc_from")

    def __init__(self, left, right, arc_from):
        self.left = left
        self.right = right
        self.arc_from = arc_from


def reference_reeb(P, v):
    """(kind, vertex) per node, edges, l, b: an ordered list of components
    located by binary search and found again by linear scans."""
    order = reeb._height_order(P, v)
    n = P.n
    ranks = [0] * n
    for k, g in enumerate(order.tolist()):
        ranks[g] = k
    reflex = P._reflex
    prev = P._prev
    nxt = P._next
    pts = [p for ring in P.rings for p in ring]

    nodes = []
    edges = []
    active = []
    edge_to = {}

    def edge_side(pt, e):
        """+1 if pt is strictly left of active edge e oriented upward."""
        a, b = e, int(nxt[e])
        if ranks[a] > ranks[b]:
            a, b = b, a
        s = orient_sign(xyd(pts[a]), xyd(pts[b]), xyd(pt))
        if s == 0:
            raise RuntimeError("event vertex lies on an active edge")
        return s

    def locate(pt):
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

    def new_node(kind, gid):
        nodes.append((kind, gid))
        return len(nodes) - 1

    for gid in order.tolist():
        pt = pts[gid]
        pr = int(prev[gid])
        nx = int(nxt[gid])
        up_p = ranks[pr] > ranks[gid]
        up_n = ranks[nx] > ranks[gid]
        e_in = pr
        e_out = gid

        if up_p and up_n:
            s = orient_sign(xyd(pt), xyd(pts[pr]), xyd(pts[nx]))
            left_e, right_e = (e_in, e_out) if s < 0 else (e_out, e_in)
            idx, inside = locate(pt)
            if not reflex[gid]:
                if inside:
                    raise RuntimeError("opening vertex inside an existing interval")
                comp = _Component(left_e, right_e, new_node("leaf", gid))
                active.insert(idx, comp)
                edge_to[left_e] = (comp, 0)
                edge_to[right_e] = (comp, 1)
            else:
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
            ca, sa = edge_to.pop(e_in)
            cb, sb = edge_to.pop(e_out)
            if not reflex[gid]:
                if ca is not cb or {sa, sb} != {0, 1}:
                    raise RuntimeError("closing edges span two intervals")
                edges.append((ca.arc_from, new_node("leaf", gid)))
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
            dying, born = (e_in, e_out) if up_n else (e_out, e_in)
            comp, side = edge_to.pop(dying)
            if side == 0:
                comp.left = born
            else:
                comp.right = born
            edge_to[born] = (comp, side)

    if active or edge_to:
        raise RuntimeError("sweep ended with open intervals")
    l = sum(1 for kind, _ in nodes if kind == "leaf")
    return nodes, edges, l, len(nodes) - l


def _grid_ring(points):
    """Grid points sorted by angle about their centroid: usually simple."""
    cx = sum(x for x, _ in points) / len(points)
    cy = sum(y for _, y in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _grid_polygon(outer, holes):
    """The outer ring with every hole that keeps the polygon valid, or None."""
    try:
        Polygon(outer)
    except PolygonError:
        return None
    kept = []
    for hole in holes:
        try:
            Polygon(outer, kept + [hole])
        except PolygonError:
            continue
        kept.append(hole)
    return Polygon(outer, kept)


_CORNERS = [(0, 0), (8, 0), (8, 8), (0, 8)]
_grid_point = st.tuples(st.integers(0, 8), st.integers(0, 8))
_grid_polygons = st.builds(
    _grid_polygon,
    st.builds(lambda pts: _grid_ring(pts + _CORNERS), st.lists(_grid_point, max_size=8)),
    st.lists(st.builds(_grid_ring, st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)),
                                            min_size=3, max_size=5)), max_size=2))
_polygons = st.one_of(
    st.builds(random_simple_polygon, st.integers(3, 40), st.integers(0, 10 ** 6)),
    st.builds(annulus_polygon, st.integers(3, 9), st.sampled_from([1, 2])),
    _grid_polygons,
)


def _same_graph(P, v):
    g = reeb_graph(P, v)
    nodes, edges, l, b = reference_reeb(P, v)
    assert [(nd.kind, nd.vertex) for nd in g.nodes] == nodes
    assert Counter(g.edges) == Counter(edges)
    assert (g.l, g.b, g.h) == (l, b, P.h)


@given(P=_polygons, dx=st.integers(-1000, 1000), dy=st.integers(-1000, 1000))
@settings(max_examples=300, deadline=None)
def test_handle_sweep_matches_list_sweep(P, dx, dy):
    """The edge-status sweep builds the reference's graph, also with
    status blocks of one or two edges (splits and emptied blocks)."""
    assume(P is not None and (dx or dy))
    v = Direction(dx, dy)
    assume(is_generic(P, v))
    _same_graph(P, v)
    with patch.object(geometry, "_BLOCK", 1):
        _same_graph(P, v)


@pytest.mark.parametrize("ring, message", [
    ([(0, 0), (4, 0), (0, 3), (4, 3)], "merging vertex closes a single interval"),
    ([(0, 0), (4, 0), (4, 4), (2, -1), (0, 4)], "splitting vertex outside every interval"),
])
def test_unvalidated_crossing_ring_raises(ring, message):
    """A self-crossing ring loaded with validate=False breaks the
    alternation of left and right edges; the sweep refuses it."""
    P = Polygon(ring, validate=False)
    with pytest.raises(RuntimeError, match=message):
        reeb_graph(P, Direction(1, 7))


def test_sweep_cost_is_n_log_n_in_orientation_tests():
    """On a 20 000-vertex star at its witness only local minima are
    located: at most n * ceil(log2 n) orientation tests in all, each one
    comparison of _Status.locate, whichever stage decides it."""
    P = lower_bound_polygon(FamilyParams(10_000))
    res = parallel_reeb_complexity(P)
    with recorded_comparisons() as seen:
        g = reeb_graph(P, res.witness)
    assert P.n == 20_000 and g.l == res.min_leaves
    assert 0 < len(seen) <= P.n * math.ceil(math.log2(P.n))
