"""Reeb graph construction, genericity, and the structural identities."""

from fractions import Fraction

import pytest

from ruledpoly import (
    Direction,
    NonGenericDirectionError,
    Polygon,
    branch_witnesses,
    is_generic,
    random_simple_polygon,
    reeb_graph,
    reeb_to_dict,
)

from conftest import nudge_generic


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
