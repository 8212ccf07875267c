"""Event-partition enumeration oracle and the random polygon generator."""

import json

import pytest

from ruledpoly import oracle
from ruledpoly import (
    Direction,
    FamilyParams,
    OracleCapError,
    Polygon,
    brute_force_complexity,
    build_event_partition,
    comb_polygon,
    dump_polygon,
    is_generic,
    lower_bound_polygon,
    parallel_reeb_complexity,
    random_simple_polygon,
    reeb_graph,
)
from ruledpoly.cli import run_cli


def test_partition_contains_cone_boundaries(l_poly):
    part = build_event_partition(l_poly)
    assert Direction(0, 1) in part.angles
    assert Direction(1, 0) in part.angles
    # deduplicated canonical directions, at most C(6,2) of them
    assert len(part.angles) == len(set(part.angles)) <= 15


def test_partition_intervals_wrap(l_poly):
    part = build_event_partition(l_poly)
    ivs = part.intervals
    assert len(ivs) == len(part.angles)
    assert ivs[-1][1] == ivs[0][0]  # closes the half-circle


def test_cap_enforced():
    P = random_simple_polygon(12, 3)
    with pytest.raises(OracleCapError):
        brute_force_complexity(P, cap=8)


def test_oracle_l_polygon(l_poly):
    res = brute_force_complexity(l_poly)
    assert res.min_leaves == 2
    assert is_generic(l_poly, res.witness)
    assert reeb_graph(l_poly, res.witness).l == 2
    assert res.intervals_evaluated == len(build_event_partition(l_poly).angles)
    assert not res.boundary_beats_interior


def test_oracle_unpacks_as_pair(l_poly):
    min_leaves, witness = brute_force_complexity(l_poly)
    assert min_leaves == 2
    assert isinstance(witness, Direction)


def test_oracle_annulus(annulus):
    res = brute_force_complexity(annulus)
    assert res.min_leaves == 2
    assert res.boundary_beats_interior
    assert reeb_graph(annulus, res.witness).l == 2


def test_oracle_export_contract(l_poly):
    d = brute_force_complexity(l_poly).as_dict()
    assert set(d) == {"min_leaves", "witness", "intervals_evaluated",
                      "boundary_beats_interior"}


def _inside(a, b, u):
    """Whether direction u lies strictly inside the open arc of directions
    swept counterclockwise from a to b (mod 180 degrees), by exact
    cross products of the integer pairs."""
    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]
    if cross(a, b) < 0:
        b = (-b[0], -b[1])
    return any(cross(a, w) > 0 and cross(w, b) > 0 for w in (u, (-u[0], -u[1])))


@pytest.mark.parametrize("name", ["l", "annulus", "comb", *(f"random{s}" for s in range(1, 7))])
def test_representatives_strictly_inside(monkeypatch, l_poly, annulus, name):
    """The oracle evaluates one direction per interval, in order, each
    strictly inside its interval, the wrap interval included."""
    P = {"l": l_poly, "annulus": annulus, "comb": comb_polygon(3)}.get(name) \
        or random_simple_polygon(8 + int(name[6:]), int(name[6:]))
    seen = []
    graphs = oracle._reeb_graphs

    def spy(Q, directions):
        seen.extend(v.canonical_pair() for v in directions)
        return graphs(Q, directions)

    monkeypatch.setattr(oracle, "_reeb_graphs", spy)
    brute_force_complexity(P)
    part = build_event_partition(P)
    assert len(seen) == len(part.intervals) >= 3
    for (lo, hi), u in zip(part.intervals, seen):
        assert _inside(lo.canonical_pair(), hi.canonical_pair(), u)


@pytest.mark.parametrize("name", ["l", "annulus", "star9"])
def test_oracle_witness_through_cli(tmp_path, capsys, l_poly, annulus, name):
    """The oracle's JSON witness is two integers; passed to reeb
    --direction it gives a graph with min_leaves leaves."""
    P = {"l": l_poly, "annulus": annulus}.get(name) or lower_bound_polygon(FamilyParams(9))
    path = tmp_path / f"{name}.json"
    path.write_text(dump_polygon(P))
    assert run_cli(["oracle", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    dx, dy = doc["witness"]
    assert type(dx) is int and type(dy) is int
    assert run_cli(["reeb", str(path), "--direction", f"{dx},{dy}"]) == 0
    assert json.loads(capsys.readouterr().out)["l"] == doc["min_leaves"]


def test_oracle_convex():
    P = Polygon([(0, 0), (5, 0), (6, 3), (2, 5)])
    res = brute_force_complexity(P)
    assert res.min_leaves == 2


def test_oracle_star_family():
    P = lower_bound_polygon(FamilyParams(7))
    res = brute_force_complexity(P)
    assert 3 <= res.min_leaves <= 8
    assert res.min_leaves == parallel_reeb_complexity(P).min_leaves


def test_differential_small_suite():
    for seed in range(1, 11):
        P = random_simple_polygon(16, seed)
        assert brute_force_complexity(P).min_leaves == \
            parallel_reeb_complexity(P).min_leaves


# -- random polygon generator ------------------------------------------------

def test_random_polygon_is_simple_and_sized():
    for n, seed in ((3, 1), (8, 4), (24, 9)):
        P = random_simple_polygon(n, seed)
        assert P.n == n  # validation would have raised on a tangle
        assert P.h == 0


def test_random_polygon_deterministic():
    a = dump_polygon(random_simple_polygon(17, 123))
    b = dump_polygon(random_simple_polygon(17, 123))
    c = dump_polygon(random_simple_polygon(17, 124))
    assert a == b
    assert a != c


def test_random_polygon_varies_reflex_count():
    counts = {len(random_simple_polygon(14, s).reflex_indices())
              for s in range(1, 9)}
    assert len(counts) > 1
