"""Event-partition enumeration oracle and the random polygon generator."""

import pytest

from ruledpoly import (
    Direction,
    FamilyParams,
    OracleCapError,
    Polygon,
    brute_force_complexity,
    build_event_partition,
    dump_polygon,
    is_generic,
    lower_bound_polygon,
    parallel_reeb_complexity,
    random_simple_polygon,
    reeb_graph,
)


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
