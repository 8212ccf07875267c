"""Minimize leaves over all ruling directions: the angular coverage sweep,
its witness direction, and the degenerate-only annulus case."""

from ruledpoly import (
    Polygon,
    annulus_polygon,
    comb_polygon,
    max_cone_coverage,
    parallel_reeb_complexity,
    reeb_graph,
)


def show(P, label):
    r = parallel_reeb_complexity(P)
    g = reeb_graph(P, r.witness)
    print(f"{label}: n={P.n} h={r.h} k={r.k}")
    print(f"  min_leaves={r.min_leaves} c_max={r.c_max} "
          f"degenerate_only={r.degenerate}")
    print(f"  witness ~({float(r.witness.dx):.6g},{float(r.witness.dy):.6g}) "
          f"-> l={g.l} b={g.b} (checks the formula k - c_max + 2 - 2h)")


show(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), "square")
show(Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), "L-polygon")
show(comb_polygon(4), "comb with 4 teeth")

# the annulus: every open arc of directions covers only 2 of the 4 hole
# cones; all 4 are covered only at the isolated axis directions, which tie
# hole and outer corners. The reported minimum uses open arcs and the
# degenerate flag records that an isolated direction would do better.
A = annulus_polygon(10, 4)
show(A, "annulus")
cones = [A.cone(i) for i in A.reflex_indices()]
best, w = max_cone_coverage(cones)
print(f"  pointwise cone maximum (boundaries allowed): {best} "
      f"at ({w.dx},{w.dy})")
