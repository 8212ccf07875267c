"""Build polygons, round-trip them through the file format, inspect reflex
structure and the double cone at each reflex vertex."""

from fractions import Fraction

from ruledpoly import Polygon, dump_polygon, load_polygon

# an L: one reflex corner at (1, 1)
L = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
print(f"L-polygon: n={L.n} holes={L.h}")
print("reflex vertices:", list(L.reflex_indices()))
for i in L.reflex_indices():
    c = L.cone(i)
    p = L.vertex(i)
    print(f"  cone at ({p.x},{p.y}): boundary directions "
          f"({c.arc_start.dx},{c.arc_start.dy}) and ({c.arc_end.dx},{c.arc_end.dy})")

# a square with a square hole: every hole corner is reflex
ring = [(0, 0), (10, 0), (10, 10), (0, 10)]
hole = [(4, 4), (6, 4), (6, 6), (4, 6)]
A = Polygon(ring, [hole])
print(f"\nsquare-with-hole: n={A.n} holes={A.h} "
      f"reflex={list(A.reflex_indices())}")

# files hold exact decimals, so coordinates survive the trip
blob = dump_polygon(A)
back = load_polygon(blob)
print("round-trip byte-identical:", dump_polygon(back) == blob)

# rational coordinates are kept exact end to end
T = Polygon([(0, 0), (Fraction(7, 3), 0), (Fraction(1, 2), Fraction(5, 4))])
print("\nfraction triangle vertices:",
      [(str(p.x), str(p.y)) for p in T.outer.vertices])
# a coordinate without a finite decimal expansion is written as "p/q"
print("fraction triangle file:", dump_polygon(T).strip())
print("round-trip exact:", load_polygon(dump_polygon(T)).outer.vertices == T.outer.vertices)
