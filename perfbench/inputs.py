"""Seeded polygon documents, generated without the library.

Every generator returns the bytes of a polygon file in the ruledpoly
format. Coordinates are whole multiples of 1e-6 written as terminating
decimal literals, so every file parses to exact rationals. Validity is
guaranteed by construction (radial or x-monotone rings, holes in
disjoint grid cells), never by asking the library, so a load of these
bytes is the first time the program sees them.
"""

from __future__ import annotations

import math
import random

SCALE = 10 ** 6  # coordinates are integers in micro-units


def _num(v: int) -> str:
    sign = "-" if v < 0 else ""
    whole, frac = divmod(abs(v), SCALE)
    if not frac:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


def _ring_text(ring: list[tuple[int, int]]) -> str:
    return "[" + ",".join(f"[{_num(x)},{_num(y)}]" for x, y in ring) + "]"


def document(outer: list[tuple[int, int]], holes: list[list[tuple[int, int]]] = ()) -> bytes:
    """Polygon file bytes for micro-unit integer rings."""
    text = ('{"outer":' + _ring_text(outer) + ',"holes":['
            + ",".join(_ring_text(h) for h in holes) + "]}\n")
    return text.encode("utf-8")


def _polar(cx: int, cy: int, r: float, theta: float) -> tuple[int, int]:
    return (cx + round(r * math.cos(theta) * SCALE), cy + round(r * math.sin(theta) * SCALE))


def radial_ring(rng: random.Random, n: int, r_lo: float, r_hi: float,
                cx: int = 0, cy: int = 0) -> list[tuple[int, int]]:
    """Random star-shaped ring: one vertex per equal angular slot.

    Each vertex sits in the middle 60% of its slot, so consecutive
    angles differ by 0.4 to 1.6 slots, under half a turn for n >= 4.
    The ring is then the graph of a radial function about (cx, cy),
    hence simple; rounding moves a vertex by under 1e-6, far less than
    the angular gap at any radius used here.
    """
    if n < 4:
        raise ValueError(f"a radial ring needs at least 4 vertices, got {n}")
    slot = 2.0 * math.pi / n
    return [_polar(cx, cy, rng.uniform(r_lo, r_hi), slot * (i + rng.uniform(0.2, 0.8)))
            for i in range(n)]


def spiked_star(rng: random.Random, spikes: int) -> list[tuple[int, int]]:
    """Star with seeded radii: tips near r1, reflex notches near r2.

    r1 and r2 are drawn per file and every vertex is jittered by 1% of
    its radius, so the notch cones stay about as narrow and as evenly
    spread as in the regular lower-bound star, whose min_leaves is at
    least spikes - 4.
    """
    r1 = rng.uniform(3.5, 4.5)
    r2 = rng.uniform(0.8, 1.2)
    step = math.pi / spikes
    ring = []
    for i in range(2 * spikes):
        r = r1 if i % 2 == 0 else r2
        ring.append(_polar(0, 0, r * rng.uniform(0.99, 1.01), step * i + math.pi / 2))
    return ring


def comb(rng: random.Random, teeth: int) -> list[tuple[int, int]]:
    """Comb with tapered upward prongs and a peaked floor in each gap.

    Listed right to left, the upper chain's x strictly decreases and the
    base edge runs below all of it, so the ring is strictly x-monotone:
    simple, with min_leaves == 2, while every gap adds two reflex floor
    corners. n = 5 * teeth - 1.
    """
    unit = SCALE // 1000
    x = 0
    upper = []  # left to right; x in tenths, y in thousandths
    for i in range(teeth):
        if i:
            floor_l = rng.randint(900, 1100)
            floor_r = rng.randint(900, 1100)
            gap = rng.randint(3, 6)
            upper.append((x, floor_l))                           # gap left corner (reflex)
            x += gap
            upper.append((x, max(floor_l, floor_r) + rng.randint(150, 400)))  # floor peak
            x += gap
            upper.append((x, floor_r))                           # gap right corner (reflex)
        x += rng.randint(1, 3)
        top = rng.randint(3500, 4500)
        upper.append((x, top + rng.randint(0, 50)))              # prong top left
        x += rng.randint(4, 8)
        upper.append((x, top + rng.randint(0, 50)))              # prong top right
        x += rng.randint(1, 3)
    upper = [(px * 100 * unit, py * unit) for px, py in upper]
    left = upper[0][0] - 100 * unit
    right = upper[-1][0] + 100 * unit
    return [(left, 0), (right, -rng.randint(1, 9) * unit)] + upper[::-1]


def _grid_cells(rng: random.Random, count: int, half: int) -> list[tuple[int, int, int]]:
    """Centre and side of `count` distinct cells of a square grid over |x|,|y| < half."""
    side = math.ceil(math.sqrt(count))
    cell = 2 * half // side
    cells = rng.sample(range(side * side), count)
    return [(-half + cell * (c % side) + cell // 2, -half + cell * (c // side) + cell // 2, cell)
            for c in sorted(cells)]


def perforated(rng: random.Random, outer_n: int, hole_count: int,
               defect: str | None = None) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]]]:
    """Disk-like outer ring around a grid of small star-shaped holes.

    Holes live in disjoint cells of a grid over |x|, |y| < 70 and reach
    at most 0.35 cell sides from their cell's centre, so they lie within
    99 of the origin, and within 74 when there are at most four. The
    outer ring is radial between radii 100 and 104, so its edges stay
    beyond 100 * cos(0.8 * 2 * pi / outer_n): above 99.8 for
    outer_n >= 100 and above 74 for outer_n >= 8. No two rings touch.
    defect, when given, breaks exactly one rule:
    "touching_holes" puts two squares sharing an edge in one cell, and
    "hole_outside" adds a hole beyond the outer ring.
    """
    if outer_n < 100 and (outer_n < 8 or hole_count > 4):
        raise ValueError(f"{hole_count} holes need a finer outer ring than {outer_n} vertices")
    outer = radial_ring(rng, outer_n, 100.0, 104.0)
    half = int(70 * SCALE)
    holes = []
    cells = _grid_cells(rng, hole_count, half)
    for cx, cy, cell in cells:
        r_hi = 0.35 * cell / SCALE
        holes.append(radial_ring(rng, rng.randint(4, 9), 0.5 * r_hi, r_hi, cx, cy))
    mid = len(holes) // 2
    if defect == "touching_holes":
        cx, cy, cell = cells[mid]
        s = cell // 8
        holes[mid] = [(cx - s, cy), (cx, cy), (cx, cy + s), (cx - s, cy + s)]
        holes.insert(mid + 1, [(cx, cy), (cx + s, cy), (cx + s, cy + s), (cx, cy + s)])
    elif defect == "hole_outside":
        far = int(150 * SCALE)
        holes.insert(mid, radial_ring(rng, 6, 2.0, 4.0, far, far))
    return outer, holes


def crossing_ring(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A ring whose edges cross: convex position, two neighbours swapped.

    Points a, b, c, d consecutive on a radius-1000 circle are joined
    a-c and b-d, two chords of four points in convex order, which
    cross. For n <= 2000 the sagitta of a chord between neighbours is
    above 4e-4 while rounding moves points by under 1e-6, so convex
    position survives rounding.
    """
    slot = 2.0 * math.pi / n
    ring = [_polar(0, 0, 1000.0, slot * (i + rng.uniform(0.3, 0.7))) for i in range(n)]
    i = rng.randrange(n - 3)
    ring[i + 1], ring[i + 2] = ring[i + 2], ring[i + 1]
    return ring
