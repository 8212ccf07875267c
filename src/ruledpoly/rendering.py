"""Static SVG rendering of polygons, cones, rulings, and Reeb graphs.

Direct text emission, no drawing dependency: a fixed viewBox is computed
from the polygon's bounding box plus a 10% margin, the polygon is filled
with the even-odd rule so holes read as holes, cones appear as shaded
double wedges, ruling lines are clipped to the interior by edge-crossing
parity, and the Reeb graph sits in a panel to the right with leaves
drawn as circles and branch nodes as squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .complexity import parallel_reeb_complexity
from .geometry import Direction, Polygon
from .reeb import ReebGraph, reeb_graph

__all__ = ["RenderSpec", "render_svg"]


@dataclass(frozen=True)
class RenderSpec:
    """What to draw and where to write it."""

    polygon: Polygon
    direction: Optional[Direction] = None
    show_cones: bool = False
    show_ruling: bool = False
    ruling_line_count: int = 0
    show_reeb: bool = False
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.ruling_line_count < 0:
            raise ValueError("ruling_line_count must be >= 0")


def _fmt(x: float) -> str:
    """Stable short decimal for SVG attributes."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6g}"


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def add(self, element: str) -> None:
        self.parts.append(element)


def _ring_path(ring, mapper) -> str:
    coords = []
    for p in ring:
        x, y = mapper(p.xf, p.yf)
        coords.append(f"{_fmt(x)},{_fmt(y)}")
    return "M " + " L ".join(coords) + " Z"


def _wedge_points(apex, ray_a, ray_b, rho, mapper, steps=8) -> str:
    """Fan of points approximating the circular sector between two rays."""
    ax, ay = apex
    a0 = math.atan2(ray_a[1], ray_a[0])
    delta = math.atan2(
        ray_a[0] * ray_b[1] - ray_a[1] * ray_b[0],
        ray_a[0] * ray_b[0] + ray_a[1] * ray_b[1],
    )
    pts = [mapper(ax, ay)]
    for t in range(steps + 1):
        ang = a0 + delta * (t / steps)
        pts.append(mapper(ax + rho * math.cos(ang), ay + rho * math.sin(ang)))
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)


def _cone_rays(P: Polygon, i: int) -> tuple[tuple, tuple, tuple]:
    """Apex and the two wedge rays (unnormalized floats) at reflex vertex i."""
    p = P.vertex(i)
    pr, nx = P.neighbors(i)
    a = P.vertex(pr)
    b = P.vertex(nx)
    d1 = (a.xf - p.xf, a.yf - p.yf)
    d2 = (b.xf - p.xf, b.yf - p.yf)
    n1 = math.hypot(*d1)
    n2 = math.hypot(*d2)
    # d1/|d1| - d2/|d2| always lies strictly inside the double cone
    w = (d1[0] / n1 - d2[0] / n2, d1[1] / n1 - d2[1] / n2)
    ray_a = (d1[1], -d1[0])
    ray_b = (d2[1], -d2[0])

    def short_side_contains(pa, pb, probe):
        c_ab = pa[0] * pb[1] - pa[1] * pb[0]
        c_aw = pa[0] * probe[1] - pa[1] * probe[0]
        c_bw = pb[0] * probe[1] - pb[1] * probe[0]
        return c_ab * c_aw > 0 and (-c_ab) * c_bw > 0

    if not short_side_contains(ray_a, ray_b, w):
        ray_b = (-ray_b[0], -ray_b[1])
    return (p.xf, p.yf), ray_a, ray_b


def _ruling_segments(P: Polygon, v: Direction, count: int):
    """Clipped ruling chords at evenly spaced heights between extremes."""
    vx, vy = v.fdx, v.fdy
    heights = P._coords @ np.array([vx, vy])
    hmin = float(heights.min())
    hmax = float(heights.max())
    span = hmax - hmin
    if span <= 0 or count <= 0:
        return
    vertex_h = np.sort(heights)
    for t in range(count):
        h = hmin + span * (t + 1) / (count + 1)
        # nudge off any vertex level so every crossing is transversal
        j = int(np.searchsorted(vertex_h, h))
        for near in vertex_h[max(0, j - 1):j + 1]:
            if abs(h - near) < span * 1e-9:
                h += span * 1e-7
        crossings = []
        for lo in range(P.n):
            hi = int(P._next[lo])
            ha = float(heights[lo])
            hb = float(heights[hi])
            if (ha - h) * (hb - h) < 0:
                lam = (h - ha) / (hb - ha)
                x = P._coords[lo, 0] + lam * (P._coords[hi, 0] - P._coords[lo, 0])
                y = P._coords[lo, 1] + lam * (P._coords[hi, 1] - P._coords[lo, 1])
                crossings.append((vy * x - vx * y, x, y))
        crossings.sort()
        for a, b in zip(crossings[0::2], crossings[1::2]):
            yield (a[1], a[2]), (b[1], b[2])


def render_svg(spec: RenderSpec) -> bytes:
    """Render the spec to standalone SVG bytes, writing output_path if set."""
    P = spec.polygon
    xmin, ymin, xmax, ymax = P.bounding_box()
    w = max(xmax - xmin, 1e-9)
    h = max(ymax - ymin, 1e-9)
    margin = 0.1 * max(w, h)
    diag = math.hypot(w, h)

    need_direction = spec.show_ruling or spec.show_reeb
    v = spec.direction
    if v is None and need_direction:
        # the complexity witness is generic, so default pictures show the optimal ruling
        v = parallel_reeb_complexity(P).witness

    graph: Optional[ReebGraph] = None
    if spec.show_reeb:
        graph = reeb_graph(P, v)

    panel_w = 0.55 * w + margin if spec.show_reeb else 0.0
    vb_x = xmin - margin
    vb_y = ymin - margin
    vb_w = w + 2 * margin + panel_w
    vb_h = h + 2 * margin
    flip = ymin + ymax  # screen y = flip - y

    def mapper(x, y):
        return x, flip - y

    sw = 0.004 * diag
    canvas = _Canvas()
    canvas.add(
        f'<rect x="{_fmt(vb_x)}" y="{_fmt(flip - ymax - margin)}" '
        f'width="{_fmt(vb_w)}" height="{_fmt(vb_h)}" fill="#fbfbf8"/>')

    path = " ".join(_ring_path(ring, mapper) for ring in P.rings)
    canvas.add(
        f'<path d="{path}" fill="#dbe6f2" fill-rule="evenodd" '
        f'stroke="#27415e" stroke-width="{_fmt(sw * 1.5)}" '
        f'stroke-linejoin="round"/>')

    if spec.show_cones:
        rho = 0.08 * diag
        for i in P.reflex_indices():
            apex, ray_a, ray_b = _cone_rays(P, i)
            for sgn in (1.0, -1.0):
                ra = (sgn * ray_a[0], sgn * ray_a[1])
                rb = (sgn * ray_b[0], sgn * ray_b[1])
                pts = _wedge_points(apex, ra, rb, rho, mapper)
                canvas.add(
                    f'<polygon points="{pts}" fill="#d98943" '
                    f'fill-opacity="0.3" stroke="none"/>')

    if spec.show_ruling and v is not None:
        for (x1, y1), (x2, y2) in _ruling_segments(P, v, spec.ruling_line_count):
            sx1, sy1 = mapper(x1, y1)
            sx2, sy2 = mapper(x2, y2)
            canvas.add(
                f'<line x1="{_fmt(sx1)}" y1="{_fmt(sy1)}" '
                f'x2="{_fmt(sx2)}" y2="{_fmt(sy2)}" stroke="#7a9e52" '
                f'stroke-width="{_fmt(sw)}"/>')

    if graph is not None:
        # float coordinates along and across the sweep; exact heights may overflow
        us = [v.fdy * nd.witness.xf - v.fdx * nd.witness.yf for nd in graph.nodes]
        hs = [v.fdx * nd.witness.xf + v.fdy * nd.witness.yf for nd in graph.nodes]
        u_lo, u_hi = min(us), max(us)
        h_lo, h_hi = min(hs), max(hs)
        u_span = max(u_hi - u_lo, 1e-9)
        h_span = max(h_hi - h_lo, 1e-9)
        px0 = xmax + 2 * margin
        pw = max(panel_w - 1.5 * margin, 1e-9)

        def node_xy(idx):
            sx = px0 + (us[idx] - u_lo) / u_span * pw
            sy = flip - (ymin + (hs[idx] - h_lo) / h_span * h)
            return sx, sy

        for a, b in graph.edges:
            x1, y1 = node_xy(a)
            x2, y2 = node_xy(b)
            canvas.add(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="#7d7d78" stroke-width="{_fmt(sw)}"/>')
        r = 0.012 * diag
        for idx, nd in enumerate(graph.nodes):
            x, y = node_xy(idx)
            if nd.kind == "leaf":
                canvas.add(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
                    f'fill="#2e6db4"/>')
            else:
                canvas.add(
                    f'<rect x="{_fmt(x - r)}" y="{_fmt(y - r)}" '
                    f'width="{_fmt(2 * r)}" height="{_fmt(2 * r)}" '
                    f'fill="#c2504f"/>')

    body = "\n  ".join(canvas.parts)
    svg = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(vb_x)} {_fmt(flip - ymax - margin)} '
        f'{_fmt(vb_w)} {_fmt(vb_h)}">\n  {body}\n</svg>\n'
    )
    data = svg.encode("utf-8")
    if spec.output_path is not None:
        Path(spec.output_path).write_bytes(data)
    return data
