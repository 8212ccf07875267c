"""Emit an SVG gallery: plain polygons, shaded cones, ruling lines at the
optimal direction, and the Reeb graph panel."""

import pathlib

from ruledpoly import (
    Direction,
    FamilyParams,
    Polygon,
    RenderSpec,
    annulus_polygon,
    comb_polygon,
    lower_bound_polygon,
    parallel_reeb_complexity,
    render_svg,
)

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

L = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
star = lower_bound_polygon(FamilyParams(7))

jobs = [
    ("L_cones.svg", RenderSpec(polygon=L, show_cones=True)),
    ("L_reeb.svg", RenderSpec(polygon=L, direction=Direction(1024, 1025),
                              show_reeb=True, ruling_line_count=12)),
    ("comb_vertical.svg", RenderSpec(polygon=comb_polygon(4),
                                     direction=Direction(0, 1),
                                     show_reeb=True, ruling_line_count=16)),
    ("annulus.svg", RenderSpec(polygon=annulus_polygon(10, 4),
                               direction=Direction(3, 10),
                               show_reeb=True, show_cones=True)),
    ("star7_witness.svg", RenderSpec(
        polygon=star,
        direction=parallel_reeb_complexity(star).witness,
        ruling_line_count=40)),
]

for name, spec in jobs:
    data = render_svg(spec)
    (out / name).write_bytes(data)
    print(f"wrote {out / name} ({len(data)} bytes)")
