"""SVG emission: structure checks on the text, not pixel comparisons."""

import pytest

from ruledpoly import Polygon, RenderSpec, render_svg

from conftest import nudge_generic


def test_square_default_render(square):
    svg = render_svg(RenderSpec(square)).decode()
    assert svg.startswith("<?xml")
    assert "<svg" in svg and "viewBox=" in svg
    assert svg.count("<path") == 1
    assert 'fill-rule="evenodd"' in svg


def test_hole_rendered_via_evenodd():
    P = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                holes=[[(1, 1), (3, 1), (3, 3), (1, 3)]])
    svg = render_svg(RenderSpec(P)).decode()
    (path_d,) = [ln for ln in svg.splitlines() if "<path" in ln]
    assert path_d.count("Z") == 2  # outer ring and hole ring in one path
    assert 'fill-rule="evenodd"' in path_d


def test_cones_draw_double_wedges(l_poly):
    svg = render_svg(RenderSpec(l_poly, show_cones=True)).decode()
    assert svg.count("#d98943") == 2  # both halves of the single double cone


def test_ruling_lines_counted(l_poly):
    spec = RenderSpec(l_poly, ruling_line_count=8)
    svg = render_svg(spec).decode()
    assert svg.count("#7a9e52") == 8


def test_reeb_panel_nodes(l_poly):
    v = nudge_generic(l_poly, 1, 1)  # l=3, b=1
    svg = render_svg(RenderSpec(l_poly, direction=v, show_reeb=True)).decode()
    assert svg.count("<circle") == 3
    assert svg.count("<rect") == 2  # background plus one branch square


def test_output_path_written(tmp_path, square):
    out = tmp_path / "sq.svg"
    data = render_svg(RenderSpec(square, output_path=str(out)))
    assert out.read_bytes() == data


def test_render_spec_validation(square):
    with pytest.raises(ValueError):
        RenderSpec(square, ruling_line_count=-1)


def test_render_deterministic(comb4):
    spec = RenderSpec(comb4, show_cones=True, ruling_line_count=12, show_reeb=True)
    assert render_svg(spec) == render_svg(spec)
