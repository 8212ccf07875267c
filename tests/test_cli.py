"""Command-line interface: dispatch, JSON contracts, and exit codes."""

import json
import subprocess
import sys

import pytest

from ruledpoly import Polygon, annulus_polygon, as_fraction, dump_polygon
from ruledpoly.cli import run_cli


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(dump_polygon(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])))
    return str(path)


@pytest.fixture
def l_file(tmp_path):
    P = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    path = tmp_path / "L.json"
    path.write_text(dump_polygon(P))
    return str(path)


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_complexity_square(capsys, square_file):
    code, doc = run_json(capsys, ["complexity", square_file])
    assert code == 0
    assert doc["min_leaves"] == 2
    assert set(doc) == {"min_leaves", "c_max", "k", "h", "witness", "degenerate"}


def test_complexity_human_note_on_stderr(capsys, square_file):
    run_cli(["complexity", square_file])
    captured = capsys.readouterr()
    assert captured.err.strip()
    json.loads(captured.out)  # machine channel stays pure JSON


def test_reeb_subcommand(capsys, l_file):
    code, doc = run_json(capsys, ["reeb", l_file, "--direction", "1,1.0009765625"])
    assert code == 0
    assert doc["l"] == 3 and doc["b"] == 1


def test_reeb_requires_direction(l_file, capsys):
    assert run_cli(["reeb", l_file]) == 1


def test_reeb_non_generic_is_validation_error(capsys, square_file):
    assert run_cli(["reeb", square_file, "--direction", "0,1"]) == 2


def test_generate_then_complexity(tmp_path, capsys):
    out = str(tmp_path / "lb7.json")
    assert run_cli(["generate", "lower-bound", "--n", "7", "--out", out]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["complexity", out])
    assert code == 0
    assert 3 <= doc["min_leaves"] <= 8


def test_generate_comb_and_annulus(tmp_path, capsys):
    comb_out = str(tmp_path / "comb.json")
    ann_out = str(tmp_path / "ann.json")
    assert run_cli(["generate", "comb", "--teeth", "4", "--out", comb_out]) == 0
    assert run_cli(["generate", "annulus", "--outer-side", "10",
                    "--hole-side", "4", "--out", ann_out]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["oracle", comb_out])
    assert code == 0 and doc["min_leaves"] == 2


def test_oracle_subcommand(capsys, l_file):
    code, doc = run_json(capsys, ["oracle", l_file])
    assert code == 0
    assert doc["min_leaves"] == 2
    assert set(doc) == {"min_leaves", "witness", "intervals_evaluated",
                        "boundary_beats_interior"}


def test_oracle_cap_exceeded(tmp_path, capsys):
    ring = [(i, i * i) for i in range(40)] + [(0, 1600)]
    path = tmp_path / "big.json"
    path.write_text(dump_polygon(Polygon(ring)))
    assert run_cli(["oracle", str(path), "--cap", "16"]) == 2


def test_degenerate_exit_code(tmp_path, capsys):
    path = tmp_path / "ann.json"
    path.write_text(dump_polygon(annulus_polygon(10, 4)))
    code = run_cli(["complexity", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["degenerate"] is True
    assert doc["min_leaves"] == 2  # result still printed


def test_render_subcommand(tmp_path, capsys, l_file):
    out = tmp_path / "fig.svg"
    code = run_cli(["render", l_file, "--cones", "--ruling", "10",
                    "--reeb", "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"<?xml")


def test_witness_search_failure_exits_two(monkeypatch, capsys, l_file):
    """A witness search that runs out is a validation error, not a traceback."""
    monkeypatch.setattr("ruledpoly.complexity.is_generic", lambda P, v: False)
    assert run_cli(["complexity", l_file]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_one(capsys):
    assert run_cli([]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["generate", "lower-bound", "--n", "7"]) == 1  # --out required


def test_validation_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["complexity", str(bad)]) == 2
    assert run_cli(["complexity", str(tmp_path / "missing.json")]) == 2
    bowtie = tmp_path / "bowtie.json"
    bowtie.write_text('{"outer": [[0,0],[2,2],[2,0],[0,2]], "holes": []}')
    assert run_cli(["complexity", str(bowtie)]) == 2


def test_coordinate_beyond_float_range_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"outer": [[0,0],[1e400,0],[0,1]]}')
    assert run_cli(["complexity", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_huge_denominators_answered(tmp_path, capsys):
    """Neighbouring vertices over distinct denominators near 1e160 give
    integer edge vectors beyond float range; the witness search scales
    them before taking angles."""
    q = [10 ** 160 + 2 * i + 1 for i in range(6)]
    L = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    ring = [[f"{x * d + 1}/{d}", f"{y * d + 1}/{d}"] for (x, y), d in zip(L, q)]
    path = tmp_path / "L.json"
    path.write_text(json.dumps({"outer": ring, "holes": []}))
    for command in ("complexity", "oracle"):
        code, doc = run_json(capsys, [command, str(path)])
        assert code == 0 and doc["min_leaves"] == 2


@pytest.mark.parametrize("command", ["complexity", "oracle"])
def test_coordinates_near_float_limit_answered(tmp_path, command):
    """Vertex differences of 2e308 overflow the float mirrors: no
    traceback from a Direction, and no numpy RuntimeWarning."""
    path = tmp_path / "big.json"
    path.write_text('{"outer":[[-1e308,-1e308],[1e308,-1e308],[1e308,1e308],'
                    '[0,5e307],[-1e308,1e308]]}')
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ruledpoly.cli",
                           command, str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["min_leaves"] == 2


def test_coordinates_below_float_range_answered(tmp_path):
    """A coordinate whose mirror underflows to 0.0 is answered, without
    a numpy RuntimeWarning."""
    path = tmp_path / "tiny.json"
    path.write_text('{"outer":[[0,0],["1e-400","1e-200"],[1,1e300]]}')
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ruledpoly.cli",
                           "complexity", str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["min_leaves"] == 2


def test_direction_beyond_float_range_answered(tmp_path, capsys, l_file):
    """Heights beyond float range are written as exact "p/q" text, and
    the rendered Reeb panel places nodes by float mirrors."""
    code, doc = run_json(capsys, ["reeb", l_file, "--direction", "1e400,1"])
    assert code == 0 and doc["l"] == 3
    for node in doc["nodes"]:
        x, y = (int(c) for c in node["witness"])
        assert as_fraction(node["height"]) == 10 ** 400 * x + y
    out = tmp_path / "fig.svg"
    assert run_cli(["render", l_file, "--reeb", "--direction", "1e400,1", "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"<?xml")


def test_output_deterministic(capsys, l_file):
    run_cli(["complexity", l_file])
    first = capsys.readouterr().out
    run_cli(["complexity", l_file])
    second = capsys.readouterr().out
    assert first == second


def test_console_script_installed(square_file):
    """The packaged entry point answers over a real pipe."""
    proc = subprocess.run([sys.executable, "-m", "ruledpoly.cli",
                           "complexity", square_file],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["min_leaves"] == 2
