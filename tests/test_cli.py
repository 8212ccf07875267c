"""Command-line interface: dispatch, JSON contracts, and exit codes."""

import json
import subprocess
import sys

import pytest

from ruledpoly import (
    FamilyParams,
    Polygon,
    annulus_polygon,
    as_fraction,
    comb_polygon,
    dump_polygon,
    load_polygon,
    lower_bound_polygon,
    random_simple_polygon,
)
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


def huge_denominator_l():
    """The L with each vertex moved by 1/q over its own q near 1e160."""
    q = [10 ** 160 + 2 * i + 1 for i in range(6)]
    L = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    ring = [[f"{x * d + 1}/{d}", f"{y * d + 1}/{d}"] for (x, y), d in zip(L, q)]
    return json.dumps({"outer": ring, "holes": []})


def test_huge_denominators_answered(tmp_path, capsys):
    """Neighbouring vertices over distinct denominators near 1e160 give
    integer edge vectors beyond float range; the sweep scales them before
    taking angles, and the witness is built from the exact integers."""
    path = tmp_path / "L.json"
    path.write_text(huge_denominator_l())
    for command in ("complexity", "oracle"):
        code, doc = run_json(capsys, [command, str(path)])
        assert code == 0 and doc["min_leaves"] == 2


ROUND_TRIP = {
    "star7": lambda: dump_polygon(lower_bound_polygon(FamilyParams(7))),
    "star31": lambda: dump_polygon(lower_bound_polygon(FamilyParams(31))),
    "comb2": lambda: dump_polygon(comb_polygon(2)),
    "comb20": lambda: dump_polygon(comb_polygon(20)),
    "annulus": lambda: dump_polygon(annulus_polygon(10, 4)),
    "annulus_thirds": lambda: dump_polygon(annulus_polygon("7/3", "1/3")),
    **{f"random{seed}": (lambda seed=seed: dump_polygon(random_simple_polygon(9 + seed, seed)))
       for seed in (1, 2, 3, 5, 8, 13)},
    "huge_denominator_l": huge_denominator_l,
    # a tie-heavy square whose vertex differences are small integers over
    # 1e4400: its perturbed witness fits the integer-to-text digit limit
    "tiny_square": lambda: json.dumps(
        {"outer": [[0, 0], ["1e-4400", 0], ["1e-4400", "1e-4400"], [0, "1e-4400"]]}),
}


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_witness_round_trips_through_cli(tmp_path, capsys, name):
    """The witness read back from the complexity JSON text, passed to
    reeb --direction, gives a graph with min_leaves leaves; both entries
    are JSON integers."""
    path = tmp_path / f"{name}.json"
    path.write_text(ROUND_TRIP[name]())
    assert run_cli(["complexity", str(path)]) in (0, 3)
    text = capsys.readouterr().out
    doc = json.loads(text)
    dx, dy = doc["witness"]
    assert type(dx) is int and type(dy) is int
    assert text.count(f"[{dx}, {dy}]") == 1
    code, graph = run_json(capsys, ["reeb", str(path), "--direction", f"{dx},{dy}"])
    assert code == 0
    assert graph["l"] == doc["min_leaves"]


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


@pytest.mark.parametrize("doc", [
    '{"outer": [[0,0],[true,0],[0,true]]}',
    '{"outer": [[0,0],["1_000",0],[0,1]]}',
    '{"outer": [[0,0],[" 1",0],[0,1]]}',
])
def test_coordinates_outside_the_grammar_exit_two(tmp_path, capsys, doc):
    """Booleans are not numbers, and a string holds exactly a signed
    decimal literal or p/q: no underscores and no blanks, on every Python."""
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert run_cli(["complexity", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r1", ["1e297", "1e400"])
def test_generate_radius_beyond_float_range_exits_two(tmp_path, capsys, r1):
    """The star's coordinates are rounded as r1 * 10**12 in floats: a
    radius past that range is refused with its limit, not a traceback."""
    out = tmp_path / "star.json"
    assert run_cli(["generate", "lower-bound", "--n", "7", "--r1", r1, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1.8e296" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generate_radius_near_float_limit(tmp_path, capsys):
    """The largest radii that fit still build, through Python ints."""
    out = tmp_path / "star.json"
    assert run_cli(["generate", "lower-bound", "--n", "7", "--r1", "1e296",
                    "--out", str(out)]) == 0
    text = out.read_text()
    assert dump_polygon(load_polygon(text)) == text
