"""Malformed polygon documents are PolygonParseErrors from load_polygon,
and the CLI answers them with exit code 2 and one `error:` line."""

import json
import time

import pytest

from ruledpoly import Direction, Point, Polygon, PolygonParseError, load_polygon
from ruledpoly.cli import run_cli

# digits are counted before int() reads them, the same on every interpreter
_DIGITS = "^integer with too many digits in polygon document$"

DOCUMENTS = [
    pytest.param(b"[" * 200_000, "nested too deeply", id="nested"),
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, \xff]]}', "not UTF-8", id="invalid-utf-8"),
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, 1' + b"0" * 5000 + b"]]}", _DIGITS,
                 id="5001-digit-integer"),
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, NaN]]}', "^non-finite number 'NaN'",
                 id="constant"),
]


@pytest.mark.parametrize("doc, message", DOCUMENTS)
def test_load_polygon_names_malformed_document(doc, message):
    with pytest.raises(PolygonParseError, match=message) as info:
        load_polygon(doc)
    assert "Exceeds the limit" not in str(info.value)


def test_constant_error_passes_through():
    """_reject_constant's own error reaches the caller unchanged."""
    with pytest.raises(PolygonParseError) as info:
        load_polygon('{"outer": [[0, 0], [1, 0], [0, -Infinity]]}')
    assert str(info.value) == "non-finite number '-Infinity' in polygon document"
    assert info.value.__cause__ is None


@pytest.mark.parametrize("doc, message", DOCUMENTS)
def test_cli_exits_2_on_malformed_document(doc, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(doc)
    assert run_cli(["complexity", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Exceeds the limit" not in captured.err



# refused in well under a second, each with a short message: entries that
# no error line may repeat (200 000 numbers are 1.49 MB), decimals whose
# last digit lies below 1e-5000, whose integers take seconds to build, and
# a bad literal whose run of digits once made the literal pattern backtrack
# quadratically (8 s on these 20 000 digits)
_LONG_ENTRY = list(range(200_000))
BRIEF = [
    pytest.param(json.dumps({"outer": [[0, 0], [1, 0], _LONG_ENTRY]}).encode(),
                 "^outer entry 2 is not a coordinate pair: list of length 200000$",
                 id="long-entry"),
    pytest.param(json.dumps({"outer": [[0, 0], [9, 0], [0, 9]],
                             "holes": [[[1, 1], [2, 1], "x" * 10 ** 6]]}).encode(),
                 "^holes\\[0\\] entry 2 is not a coordinate pair: str$", id="long-string-entry"),
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, 1e-4000000]]}',
                 "^coordinate with a digit below 1e-5000$", id="tiny-exponent"),
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, 0.' + b"3" * 6000 + b"]]}",
                 "^coordinate with a digit below 1e-5000$", id="6000-fraction-digits"),
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, "' + b"1" * 20_000 + b'x"]]}',
                 "^bad coordinate literal '1111", id="long-bad-literal"),
    pytest.param(json.dumps({"outer": [[0, 0], [1, 0], [0, 1]], "k" * 10 ** 6: 0}).encode(),
                 "^unknown keys \\['kkkk", id="long-key"),
    # exponents beyond the decimal module's, as a JSON number and as a string
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, 1e99999999999999999999999]]}',
                 "^coordinate with an exponent beyond the decimal module's range$",
                 id="number-exponent-out-of-range"),
    pytest.param(b'{"outer": [[0, 0], [1, 0], [0, "1e-99999999999999999999999"]]}',
                 "^coordinate with an exponent beyond the decimal module's range$",
                 id="literal-exponent-out-of-range"),
]


@pytest.mark.parametrize("doc, message", BRIEF)
def test_errors_are_brief_and_fast(doc, message, tmp_path, capsys):
    start = time.perf_counter()
    with pytest.raises(PolygonParseError, match=message) as info:
        load_polygon(doc)
    assert time.perf_counter() - start < 1.0
    assert len(str(info.value)) < 100
    path = tmp_path / "doc.json"
    path.write_bytes(doc)
    assert run_cli(["complexity", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200


def test_polygon_names_a_long_entry_briefly():
    with pytest.raises(PolygonParseError) as info:
        Polygon([(0, 0), (1, 0), _LONG_ENTRY])
    assert str(info.value) == "outer entry 2 is not a coordinate pair: list of length 200000"
    with pytest.raises(PolygonParseError) as info:
        Polygon([(0, 0), (2, 0), (0, 2)], [[(0, 0), (1, 0), iter(range(5))]])
    assert str(info.value) == "holes[0] entry 2 is not a coordinate pair: range_iterator of length 5"


def test_least_digit_place():
    """A coordinate's last decimal digit may lie at 1e-5000, not below;
    zero and a Direction's components take any exponent."""
    assert Point("1e-5000", 0).x == Point(0, "1e-5000").y
    assert Point("0.5e-4999", 0).x * 2 == Point("1e-4999", 0).x
    for text in ("1e-5001", "0.1e-5000", "-1" + "0" * 5001 + "e-10000"):
        with pytest.raises(PolygonParseError, match="digit below 1e-5000"):
            Point(text, 0)
    assert Point("0e-4000000", 1) == Point(0, 1)
    assert Direction("1e-6000", 1).canonical_pair() == (1, 10 ** 6000)


# 10**400 as "p/q": past the float range, which no place cap of a decimal refuses first
_FAR = "1" + "0" * 400 + "/1"
EARLIEST = [
    pytest.param([[0, 0], [_FAR, 0], ["x", 0]], [], id="then-bad-literal"),
    pytest.param([[0, 0], [_FAR, 0], [1, 2, 3]], [], id="then-not-a-pair"),
    pytest.param([[0, 0], [9, 0], [0, 9]], [[[1, 1], [_FAR, 1], ["x", 2]]], id="in-a-hole"),
]


@pytest.mark.parametrize("outer, holes", EARLIEST)
def test_earliest_faulty_entry_wins(outer, holes):
    """A ring is read an entry at a time, the float range checked with
    each: entry 1, beyond it, is the fault reported, not a later entry's
    bad literal or wrong shape; from a document, and from Python values
    (10**400 as an int there)."""
    values = [[[10 ** 400 if c == _FAR else c for c in entry] for entry in ring]
              for ring in [outer, *holes]]
    for build in (lambda: load_polygon(json.dumps({"outer": outer, "holes": holes})),
                  lambda: Polygon(values[0], values[1:])):
        with pytest.raises(PolygonParseError) as info:
            build()
        assert str(info.value) == "coordinate beyond the float range (about 1.8e308)"
