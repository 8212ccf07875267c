"""Malformed polygon documents are PolygonParseErrors from load_polygon,
and the CLI answers them with exit code 2 and one `error:` line."""

import pytest

from ruledpoly import PolygonParseError, load_polygon
from ruledpoly.cli import run_cli

# where the interpreter has no digit limit, 5001 digits parse and the
# value is beyond the float range instead
_DIGITS = "too many digits|beyond the float range"

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

