import io
import math

import pytest

from ldcnet.textio import format_number, open_text, write_csv, write_json


def test_open_handle_is_yielded_unchanged_and_left_open():
    buf = io.StringIO()
    with open_text(buf, "w") as fh:
        assert fh is buf
        fh.write("a\n")
    assert not buf.closed
    assert buf.getvalue() == "a\n"


def test_path_is_opened_as_utf8_without_newline_translation(tmp_path):
    path = tmp_path / "t.csv"
    with open_text(path, "w") as fh:
        fh.write("café\r\n")
    assert fh.closed
    assert path.read_bytes() == "café\r\n".encode("utf-8")
    with open_text(str(path), "r") as fh:
        assert fh.read() == "café\r\n"


def test_write_json_sorts_keys_indents_and_ends_with_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json({"b": [1, 2.5], "a": None}, path)
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'


def test_write_csv_on_a_path_is_utf8_with_newline_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("word", "value"), [("café", "1"), ("naïve", "2")])
    assert path.read_bytes() == "word,value\ncafé,1\nnaïve,2\n".encode("utf-8")


def test_write_csv_leaves_a_passed_handle_open():
    buf = io.StringIO()
    write_csv(buf, ("a",), iter([("1",)]))
    assert not buf.closed
    assert buf.getvalue() == "a\n1\n"


def test_write_csv_quotes_a_field_holding_a_comma():
    buf = io.StringIO()
    write_csv(buf, ("status",), [("error: a, b",), ("ok",)])
    assert buf.getvalue() == 'status\n"error: a, b"\nok\n'


def test_format_number_of_none_is_blank():
    assert format_number(None) == ""


@pytest.mark.parametrize(
    "value", [0.0, -0.0, 1.0, -2.5, 1 / 3, 123456789.123456789, 1e-300, 1e300,
              math.inf, -math.inf, math.nan]
)
def test_format_number_is_12_significant_digits(value):
    assert format_number(value) == format(value, ".12g")
