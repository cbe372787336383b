import io

from ldcnet.textio import open_text, write_json


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
