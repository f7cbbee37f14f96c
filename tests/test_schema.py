"""The shared config readers: each bad value is a SchemaError naming its path."""

import json
import math

import pytest

from flowbot.flowcore.schema import SchemaError, check_names, check_value, get_value, read_document


@pytest.mark.parametrize(
    "read, path, reason",
    [
        (lambda: check_value(5, "[0].id", str), "[0].id", "must be a string, got 5"),
        (lambda: check_value(1, "[0]", dict), "[0]", "must be an object, got 1"),
        (lambda: check_value({"id": "wave"}, "$", list), "$", "must be a list, got {'id': 'wave'}"),
        (lambda: check_value(True, "count", int), "count", "must be an integer, got True"),
        (lambda: check_value(2.5, "window_us", int), "window_us", "must be an integer, got 2.5"),
        (lambda: check_value(-1, "seed", int, minimum=0), "seed", "must be an integer >= 0, got -1"),
        (lambda: check_value(math.nan, "rate", float), "rate", "must be a finite number, got nan"),
        (lambda: check_value(1e308, "rate", float), "rate", "must be a finite number, got 1e+308"),
        (lambda: get_value({}, "id", "[0]", str), "[0].id", "missing required key"),
        (lambda: get_value({"level": 3}, "level", "[0]", str), "[0].level", "must be a string, got 3"),
        (lambda: get_value({"id": None}, "id", "", str), "id", "must be a string, got None"),
        (lambda: check_names([{"name": "arm"}], "required"), "required[0]",
         "must be a string, got {'name': 'arm'}"),
        (lambda: check_names(["arm", 3], "required"), "required[1]", "must be a string, got 3"),
        (lambda: check_names(["arm", "arm"], "optional"), "optional[1]", "repeats 'arm'"),
    ],
)
def test_a_bad_value_is_a_schema_error_naming_its_path(read, path, reason):
    with pytest.raises(SchemaError) as exc:
        read()
    assert (exc.value.path, exc.value.reason) == (path, reason)
    assert str(exc.value) == f"{path}: {reason}"


def test_a_good_value_comes_back_in_its_json_kind():
    assert check_value(2.0, "n", int) == 2 and type(check_value(2.0, "n", int)) is int
    assert check_value(3, "x", float) == 3.0 and type(check_value(3, "x", float)) is float
    assert check_value(0, "seed", int, minimum=0) == 0
    assert check_names(["arm", "speed"], "entities") == ["arm", "speed"]


def test_an_absent_key_gives_its_default_unchecked():
    assert get_value({}, "level", "[0]", str, "high") == "high"
    assert get_value({"t_s": None}, "t_s", "", float, None) is None
    assert get_value({"n": 4.0}, "n", "", int, 1) == 4


def test_a_document_is_read_from_a_dict_or_a_file(tmp_path):
    doc = {"nodes": [], "streams": []}
    assert read_document(doc) is doc
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert read_document(path) == doc and read_document(str(path)) == doc


@pytest.mark.parametrize("text", ["{", '  {"nodes": [', "[{"], ids=["object", "indented", "list"])
def test_malformed_json_is_a_schema_error_at_the_root(tmp_path, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as exc:
        read_document(path)
    assert exc.value.path == "$" and exc.value.reason.startswith("not valid JSON: ")
