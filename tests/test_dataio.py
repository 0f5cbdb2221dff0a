import json

import numpy as np
import pytest

from raterpower import ResponseMatrix
from raterpower.dataio import load_responses, matrix_to_csv, save_matrix, save_report
from raterpower.errors import (
    DuplicateItemId,
    ParseError,
    RaggedNotSupported,
    ValueOutOfRange,
)


def test_load_jsonl_basic(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"item_id": "a", "responses": [0, 1, 1]}\n', encoding="utf-8")
    m = load_responses(path)
    assert m.ids == ("a",)
    assert sorted(m.rows[0]) == [0.0, 1.0, 1.0]


def test_load_jsonl_ragged(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"item_id": "a", "responses": [0.5]}\n{"item_id": "b", "responses": [0.25, 0.75]}\n',
        encoding="utf-8",
    )
    m = load_responses(path)
    assert not m.is_rectangular


def test_likert_default_linear_map(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"item_id": "a", "responses": [1, 2, 3, 4, 5]}\n', encoding="utf-8")
    m = load_responses(path, levels=5)
    assert list(m.rows[0]) == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_zero_based_levels(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"item_id": "a", "responses": [0, 1]}\n', encoding="utf-8")
    m = load_responses(path, levels=2)
    assert list(m.rows[0]) == [0.0, 1.0]


def test_value_map(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"item_id": "a", "responses": ["no", "yes"]}\n', encoding="utf-8")
    m = load_responses(path, value_map={"no": 0.0, "yes": 1.0})
    assert list(m.rows[0]) == [0.0, 1.0]


def test_duplicate_item_id(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        '{"item_id": "a", "responses": [0]}\n{"item_id": "a", "responses": [1]}\n',
        encoding="utf-8",
    )
    with pytest.raises(DuplicateItemId):
        load_responses(path)


def test_value_out_of_range(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"item_id": "a", "responses": [1.5]}\n', encoding="utf-8")
    with pytest.raises(ValueOutOfRange):
        load_responses(path)


def test_parse_error_carries_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"item_id": "a", "responses": [0]}\nnot json\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_responses(path)
    assert err.value.line == 2


def test_jsonl_round_trip(tmp_path):
    m = ResponseMatrix.from_rows([("a", [0.5, 0.25]), ("b", [1.0])])
    path = tmp_path / "m.jsonl"
    save_matrix(m, path)
    again = load_responses(path)
    assert again.multiset_equal(m)


def test_csv_round_trip(tmp_path):
    m = ResponseMatrix.from_rows([("a", [0.5, 0.25]), ("b", [1.0, 0.125])])
    path = tmp_path / "m.csv"
    save_matrix(m, path)
    again = load_responses(path)
    assert again.multiset_equal(m)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "item_id,r1,r2"


def test_csv_rejects_ragged():
    m = ResponseMatrix.from_rows([("a", [0.5]), ("b", [1.0, 0.0])])
    with pytest.raises(RaggedNotSupported):
        matrix_to_csv(m)


def test_csv_rejects_wrong_width(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("item_id,r1,r2\na,0.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_responses(path)


def test_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    save_report({"kind": "demo", "value": 0.5}, path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["schema_version"] == 1
    assert obj["value"] == 0.5


def test_loaded_values_all_in_unit_interval(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("item_id,r1\na,0.25\nb,1.0\n", encoding="utf-8")
    m = load_responses(path)
    assert np.concatenate(m.rows).min() >= 0.0
    assert np.concatenate(m.rows).max() <= 1.0


def test_csv_nan_is_out_of_range(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("item_id,r1,r2\na,0.5,0.2\nb,0.1,nan\n", encoding="utf-8")
    with pytest.raises(ValueOutOfRange) as err:
        load_responses(path)
    assert err.value.item_id == "b"
