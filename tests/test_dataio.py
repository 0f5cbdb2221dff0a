import json

import numpy as np
import pytest

from raterpower import ExperimentConfig, ResponseMatrix, generate_triple
from raterpower.cli import main
from raterpower.dataio import load_responses, save_matrix
from raterpower.errors import (
    DuplicateItemId,
    ParseError,
    RaggedNotSupported,
    ValueOutOfRange,
)
from raterpower.rngstreams import derive_rng


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
    assert again.ids == m.ids
    assert all(np.array_equal(x, y) for x, y in zip(again.rows, m.rows))


def test_csv_round_trip(tmp_path):
    m = ResponseMatrix.from_rows([("a", [0.5, 0.25]), ("b", [1.0, 0.125])])
    path = tmp_path / "m.csv"
    save_matrix(m, path)
    again = load_responses(path)
    assert again.ids == m.ids
    assert np.array_equal(again.values, m.values)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "item_id,r1,r2"


def test_csv_rejects_ragged(tmp_path):
    m = ResponseMatrix.from_rows([("a", [0.5]), ("b", [1.0, 0.0])])
    with pytest.raises(RaggedNotSupported):
        save_matrix(m, tmp_path / "m.csv")


def test_csv_rejects_wrong_width(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("item_id,r1,r2\na,0.5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_responses(path)


TOY = ["--default-synthetic", "--b-null", "5"]
REPORTS = {
    "pvalue": ["pvalue", *TOY, "--n", "4", "--k", "2", "--b-alt", "5"],
    "table": ["table", *TOY, "--nk-pairs", "4:2", "--epsilon-values", "0,0.1", "--b-alt", "5", "--format", "json"],
    "power": ["power", *TOY, "--n-sweep", "4", "--k", "2", "--trials", "3", "--format", "json"],
    "fit": ["fit", "--input", "{G}", "--location-family", "uniform", "--grid", "lo=0:0.2:0.1,hi=0.8:1:0.1",
            "--sim-count", "50"],
    "ecdf": ["ecdf", "--input", "{G}", "--format", "json"],
}


@pytest.mark.parametrize("command", REPORTS)
def test_report_round_trip(command, tmp_path):
    # Every command's JSON report goes out one way: schema_version first,
    # two-space indents and a final newline, so it loads back to the same bytes.
    g = generate_triple(ExperimentConfig(n_items=6, k_responses=3), derive_rng(1))[0]
    save_matrix(g, tmp_path / "g.jsonl")
    out = tmp_path / "report.json"
    args = [arg.format(G=tmp_path / "g.jsonl") for arg in REPORTS[command]]
    assert main([*args, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    obj = json.loads(text)
    assert next(iter(obj)) == "schema_version" and obj["schema_version"] == 1
    assert text == json.dumps(obj, indent=2) + "\n"


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
