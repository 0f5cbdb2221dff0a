"""Loading and saving response matrices and result reports.

Interchange formats:

* JSONL: one object per line, ``{"item_id": str, "responses": [number, ...]}``,
  UTF-8, LF newlines. Ragged matrices are fine.
* CSV: header ``item_id,r1,...,rK``, RFC 4180 quoting, rectangular only.
* Reports: one JSON document with a top-level ``"schema_version": 1``.

Raw ordinal labels can be mapped onto [0, 1] with an explicit value map or
the linear level map (level j of k -> j/(k-1)). The level map treats labels
as 1-based (Likert style) unless a label below 1 appears in the file, in
which case they are 0-based.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DuplicateItemId,
    InvalidParam,
    ParseError,
    RaggedNotSupported,
)
from .simulator import ResponseMatrix, check_matrices

__all__ = ["load_responses", "save_matrix", "save_report", "matrix_to_jsonl", "matrix_to_csv"]


def _detect_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("jsonl", "csv"):
            raise InvalidParam("format", f"unknown matrix format {fmt!r}")
        return fmt
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise InvalidParam("format", f"cannot infer format from {path.name!r}")


def _parse_jsonl(text: str) -> list[tuple[str, list, int]]:
    records: list[tuple[str, list, int]] = []
    seen: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}")
        if not isinstance(obj, dict) or "item_id" not in obj or "responses" not in obj:
            raise ParseError(line_no, "expected an object with item_id and responses")
        item_id = str(obj["item_id"])
        if item_id in seen:
            raise DuplicateItemId(f"item id {item_id!r} appears twice")
        seen.add(item_id)
        responses = obj["responses"]
        if not isinstance(responses, list):
            raise ParseError(line_no, "responses must be a list")
        records.append((item_id, responses, line_no))
    return records


def _parse_csv(text: str) -> list[tuple[str, list, int]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty CSV file")
    if not header or header[0] != "item_id":
        raise ParseError(1, "first CSV column must be item_id")
    width = len(header) - 1
    if width < 1:
        raise ParseError(1, "CSV needs at least one response column")
    records: list[tuple[str, list, int]] = []
    seen: set[str] = set()
    for line_no, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != width + 1:
            raise ParseError(line_no, f"expected {width + 1} fields, got {len(record)}")
        item_id = record[0]
        if item_id in seen:
            raise DuplicateItemId(f"item id {item_id!r} appears twice")
        seen.add(item_id)
        records.append((item_id, list(record[1:]), line_no))
    return records


def _lookup(value_map: Mapping, raw, line_no: int) -> float:
    for key in (raw, str(raw)):
        if key in value_map:
            return float(value_map[key])
    try:
        numeric = float(raw)
    except (TypeError, ValueError):
        raise ParseError(line_no, f"label {raw!r} missing from value map")
    for key in (numeric, int(numeric) if numeric.is_integer() else None):
        if key is not None and key in value_map:
            return float(value_map[key])
    raise ParseError(line_no, f"label {raw!r} missing from value map")


def _to_float(raw, line_no: int) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(line_no, f"non-numeric response {raw!r}")


def _convert(records, value_map, levels) -> ResponseMatrix:
    if value_map is not None:
        rows = [[_lookup(value_map, r, line_no) for r in raws] for _, raws, line_no in records]
    else:
        rows = [[_to_float(r, line_no) for r in raws] for _, raws, line_no in records]
    arrays = [np.asarray(row, dtype=float) for row in rows]
    if value_map is None and levels is not None:
        observed = [v for row in rows for v in row]
        offset = 0.0 if observed and min(observed) < 1.0 else 1.0
        arrays = [(x - offset) / (levels - 1) for x in arrays]
    m = ResponseMatrix(tuple(item_id for item_id, _, _ in records), tuple(arrays))
    check_matrices(m)
    return m


def load_responses(
    path: str | Path,
    fmt: str | None = None,
    value_map: Mapping | None = None,
    levels: int | None = None,
) -> ResponseMatrix:
    """Load a disaggregated response matrix from JSONL or CSV.

    ``value_map`` maps raw labels onto [0, 1]; ``levels=k`` applies the
    linear level map instead. Raw values must already be in [0, 1] when
    neither is given. The matrix passes ``check_matrices``: a file without
    items or with an item without responses raises ``EmptyItem``.
    """
    if levels is not None and levels < 2:
        raise InvalidParam("levels", "level map needs k >= 2")
    path = Path(path)
    fmt = _detect_format(path, fmt)
    text = path.read_text(encoding="utf-8")
    records = _parse_jsonl(text) if fmt == "jsonl" else _parse_csv(text)
    return _convert(records, value_map, levels)


def matrix_to_jsonl(m: ResponseMatrix) -> str:
    lines = []
    for item_id, row in zip(m.ids, m.rows):
        lines.append(
            json.dumps({"item_id": item_id, "responses": [float(v) for v in row]})
        )
    return "\n".join(lines) + "\n"


def matrix_to_csv(m: ResponseMatrix) -> str:
    if not m.is_rectangular:
        raise RaggedNotSupported("CSV holds rectangular matrices only")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    k = m.k_responses
    writer.writerow(["item_id"] + [f"r{i + 1}" for i in range(k)])
    for item_id, row in zip(m.ids, m.rows):
        writer.writerow([item_id] + [repr(float(v)) for v in row])
    return out.getvalue()


def save_matrix(m: ResponseMatrix, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = _detect_format(path, fmt)
    text = matrix_to_jsonl(m) if fmt == "jsonl" else matrix_to_csv(m)
    path.write_text(text, encoding="utf-8")


def report_to_json(report) -> str:
    obj = report.to_json_dict() if hasattr(report, "to_json_dict") else dict(report)
    if "schema_version" not in obj:
        obj = {"schema_version": 1, **obj}
    return json.dumps(obj, indent=2) + "\n"


def save_report(report, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8")
