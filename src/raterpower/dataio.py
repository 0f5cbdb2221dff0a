"""Loading and saving response matrices.

Interchange formats:

* JSONL: one object per line, ``{"item_id": str, "responses": [number, ...]}``,
  UTF-8, LF newlines. Ragged matrices are fine.
* CSV: header ``item_id,r1,...,rK``, RFC 4180 quoting, rectangular only.

A matrix file's suffix names its format: ``.jsonl``, ``.ndjson`` or
``.json`` for JSONL, ``.csv`` for CSV.

Raw ordinal labels can be mapped onto [0, 1] with the linear level map
(level j of k -> j/(k-1)). The level map treats labels as 1-based (Likert
style) unless a label below 1 appears in the file, in which case they are
0-based.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateItemId,
    InvalidParam,
    ParseError,
    RaggedNotSupported,
    check_count,
)
from .simulator import ResponseMatrix, _pad, check_matrices

__all__ = ["load_responses", "save_matrix"]


def _detect_format(path: Path) -> str:
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


def _to_float(raw, line_no: int) -> float:
    """A response as a float: a number or numeric text, not a JSON boolean (``float(True)`` is 1.0)."""
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError):
            pass
    raise ParseError(line_no, f"non-numeric response {raw!r}")


def _convert(records, levels) -> ResponseMatrix:
    flat = [_to_float(r, line_no) for _, raws, line_no in records for r in raws]
    values = np.array(flat, dtype=float)
    if levels is not None:
        offset = 0.0 if flat and min(flat) < 1.0 else 1.0
        values = (values - offset) / (levels - 1)
    counts = np.array([len(raws) for _, raws, _ in records], dtype=np.int64)
    m = ResponseMatrix.from_padded(_pad(values, counts), counts, [item_id for item_id, _, _ in records])
    check_matrices(m)
    return m


def load_responses(path: str | Path, *, levels: int | None = None) -> ResponseMatrix:
    """Load a disaggregated response matrix from JSONL or CSV.

    ``levels=k`` maps raw labels onto [0, 1] with the linear level map;
    without it, raw values must already be in [0, 1]. The matrix passes
    ``check_matrices``: a file without items or with an item without
    responses raises ``EmptyItem``.
    """
    if levels is not None:
        check_count("levels", levels, "level map needs k >= 2", least=2)
    path = Path(path)
    fmt = _detect_format(path)
    text = path.read_text(encoding="utf-8")
    records = _parse_jsonl(text) if fmt == "jsonl" else _parse_csv(text)
    return _convert(records, levels)


def _matrix_to_jsonl(m: ResponseMatrix) -> str:
    lines = []
    for item_id, row in zip(m.ids, m.rows):
        lines.append(
            json.dumps({"item_id": item_id, "responses": [float(v) for v in row]})
        )
    return "\n".join(lines) + "\n"


def _matrix_to_csv(m: ResponseMatrix) -> str:
    if not m.is_rectangular:
        raise RaggedNotSupported("CSV holds rectangular matrices only")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["item_id"] + [f"r{i + 1}" for i in range(m.k_responses)])
    for item_id, row in zip(m.ids, m.values.tolist()):
        writer.writerow([item_id] + [repr(v) for v in row])
    return out.getvalue()


def save_matrix(m: ResponseMatrix, path: str | Path) -> None:
    path = Path(path)
    text = _matrix_to_jsonl(m) if _detect_format(path) == "jsonl" else _matrix_to_csv(m)
    path.write_text(text, encoding="utf-8")

