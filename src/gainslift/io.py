"""Reading scored files and serializing curves and summaries.

Input is delimited text (header row required) or json-lines. Curve output is
delimited text with shortest-roundtrip floats, or json carrying exact
numerator/denominator fields so a re-parse reproduces the rationals bit for
bit.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError
from .metrics import CurveSeries, XKind
from .records import ScoredRecord
from .resample import ResampleSummary


@dataclass(frozen=True)
class ScoredFile:
    """Where and how to read scored records.

    format is 'csv' (delimited text) or 'jsonl'. The column map names the
    label/score fields; with no id column, 1-based row numbers are assigned.
    """

    path: str | Path
    format: str = "csv"
    delimiter: str = ","
    label_col: str = "label"
    score_col: str = "score"
    id_col: str | None = None


def _parse_label(raw, row: int) -> int:
    if raw in (0, 1):
        return int(raw)
    if isinstance(raw, str) and raw.strip() in ("0", "1"):
        return int(raw.strip())
    raise ValidationError(f"row {row}: label must be 0 or 1, got {raw!r}")


def _parse_score(raw, row: int) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"row {row}: score {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"row {row}: score {raw!r} is not finite")
    return value


def guess_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    return "jsonl" if suffix in (".jsonl", ".ndjson") else "csv"


def load_scored(file: ScoredFile | str | Path, **overrides) -> list[ScoredRecord]:
    """Read scored records, preserving row order (it decides tie-breaking
    under the input-order policy). Errors name the offending row."""
    if not isinstance(file, ScoredFile):
        file = ScoredFile(path=file, format=guess_format(file), **overrides)
    if file.format == "csv":
        records = list(_read_csv(file))
    elif file.format == "jsonl":
        records = list(_read_jsonl(file))
    else:
        raise ValidationError(f"unknown input format {file.format!r}")
    if not records:
        raise ValidationError(f"{file.path}: no data rows")
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValidationError(f"{file.path}: duplicate id {rec.id!r}")
        seen.add(rec.id)
    return records


_CSV_LABELS = {"0": 0, "1": 1}


def _read_csv(file: ScoredFile) -> Iterable[ScoredRecord]:
    # utf-8-sig drops a leading byte-order mark, which would otherwise stick
    # to the first header name
    with open(file.path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=file.delimiter)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{file.path}: missing header row")
        # a repeated column name refers to its last occurrence
        column = {name: i for i, name in enumerate(header)}
        for col in (file.label_col, file.score_col):
            if col not in column:
                raise ValidationError(
                    f"{file.path}: column {col!r} not in header {sorted(column)}")
        id_col = file.id_col
        if id_col is None and "id" in column:
            id_col = "id"
        if id_col is not None and id_col not in column:
            raise ValidationError(
                f"{file.path}: column {id_col!r} not in header {sorted(column)}")
        label_at, score_at = column[file.label_col], column[file.score_col]
        id_at = column[id_col] if id_col is not None else None
        width = max(label_at, score_at, -1 if id_at is None else id_at) + 1
        row_no = 0
        for row in reader:
            if not row:  # blank lines are skipped and not counted
                continue
            row_no += 1
            if len(row) < width:  # a short row lacks its last fields
                row = row + [None] * (width - len(row))
            raw_label = row[label_at]
            label = _CSV_LABELS.get(raw_label)
            if label is None:
                label = _parse_label(raw_label, row_no)
            score = _parse_score(row[score_at], row_no)
            rid = row[id_at] if id_at is not None else str(row_no)
            if not rid:
                raise ValidationError(f"row {row_no}: empty id")
            yield ScoredRecord(id=rid, score=score, label=label)


def _read_jsonl(file: ScoredFile) -> Iterable[ScoredRecord]:
    with open(file.path, encoding="utf-8") as handle:
        row_no = 0
        for line in handle:
            if not line.strip():
                continue
            row_no += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"row {row_no}: bad json ({exc})") from None
            if file.label_col not in obj or file.score_col not in obj:
                raise ValidationError(
                    f"row {row_no}: missing {file.label_col!r} or "
                    f"{file.score_col!r} field")
            raw_label, raw_score = obj[file.label_col], obj[file.score_col]
            # JSON true and 1.0 compare equal to 1; only literal 0/1 count
            if isinstance(raw_label, (bool, float)):
                raise ValidationError(
                    f"row {row_no}: label must be 0 or 1, got {raw_label!r}")
            if isinstance(raw_score, bool):
                raise ValidationError(
                    f"row {row_no}: score {raw_score!r} is not a number")
            label = _parse_label(raw_label, row_no)
            score = _parse_score(raw_score, row_no)
            id_col = file.id_col or "id"
            rid = str(obj[id_col]) if id_col in obj else str(row_no)
            yield ScoredRecord(id=rid, score=score, label=label)


def save_scored(records: Sequence[ScoredRecord], out) -> None:
    """Write records as delimited text with an id,score,label header."""
    close = False
    if isinstance(out, (str, Path)):
        handle = open(out, "w", newline="", encoding="utf-8")
        close = True
    else:
        handle = out
    try:
        writer = csv.writer(handle)
        writer.writerow(["id", "score", "label"])
        for rec in records:
            writer.writerow([rec.id, repr(rec.score), rec.label])
    finally:
        if close:
            handle.close()


# ---------------------------------------------------------------------------
# curve serialization
# ---------------------------------------------------------------------------

def emit_curves(series: Sequence[CurveSeries], format: str = "csv",
                out=None) -> str:
    """Serialize series; returns the text and writes it to `out` if given.

    csv is one row per point with shortest-roundtrip floats; json adds exact
    'num/den' fields so parsing recovers the rationals unchanged.
    """
    if not series:
        raise ValidationError("no series to emit")
    if format == "csv":
        text = _curves_csv(series)
    elif format == "json":
        text = _curves_json(series)
    else:
        raise ValidationError(f"unknown curve format {format!r}")
    if out is not None:
        _write_text(out, text)
    return text


def _write_text(out, text: str) -> None:
    if isinstance(out, (str, Path)):
        Path(out).write_text(text, encoding="utf-8")
    else:
        out.write(text)


def _curves_csv(series: Sequence[CurveSeries]) -> str:
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["series", "x_kind", "x", "y"])
    for s in series:
        writer.writerows(zip(repeat(s.name), repeat(s.x_kind.value),
                             map(repr, s.x.floats().tolist()),
                             map(repr, s.y.floats().tolist())))
    return buf.getvalue()


# One point as `json.dumps(payload, indent=2)` lays it out. Floats are
# written by repr, as the json module writes them, and the exact texts hold
# only digits, '-' and '/', which need no escaping.
_JSON_POINT = ('        {{\n          "x": {!r},\n          "y": {!r},\n'
               '          "x_exact": "{}",\n          "y_exact": "{}"\n'
               '        }}')


def _curves_json(series: Sequence[CurveSeries]) -> str:
    """The text of json.dumps(payload, indent=2) + newline for the payload
    {"series": [{"name", "x_kind", "points": [{"x", "y", "x_exact",
    "y_exact"}, ...]}, ...]}, written from the columns directly: the json
    module's indented encoder is its slow pure-Python one."""
    blocks = []
    for s in series:
        points = ",\n".join(map(_JSON_POINT.format, s.x.floats().tolist(),
                                s.y.floats().tolist(), s.x.texts(),
                                s.y.texts()))
        points = f"[\n{points}\n      ]" if points else "[]"
        blocks.append(f'    {{\n      "name": {json.dumps(s.name)},\n'
                      f'      "x_kind": {json.dumps(s.x_kind.value)},\n'
                      f'      "points": {points}\n    }}')
    return '{\n  "series": [\n' + ",\n".join(blocks) + "\n  ]\n}\n"


def parse_curves(text: str, format: str = "csv") -> list[CurveSeries]:
    """Inverse of emit_curves. The json path restores exact rationals."""
    if format == "csv":
        return _parse_curves_csv(text)
    if format == "json":
        return _parse_curves_json(text)
    raise ValidationError(f"unknown curve format {format!r}")


def _parse_curves_csv(text: str) -> list[CurveSeries]:
    reader = csv.reader(_stdio.StringIO(text))
    header = next(reader, None)
    if header != ["series", "x_kind", "x", "y"]:
        raise ValidationError(f"unexpected curve header {header!r}")
    out: list[CurveSeries] = []
    current: tuple[str, str] | None = None
    points: list[tuple[Fraction, Fraction]] = []
    for row in reader:
        if not row:
            continue
        name, kind, x, y = row
        if current is not None and (name, kind) != current:
            out.append(CurveSeries(name=current[0], x_kind=XKind(current[1]),
                                   points=tuple(points)))
            points = []
        current = (name, kind)
        points.append((Fraction(float(x)), Fraction(float(y))))
    if current is not None:
        out.append(CurveSeries(name=current[0], x_kind=XKind(current[1]),
                               points=tuple(points)))
    return out


def _parse_curves_json(text: str) -> list[CurveSeries]:
    payload = json.loads(text)
    out = []
    for s in payload["series"]:
        points = tuple(
            (Fraction(p["x_exact"]), Fraction(p["y_exact"]))
            for p in s["points"])
        out.append(CurveSeries(name=s["name"], x_kind=XKind(s["x_kind"]),
                               points=points))
    return out


# ---------------------------------------------------------------------------
# resample summary serialization
# ---------------------------------------------------------------------------

def summary_to_json(summary: ResampleSummary) -> str:
    """Canonical json for a resample summary: key-sorted, shortest-roundtrip
    floats, so equal summaries serialize to identical bytes."""
    payload = {
        "grid": list(summary.grid),
        "sample_size": summary.sample_size,
        "replicate_count": summary.replicate_count,
        "seed": summary.seed,
        "bands": [
            {
                "target_rate": band.target_rate,
                "realized_rate": band.realized_rate,
                "n_pos": band.n_pos,
                "mean_auc": band.mean_auc,
                "p_cum_gains": {
                    "mean": list(band.p_cum_gains.mean),
                    "min": list(band.p_cum_gains.min),
                    "max": list(band.p_cum_gains.max),
                },
                "lift": {
                    "mean": list(band.lift.mean),
                    "min": list(band.lift.min),
                    "max": list(band.lift.max),
                },
            }
            for band in summary.bands
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def summary_to_csv(summary: ResampleSummary) -> str:
    """Long-format delimited text: one row per (rate, metric, stat, grid point)."""
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["target_rate", "metric", "stat", "fraction", "value"])
    for band in summary.bands:
        for metric_name, stats in (("p_cum_gains", band.p_cum_gains),
                                   ("lift", band.lift)):
            for stat_name, values in (("mean", stats.mean),
                                      ("min", stats.min),
                                      ("max", stats.max)):
                for f, v in zip(summary.grid, values):
                    writer.writerow([band.target_rate, metric_name,
                                     stat_name, repr(f), repr(v)])
    return buf.getvalue()
