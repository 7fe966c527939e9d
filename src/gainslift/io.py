"""Reading scored files and serializing curves and summaries.

Input is delimited text (header row required) or json-lines, read into
validated id, score and label columns; delimited text is converted a column
at a time and scanned row by row only to name a fault. A delimited file with
an ASCII delimiter, no quote or NUL byte, no carriage return but in a CRLF
line end, the header's field count on every non-blank line and no line over
the csv module's field size limit is split in blocks of whole lines; any
other file is read by the csv module, so both give the same columns and the
same errors. Curve output is delimited text with shortest-roundtrip floats,
or json carrying exact numerator/denominator fields so a re-parse reproduces
the rationals bit for bit; each run of equal values in a column is formatted
once.
"""

from __future__ import annotations

import codecs
import csv
import io as _stdio
import json
import math
import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .metrics import CurveSeries, XKind
from .records import RankedTestSet, ScoredRecord
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
    # JSON true and 1.0 compare equal to 1; only literal 0/1 count
    if type(raw) is int and raw in (0, 1):
        return raw
    if isinstance(raw, str) and raw.strip() in ("0", "1"):
        return int(raw.strip())
    raise ValidationError(f"row {row}: label must be 0 or 1, got {raw!r}")


def _parse_score(raw, row: int) -> float:
    try:
        if isinstance(raw, bool):  # float(True) is 1.0; JSON true is no score
            raise TypeError
        value = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"row {row}: score {raw!r} is not a number") from None
    except OverflowError:  # a json integer, maybe too long to repr
        raise ValidationError(f"row {row}: score is beyond the float range") from None
    if not math.isfinite(value):
        raise ValidationError(f"row {row}: score {raw!r} is not finite")
    return value


def guess_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    return "jsonl" if suffix in (".jsonl", ".ndjson") else "csv"


def load_scored(file: ScoredFile | str | Path, **overrides) -> list[ScoredRecord]:
    """Read scored records, preserving row order (it decides tie-breaking
    under the input-order policy). Errors name the offending row."""
    ids, scores, labels = _load_columns(file, **overrides)
    return list(map(ScoredRecord, ids.tolist(), scores.tolist(),
                    labels.tolist()))


def _load_columns(file: ScoredFile | str | Path, **overrides
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A scored file's validated ids (object array), float64 scores and
    int64 labels in row order; the command line's one check for repeated ids."""
    if not isinstance(file, ScoredFile):
        file = ScoredFile(path=file, format=guess_format(file))
    file = replace(file, **overrides)
    read = {"csv": _read_csv, "jsonl": _read_jsonl}.get(file.format)
    if read is None:
        raise ValidationError(f"unknown input format {file.format!r}")
    ids, scores, labels = read(file)
    if not ids:
        raise ValidationError(f"{file.path}: no data rows")
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for rid in ids:
            if rid in seen:
                raise ValidationError(f"{file.path}: duplicate id {rid!r}")
            seen.add(rid)
    return (np.array(ids, dtype=object), np.asarray(scores, dtype=np.float64),
            np.array(labels, dtype=np.int64))


_CSV_LABELS = {"0": 0, "1": 1}


@contextmanager
def _unreadable_named(file: ScoredFile):
    """Report bytes that are not UTF-8, and csv fields over the csv module's
    size limit, as a ValidationError naming the file."""
    try:
        yield
    except UnicodeDecodeError:
        raise ValidationError(f"{file.path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ValidationError(f"{file.path}: {exc}") from None


def _read_csv(file: ScoredFile) -> tuple[list, Sequence[float], list]:
    """Ids, scores and labels of the data rows, each converted as a whole
    column; when a column check fails, `_scan_rows` names the first fault."""
    if len(file.delimiter) != 1:
        raise ValidationError(
            f"delimiter {file.delimiter!r} is not one character")
    with _unreadable_named(file), open(file.path, "rb") as raw:
        columns = None
        if raw.seekable():  # a pipe can be read only once
            columns = _plain_texts(raw, file)
            raw.seek(0)
        if columns is None:
            # utf-8-sig drops a leading byte-order mark, which would
            # otherwise stick to the first header name
            with _stdio.TextIOWrapper(raw, encoding="utf-8-sig",
                                      newline="") as handle:
                columns = _csv_texts(handle, file)
    label_texts, score_texts, *id_texts = columns
    ids = id_texts[0] if id_texts else \
        list(map(str, range(1, len(label_texts) + 1)))
    labels = list(map(_CSV_LABELS.get, label_texts))
    try:
        scores = np.fromiter(map(float, score_texts), dtype=np.float64,
                             count=len(score_texts))
        valid = None not in labels and np.isfinite(scores).all() and all(ids)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        labels, scores = _scan_rows(ids, score_texts, label_texts)
    return ids, scores, labels


def _header_columns(file: ScoredFile, header: list[str]) -> list[int]:
    """Positions of the label, score and (if any) id columns in the header."""
    # a repeated column name refers to its last occurrence
    column = {name: i for i, name in enumerate(header)}
    id_col = "id" if file.id_col is None and "id" in column else file.id_col
    names = [file.label_col, file.score_col] + ([] if id_col is None else [id_col])
    for col in names:
        if col not in column:
            raise ValidationError(
                f"{file.path}: column {col!r} not in header {sorted(column)}")
    return [column[name] for name in names]


def _csv_texts(handle, file: ScoredFile) -> list[list]:
    """The label, score and id columns' texts as the csv module reads them;
    a short row reads its missing fields as None."""
    reader = csv.reader(handle, delimiter=file.delimiter)
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{file.path}: missing header row")
    at = _header_columns(file, header)
    width = max(at) + 1
    rows = filter(None, reader)  # blank lines are not counted
    columns = [[] for _ in at]
    # a few thousand rows at a time, so that the rows are never all held
    while chunk := list(islice(rows, 4096)):
        if min(map(len, chunk)) < width:  # a short row lacks its last fields
            chunk = [row + [None] * (width - len(row)) for row in chunk]
        for col, i in zip(columns, at):
            col += map(itemgetter(i), chunk)
    return columns


# Delimited text is read in blocks of whole lines of about this many bytes,
# so the block size, not the file, sets the memory a read holds beyond its
# columns.
_BLOCK_BYTES = 1 << 16
_BLANK_LINE = re.compile(rb"(?m)^\n")


def _plain_texts(raw, file: ScoredFile) -> list[list] | None:
    """The texts `_csv_texts` would return, split from whole blocks of lines
    without tokenizing each field; None unless the bytes show that no csv
    rule applies (see `_plain_fields`), and then the caller reads the file
    again from its start through the csv module. A header that lacks a
    column also gives None: the csv module names it, after reading what it
    reads first."""
    d = file.delimiter
    if not d.isascii() or d in '"\r\n\0':
        return None
    limit = csv.field_size_limit()
    blocks = _line_blocks(raw, limit)
    first = next(blocks, None)
    if first is None:
        return None
    head, _, body = first.removeprefix(codecs.BOM_UTF8).partition(b"\n")
    # the header line passes the same checks, with its own field count
    header = _plain_fields(head + b"\n", d, head.count(d.encode()) + 1, limit)
    if not header:  # a blank first line is the csv module's empty header
        return None
    try:
        at = _header_columns(file, header)
    except ValidationError:
        return None
    width = len(header)
    columns = [[] for _ in at]
    for block in chain([body], blocks):
        fields = None if block is None else _plain_fields(block, d, width, limit)
        if fields is None:
            return None
        for col, i in zip(columns, at):
            col += fields[i::width]
    return columns


def _line_blocks(raw, limit: int):
    """The file's bytes in blocks of whole lines, each ending in a newline
    (one is added after an unterminated last line); then None, and no more,
    if a line runs past `limit` bytes before its end is found."""
    # the bytes read since the last newline; a bytearray grows in place, so a
    # line over many reads is copied once, not once a read
    pending = bytearray()
    while data := raw.read(_BLOCK_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            pending += memoryview(data)[:cut]
            yield pending
            pending = bytearray(memoryview(data)[cut:])
        else:
            pending += data
        if len(pending) > limit:
            yield None
            return
    if pending:
        yield pending + b"\n"


def _plain_fields(block: bytes, d: str, width: int, limit: int
                  ) -> list[str] | None:
    """The fields of a block of whole lines, row after row, with blank
    lines dropped; or None where the csv module could read the block
    otherwise than by splitting: a quote or NUL byte, a carriage return not
    directly before a newline, a non-blank line without exactly `width`
    fields, a line longer than `limit` bytes (the csv module's field size
    limit), or bytes that are not UTF-8."""
    if b"\r" in block:
        # a CRLF line end reads as LF; the csv module also ends a line at
        # any other carriage return, so one left over sends the file to it
        block = block.replace(b"\r\n", b"\n")
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    if block.startswith(b"\n") or b"\n\n" in block:
        block = _BLANK_LINE.sub(b"", block)
    view = np.frombuffer(block, dtype=np.uint8)
    newline = view == 10
    ends = np.flatnonzero(newline | (view == ord(d)))  # field ends
    # each line's last field end is its newline, and there are no others
    line_ends = ends[width - 1::width]
    if len(ends) != width * np.count_nonzero(newline) \
            or not newline[line_ends].all() \
            or (np.diff(line_ends, prepend=-1) > limit + 1).any():
        return None
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    fields = text.replace("\n", d).split(d)
    del fields[-1]  # the empty text after the last line's end
    return fields


def _scan_rows(ids, score_texts, label_texts) -> tuple[list[int], list[float]]:
    """Parse each row's label (leniently, as ' 1'), then its score, then
    check its id: raise the first fault, or return the labels and scores."""
    labels, scores = [], []
    for row_no, (rid, raw_score, raw_label) in enumerate(
            zip(ids, score_texts, label_texts), start=1):
        labels.append(_parse_label(raw_label, row_no))
        scores.append(_parse_score(raw_score, row_no))
        if not rid:
            raise ValidationError(f"row {row_no}: empty id")
    return labels, scores


def _read_jsonl(file: ScoredFile) -> tuple[list[str], list[float], list[int]]:
    ids, scores, labels = [], [], []
    id_col = file.id_col or "id"
    with _unreadable_named(file), open(file.path, encoding="utf-8") as handle:
        # blank lines are skipped and not counted
        for row_no, line in enumerate(filter(str.strip, handle), start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"row {row_no}: bad json ({exc})") from None
            except ValueError:  # an integer past int's string-conversion limit
                raise ValidationError(
                    f"row {row_no}: an integer has too many digits") from None
            except RecursionError:
                raise ValidationError(
                    f"row {row_no}: json nested too deeply") from None
            # a row that is not an object, such as 5 or a list, has no fields
            if not isinstance(obj, dict) or file.label_col not in obj \
                    or file.score_col not in obj:
                raise ValidationError(
                    f"row {row_no}: missing {file.label_col!r} or "
                    f"{file.score_col!r} field")
            labels.append(_parse_label(obj[file.label_col], row_no))
            scores.append(_parse_score(obj[file.score_col], row_no))
            ids.append(str(obj[id_col]) if id_col in obj else str(row_no))
    return ids, scores, labels


def save_scored(records: Sequence[ScoredRecord] | RankedTestSet, out) -> None:
    """Write records, or a ranked set in rank order, as delimited text with
    an id,score,label header."""
    if isinstance(records, RankedTestSet):
        rows = zip(records.ids, map(repr, records.scores), records.labels)
    else:
        rows = ((r.id, repr(r.score), r.label) for r in records)
    with (open(out, "w", newline="", encoding="utf-8")
          if isinstance(out, (str, Path)) else nullcontext(out)) as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "score", "label"])
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# curve serialization
# ---------------------------------------------------------------------------

def emit_curves(series: Sequence[CurveSeries], format: str = "csv") -> str:
    """The text of the series, for the caller to write.

    csv is one row per point with shortest-roundtrip floats; json adds exact
    'num/den' fields so parsing recovers the rationals unchanged. Each run
    of equal values in a column is formatted once and its text repeated.
    """
    if not series:
        raise ValidationError("no series to emit")
    if format == "csv":
        return _curves_csv(series)
    if format == "json":
        return _curves_json(series)
    raise ValidationError(f"unknown curve format {format!r}")


def _curves_csv(series: Sequence[CurveSeries]) -> str:
    buf = _stdio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["series", "x_kind", "x", "y"])
    for s in series:
        # the csv module quotes the name and kind once; a float's repr never
        # needs quoting, so every row is that prefix and the two reprs
        head = _stdio.StringIO()
        csv.writer(head).writerow([s.name, s.x_kind.value, ""])
        prefix = head.getvalue()[:-2]
        buf.writelines(f"{prefix}{x},{y}\r\n"
                       for x, y in zip(s.x.reprs(), s.y.reprs()))
    return buf.getvalue()


def _curves_json(series: Sequence[CurveSeries]) -> str:
    """The text of json.dumps(payload, indent=2) + newline for the payload
    {"series": [{"name", "x_kind", "points": [{"x", "y", "x_exact",
    "y_exact"}, ...]}, ...]}, written from the columns directly: the json
    module's indented encoder is its slow pure-Python one. Floats are
    written by repr, as the json module writes them, and the exact texts
    hold only digits, '-' and '/', which need no escaping."""
    blocks = []
    for s in series:
        points = ",\n".join(
            f'        {{\n          "x": {x},\n          "y": {y},\n'
            f'          "x_exact": "{x_exact}",\n'
            f'          "y_exact": "{y_exact}"\n        }}'
            for x, y, x_exact, y_exact in zip(s.x.reprs(), s.y.reprs(),
                                              s.x.texts(), s.y.texts()))
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
    # vars turns each frozen dataclass into its field dict, so resample.py
    # alone sets the layout; a class given slots=True has no __dict__ and
    # makes vars raise TypeError rather than change the output
    return json.dumps(summary, default=vars, sort_keys=True, indent=2) + "\n"


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
