"""Reading scored files and serializing curves and summaries.

Input is delimited text (header row required) or json-lines, read into
validated id, score and label columns. A delimited file with an ASCII
delimiter, no quote or NUL byte, no carriage return but in a CRLF line end,
the header's field count on every non-blank line and no line over the csv
module's field size limit is read in blocks of whole lines (the block
route), and each block's columns are converted from its bytes before the
next is read: labels of exactly `0` or `1`, scores by `float`, ids into
64-bit keys whose sorted repeats are looked for once the file is read.
Where a block's score texts are each at most eight bytes, each distinct
text is parsed once. Id texts and row numbers are made only for a
caller that reads them (`_load_columns`'s `id_form`); on the command line
that is `perturb`. The `id` tie policy sorts what the block route kept:
where every id has at most eight bytes, their 64-bit keys, each of which is
then the id's bytes; else the ids' bytes, gathered only from the blocks that
hold a longer id and written back from the keys in the others.
Where a value fails its check, or two id keys are equal, the block route
stops, and the csv module reads the file from its start, as it reads every
other delimited file. Its texts are converted a column at a time and
scanned row by row only to name a fault, so both routes give the same
columns and the same errors. A pipe can be read only once, so its bytes are
read whole and kept, and both routes read them as they read a file.

Curve output is delimited text with shortest-roundtrip floats, or json
carrying exact numerator/denominator fields so a re-parse reproduces the
rationals bit for bit; each run of equal values in a column is formatted
once. The command line streams a curve 1,024 points at a time
(`_curve_pieces`), and `emit_curves` joins the same pieces.
"""

from __future__ import annotations

import codecs
import csv
import io as _stdio
import json
import math
import re
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, groupby, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .metrics import CurveSeries, RationalColumn, XKind
from .records import RankedTestSet, ScoredRecord, _any_equal, _id_word
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


def _load_columns(file: ScoredFile | str | Path, *,
                  id_form: str | None = "texts", **overrides
                  ) -> tuple[np.ndarray | bytes | None, np.ndarray,
                             np.ndarray]:
    """A scored file's validated ids, float64 scores and int64 labels in row
    order; the command line's one check for repeated ids.

    The block route (`_plain_texts`) converts each block's labels and scores
    as it reads, and checks the ids by sorted 64-bit keys of their bytes; a
    file it turns down, for its bytes or for a value that fails a check, is
    read from its start by the csv module. The csv-module and json-lines
    routes check the texts' sorted hashes. A file with no id column or field
    gets its row numbers here, and only where the ids are wanted.
    `id_form` says how the ids come back: "texts", an object array of str;
    "bytes", the block route's ids for `records._rows_by_id` to order (a
    uint64 column of their keys, which are their words, where every id has
    at most eight bytes, else their bytes, each followed by a newline), but
    texts from any other route or for row numbers; or None, for ids that are
    checked but not wanted: the block route then neither keeps them nor
    turns one into a Python string."""
    if not isinstance(file, ScoredFile):
        file = ScoredFile(path=file, format=guess_format(file))
    file = replace(file, **overrides)
    if file.format == "csv":
        ids, scores, labels = _read_csv(file, id_form is not None)
    elif file.format == "jsonl":
        ids, scores, labels = _read_jsonl(file)
    else:
        raise ValidationError(f"unknown input format {file.format!r}")
    if not len(labels):
        raise ValidationError(f"{file.path}: no data rows")
    if isinstance(ids, list):  # texts, not yet checked for repeats
        _check_distinct(ids, file)
    if id_form is None:
        ids = None
    elif ids is None:  # no id column: row numbers
        ids = list(map(str, range(1, len(labels) + 1)))
    elif id_form == "texts" and not isinstance(ids, list):  # the block route's
        if isinstance(ids, np.ndarray):
            ids = _word_bytes(ids)
        ids = ids.decode("utf-8").split("\n")[:-1]
    return (np.array(ids, dtype=object) if isinstance(ids, list) else ids,
            np.asarray(scores, dtype=np.float64),
            np.asarray(labels, dtype=np.int64))


def _check_distinct(ids: list[str], file: ScoredFile) -> None:
    """Raise for the first id that repeats an earlier one. The ids' sorted
    hashes are compared first, as `records._columns` compares a record
    set's, so distinct ids that merely share a hash pass."""
    if not _any_equal(np.fromiter(map(hash, ids), np.int64, count=len(ids))):
        return
    seen: set[str] = set()
    for rid in ids:
        if rid in seen:
            raise ValidationError(f"{file.path}: duplicate id {rid!r}")
        seen.add(rid)


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


def _read_csv(file: ScoredFile, keep_ids: bool
              ) -> tuple[list | bytes | None, Sequence[float], Sequence[int]]:
    """Ids (None with no id column), scores and labels of the data rows: as
    the block route converts them (see `_plain_texts`), or else, where that
    route turns the file down, from the texts the csv module reads from the
    file's start, each converted as a whole column; when a column check
    fails, `_scan_rows` names the first fault. A pipe, which can be read
    only once, is read whole into memory first, so that both routes read the
    same bytes."""
    if len(file.delimiter) != 1:
        raise ValidationError(
            f"delimiter {file.delimiter!r} is not one character")
    with _unreadable_named(file), open(file.path, "rb") as raw:
        if not raw.seekable():
            raw = _stdio.BytesIO(raw.read())
        converted = _plain_texts(raw, file, keep_ids)
        if converted is not None:
            return converted
        raw.seek(0)
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # stick to the first header name
        with _stdio.TextIOWrapper(raw, encoding="utf-8-sig",
                                  newline="") as handle:
            label_texts, score_texts, *ids = _csv_texts(handle, file)
    ids = ids[0] if ids else None  # no id column
    try:
        # a lenient label, as ' 1', is stripped here as `_parse_label`
        # strips it; `float` strips a score itself
        labels = list(map(_CSV_LABELS.get, map(str.strip, label_texts)))
        scores = np.fromiter(map(float, score_texts), dtype=np.float64,
                             count=len(score_texts))
        valid = (None not in labels and np.isfinite(scores).all()
                 and (ids is None or all(ids)))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        _scan_rows(ids, score_texts, label_texts)
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
# odd, so that each step of `_id_keys` is invertible modulo 2**64
_KEY_STEP = np.uint64(0x9E3779B97F4A7C15)


def _plain_texts(raw, file: ScoredFile, keep_ids: bool
                 ) -> tuple[np.ndarray | bytes | None, np.ndarray,
                            np.ndarray] | None:
    """The file's columns (ids, scores, labels), read from whole blocks of
    lines without tokenizing each field: the ids (None without an id column
    or where the ids are not wanted), float64 scores and int64 labels. The
    ids are a uint64 column of their keys where every id has at most eight
    bytes, and else their bytes, each followed by a newline. None where the
    bytes show that a csv rule may apply (see `_field_ends`), where the
    header lacks a column (the csv module names it, after reading what it
    reads first), or where a value fails a check. The caller then reads the
    file again from its start through the csv module.

    Each block's labels and scores are converted, and its ids turned into
    64-bit keys, before the next block is read (`_block_columns`); the keys
    of the whole file are sorted once to find a repeat; the ids are kept
    only for a caller that wants them (`keep_ids`), as keys from a block
    whose ids have at most eight bytes each, written back as bytes
    (`_word_bytes`) only where another block holds a longer id. The checks
    that give None are a label other than `0` or `1`, a score `float`
    rejects or that is not finite, an empty id, and two equal keys: the csv
    route accepts a lenient label, names the faulty row, and finds ids
    whose keys merely collide distinct."""
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
    cut = _field_ends(head + b"\n", d, head.count(d.encode()) + 1, limit)
    # a blank first line is the csv module's empty header
    if cut is None or not cut[0]:
        return None
    header = cut[0][:-1].decode("utf-8").split(d)
    try:
        at = _header_columns(file, header)
    except ValidationError:
        return None
    width = len(header)
    parts = []
    for block in chain([body], blocks):
        cut = None if block is None else _field_ends(block, d, width, limit)
        part = None if cut is None else _block_columns(*cut, width, at,
                                                       keep_ids)
        if part is None:
            return None
        parts.append(part)
    labels, scores, keys, ids = zip(*parts)
    if keys[0] is not None and _any_equal(np.concatenate(keys)):
        return None
    if ids[0] is None:
        ids = None
    elif all(isinstance(part, np.ndarray) for part in ids):
        ids = np.concatenate(ids)
    else:
        ids = b"".join(part if isinstance(part, bytes) else _word_bytes(part)
                       for part in ids)
    return ids, np.concatenate(scores), np.concatenate(labels).astype(np.int64)


def _line_blocks(raw, limit: int):
    """The file's bytes in blocks of whole lines, each ending in a newline
    (one is added after an unterminated last line): one read of
    `_BLOCK_BYTES`, and, where it stops inside a line, the line's rest by
    `readline(limit + 1)`, so at most `_BLOCK_BYTES` + `limit` + 1 bytes.
    Then None, and no more, where that rest runs past `limit`; a longer line
    with a shorter rest is left to `_field_ends`."""
    while data := raw.read(_BLOCK_BYTES):
        if not data.endswith(b"\n"):
            rest = raw.readline(min(limit + 1, sys.maxsize))  # a C ssize_t
            if len(rest) > limit:
                yield None
                return
            data += rest if rest.endswith(b"\n") else rest + b"\n"
        yield data


def _field_ends(block: bytes, d: str, width: int, limit: int
                ) -> tuple[bytes, np.ndarray] | None:
    """A block of whole lines with its blank lines dropped, and the offset
    of each field's end (its delimiter or newline), row after row; or None
    where the csv module could read the block otherwise than by splitting:
    a quote or NUL byte, a carriage return not directly before a newline, a
    non-blank line without exactly `width` fields, a line longer than
    `limit` bytes (the csv module's field size limit), or bytes that are
    not UTF-8.

    Blank lines are found from the newline mask that the field ends need
    anyway, and the block is rewritten only when it holds one; line lengths
    are checked only in a block longer than `limit` + 1 bytes."""
    if b"\r" in block:
        # a CRLF line end reads as LF; the csv module also ends a line at
        # any other carriage return, so one left over sends the file to it
        block = block.replace(b"\r\n", b"\n")
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    view = np.frombuffer(block, dtype=np.uint8)
    newline = view == 10
    # a blank line is a newline first or right after another; `[:1]`, as
    # the block may be empty
    if newline[:1].any() or (newline[1:] & newline[:-1]).any():
        block = _BLANK_LINE.sub(b"", block)
        view = np.frombuffer(block, dtype=np.uint8)
        newline = view == 10
    ends = np.flatnonzero(newline | (view == ord(d)))  # field ends
    # each line's last field end is its newline, and there are no others;
    # no line is longer than its block
    line_ends = ends[width - 1::width]
    if len(ends) != width * np.count_nonzero(newline) \
            or not newline[line_ends].all() \
            or (len(block) > limit + 1
                and (np.diff(line_ends, prepend=-1) > limit + 1).any()):
        return None
    try:
        if not block.isascii():
            block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return block, ends


def _block_columns(block: bytes, ends: np.ndarray, width: int,
                   at: list[int], keep_ids: bool):
    """A checked block's uint8 labels, float64 scores, and, with an id
    column, its ids' uint64 keys and, if `keep_ids`, its ids: the same keys
    where every id has at most eight bytes, as each is then the id's word,
    else their bytes (each followed by a newline); None in place of what is
    not there; None where a label is not exactly `0` or `1`, a score is not
    a finite number by `float`, or an id is empty. Where every score text
    in the block is at most eight bytes, each distinct one is parsed once
    (`_block_scores`)."""
    view = np.frombuffer(block, dtype=np.uint8)
    starts = np.empty_like(ends)  # each field's first byte
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    starts, ends = starts.reshape(-1, width), ends.reshape(-1, width)
    label, score, *id_col = at
    # b"0" and b"1" give 0 and 1; a byte below b"0" wraps past 1
    labels = view[starts[:, label]] - 48
    if not ((ends[:, label] - starts[:, label] == 1).all()
            and (labels <= 1).all()):
        return None
    scores = _block_scores(block, view, starts[:, score], ends[:, score])
    if scores is None:
        return None
    if not id_col:
        return labels, scores, None, None
    id_starts, id_ends = starts[:, id_col[0]], ends[:, id_col[0]]
    sizes = id_ends - id_starts
    if not sizes.all():
        return None
    keys = _id_keys(block, id_starts, sizes)
    if not keep_ids:
        return labels, scores, keys, None
    # ids of at most eight bytes are their keys: each id's word
    return (labels, scores, keys,
            keys if sizes.max(initial=0) <= 8
            else _field_bytes(view, id_starts, id_ends))


def _block_scores(block: bytes, view: np.ndarray, starts: np.ndarray,
                  ends: np.ndarray) -> np.ndarray | None:
    """The float64 scores of the texts view[starts[k]:ends[k]], each the
    `float` of its text; None where one is not a finite number.

    Where every text is at most eight bytes, each is one `records._id_word`,
    and equal words are equal texts, as no text holds a NUL byte: each
    distinct text is then parsed once and its float copied to its rows. A
    block with a longer text, or with no rows, parses every text."""
    sizes = ends - starts
    if not len(sizes) or sizes.max() > 8:
        return _parse_floats(view, starts, ends)
    blob = block + bytes(7)  # every text's word inside the buffer
    words = _id_word(blob, starts, sizes, 0)
    order = words.argsort()
    words = words[order]
    # the places in `order` where each distinct text's rows start
    first = np.flatnonzero(np.concatenate(([True], words[1:] != words[:-1])))
    rows = order[first]
    floats = _parse_floats(view, starts[rows], ends[rows])
    if floats is None:
        return None
    scores = np.empty(len(order), dtype=np.float64)
    scores[order] = np.repeat(floats, np.diff(first, append=len(order)))
    return scores


def _parse_floats(view: np.ndarray, starts: np.ndarray, ends: np.ndarray
                  ) -> np.ndarray | None:
    """The `float` of each text view[starts[k]:ends[k]]; None where one is
    not a finite number."""
    texts = _field_bytes(view, starts, ends)
    try:
        floats = np.fromiter(map(float, texts.split(b"\n")), np.float64,
                             count=len(starts))
    except ValueError:
        return None
    return floats if np.isfinite(floats).all() else None


def _field_bytes(view: np.ndarray, starts: np.ndarray, ends: np.ndarray
                 ) -> bytes:
    """The bytes of the fields view[starts[k]:ends[k]], each followed by a
    newline, one after another."""
    sizes = ends - starts + 1  # with the byte that ends the field
    after = np.cumsum(sizes)  # where the next field starts in the result
    index = np.repeat(starts - after + sizes, sizes)
    index += np.arange(len(index))
    out = view[index]
    out[after - 1] = 10
    return out.tobytes()


def _word_bytes(words: np.ndarray) -> bytes:
    """The ids of at most eight bytes whose `records._id_word`s are `words`,
    each followed by a newline: every nonzero byte of its word, as no id
    holds a NUL byte."""
    out = np.empty((len(words), 9), dtype=np.uint8)
    out[:, :8] = words.astype(">u8").view(np.uint8).reshape(-1, 8)
    out[:, 8] = 10
    out = out.ravel()
    return out[out != 0].tobytes()


def _id_keys(block: bytes, starts: np.ndarray, sizes: np.ndarray
             ) -> np.ndarray:
    """A uint64 key for each id of `sizes[k]` bytes at `starts[k]`.

    The key is the id's first eight bytes as `records._id_word` reads them,
    big-endian and zero-padded; each further word folds in as
    key * `_KEY_STEP` + word. Equal ids get equal keys. Distinct ids of at
    most eight bytes never share one, as none holds a NUL byte; longer ones
    seldom do."""
    blob = block + bytes(7)  # every id's last word inside the buffer
    rows = np.arange(len(starts))
    keys = _id_word(blob, starts, sizes, 0)
    for at in range(8, int(sizes.max(initial=0)), 8):
        rows = rows[sizes[rows] > at]
        keys[rows] = (keys[rows] * _KEY_STEP
                      + _id_word(blob, starts[rows], sizes[rows], at))
    return keys


def _scan_rows(ids, score_texts, label_texts) -> None:
    """Parse each row's label (leniently, as ' 1'), then its score, then
    check its id (if `ids` is not None), and raise the first fault: some
    row holds one wherever a column check of `_read_csv` fails."""
    for row_no, (raw_score, raw_label) in enumerate(
            zip(score_texts, label_texts), start=1):
        _parse_label(raw_label, row_no)
        _parse_score(raw_score, row_no)
        if ids is not None and not ids[row_no - 1]:
            raise ValidationError(f"row {row_no}: empty id")


def _read_jsonl(file: ScoredFile
                ) -> tuple[list[str] | None, list[float], list[int]]:
    ids, scores, labels = None, [], []  # ids stay None with no id field
    id_col = file.id_col or "id"
    # utf-8-sig drops a leading byte-order mark, as for delimited text
    with _unreadable_named(file), \
            open(file.path, encoding="utf-8-sig") as handle:
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
            if ids is not None or id_col in obj:  # from the first id field
                ids = ids or list(map(str, range(1, row_no)))  # rows before it
                ids.append(str(obj.get(id_col, row_no)))
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

# A curve is written this many points at a time, so the text held at once
# is one piece, not the whole output.
_CHUNK_POINTS = 1024


def emit_curves(series: Sequence[CurveSeries], format: str = "csv") -> str:
    """The text of the series, for the caller to write.

    csv is one row per point with shortest-roundtrip floats; json adds exact
    'num/den' fields so parsing recovers the rationals unchanged. Each run
    of equal values in a column is formatted once and its text repeated.
    The text is the join of the pieces the command line writes one by one.
    """
    return "".join(_curve_pieces(series, format))


def _curve_pieces(series: Sequence[CurveSeries], format: str
                  ) -> Iterator[str]:
    """The text of `emit_curves`, `_CHUNK_POINTS` points a piece. Every
    check runs before the first piece: a bad argument, or a value past the
    float range, raises here, so nothing has been written."""
    if not series:
        raise ValidationError("no series to emit")
    pieces = {"csv": _csv_pieces, "json": _json_pieces}.get(format)
    if pieces is None:
        raise ValidationError(f"unknown curve format {format!r}")
    # whole float columns, 8 bytes a point: only they can fail
    floats = [(s.x.floats(), s.y.floats()) for s in series]
    return pieces(series, floats)


def _chunks(column: RationalColumn, floats: np.ndarray):
    """The column and its floats, `_CHUNK_POINTS` values at a time."""
    for at in range(0, len(floats), _CHUNK_POINTS):
        cut = slice(at, at + _CHUNK_POINTS)
        yield RationalColumn(column.num[cut], column.den[cut]), floats[cut]


def _csv_pieces(series, floats) -> Iterator[str]:
    yield "series,x_kind,x,y\r\n"
    for s, (x_floats, y_floats) in zip(series, floats):
        # the csv module quotes the name and kind once; a float's repr never
        # needs quoting, so every row is that prefix and the two reprs
        head = _stdio.StringIO()
        csv.writer(head).writerow([s.name, s.x_kind.value, ""])
        prefix = head.getvalue()[:-2]
        for (x, xf), (y, yf) in zip(_chunks(s.x, x_floats),
                                    _chunks(s.y, y_floats)):
            yield "".join(f"{prefix}{a},{b}\r\n"
                          for a, b in zip(x._reprs(xf), y._reprs(yf)))


def _json_pieces(series, floats) -> Iterator[str]:
    """The text of json.dumps(payload, indent=2) + newline for the payload
    {"series": [{"name", "x_kind", "points": [{"x", "y", "x_exact",
    "y_exact"}, ...]}, ...]}, written from the columns directly: the json
    module's indented encoder is its slow pure-Python one. Floats are
    written by repr, as the json module writes them, and the exact texts
    hold only digits, '-' and '/', which need no escaping."""
    yield '{\n  "series": ['
    for i, (s, (x_floats, y_floats)) in enumerate(zip(series, floats)):
        yield ((",\n" if i else "\n") + '    {\n'
               f'      "name": {json.dumps(s.name)},\n'
               f'      "x_kind": {json.dumps(s.x_kind.value)},\n'
               f'      "points": [')
        before = "\n"  # what comes before a piece's first point
        for (x, xf), (y, yf) in zip(_chunks(s.x, x_floats),
                                    _chunks(s.y, y_floats)):
            yield before + ",\n".join(
                f'        {{\n          "x": {a},\n          "y": {b},\n'
                f'          "x_exact": "{a_exact}",\n'
                f'          "y_exact": "{b_exact}"\n        }}'
                for a, b, a_exact, b_exact in zip(x._reprs(xf), y._reprs(yf),
                                                  x.texts(), y.texts()))
            before = ",\n"
        yield "\n      ]\n    }" if len(s) else "]\n    }"
    yield "\n  ]\n}\n"


def parse_curves(text: str, format: str = "csv") -> list[CurveSeries]:
    """Inverse of emit_curves. The json path restores exact rationals.

    Each series' points are converted before its name and kind are read,
    and its name must be a string before its kind is converted; a csv row
    is split into its four fields as it is read, and consecutive rows of
    one (series, x_kind) are one series. A malformed text raises
    ValidationError, whose message holds the text of the first fault."""
    try:
        if format == "csv":
            reader = csv.reader(_stdio.StringIO(text))
            header = next(reader, None)
            if header != ["series", "x_kind", "x", "y"]:
                raise ValidationError(f"unexpected curve header {header!r}")
            rows = ((name, kind, x, y)
                    for name, kind, x, y in filter(None, reader))
            parsed = ((tuple((float(x), float(y)) for _, _, x, y in group),
                       *key)
                      for key, group in groupby(rows, itemgetter(0, 1)))
        elif format == "json":
            parsed = ((tuple((Fraction(p["x_exact"]), Fraction(p["y_exact"]))
                             for p in s["points"]), s["name"], s["x_kind"])
                      for s in json.loads(text)["series"])
        else:
            raise ValidationError(f"unknown curve format {format!r}")
        series = []
        for points, name, kind in parsed:
            if not isinstance(name, str):  # a json name such as 5 or null
                raise ValidationError("bad curve text: series name must be "
                                      f"a string, got {name!r}")
            series.append(CurveSeries(name=name, x_kind=XKind(kind),
                                      points=points))
        return series
    except KeyError as exc:
        raise ValidationError(f"bad curve text: missing key {exc}") from None
    # json.JSONDecodeError is a ValueError; ZeroDivisionError comes of an
    # exact text such as 1/0, OverflowError of a float past the range,
    # RecursionError of json nested past the recursion limit
    except (ValueError, ZeroDivisionError, OverflowError, TypeError,
            RecursionError) as exc:
        raise ValidationError(f"bad curve text: {exc}") from None


# ---------------------------------------------------------------------------
# resample summary serialization
# ---------------------------------------------------------------------------

def summary_to_json(summary: ResampleSummary) -> str:
    """Canonical json for a resample summary: key-sorted, shortest-roundtrip
    floats, so equal summaries serialize to identical bytes.

    The text is json.dumps(summary, default=vars, sort_keys=True, indent=2)
    and a newline, written directly: the json module's indented encoder is
    its slow pure-Python one."""
    return _json_text(summary, "\n") + "\n"


def _json_text(value, newline: str) -> str:
    """The json.dumps text of one value, nested after `newline` and its
    indent. Every all-finite float list is one join of reprs; other scalars
    take the json module's own text."""
    if isinstance(value, (str, int, float)) or value is None:
        if isinstance(value, float) and math.isfinite(value):
            return float.__repr__(value)
        return json.dumps(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if (all(type(v) is float for v in value)
                and all(map(math.isfinite, value))):
            items = map(float.__repr__, value)
        else:
            items = (_json_text(v, inner) for v in value)
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    # vars turns each frozen dataclass into its field dict, so resample.py
    # alone sets the layout; a class given slots=True has no __dict__ and
    # makes vars raise TypeError rather than change the output
    fields = value if isinstance(value, dict) else vars(value)
    if not fields:
        return "{}"
    return "{" + inner + f",{inner}".join(
        f"{json.dumps(key)}: {_json_text(fields[key], inner)}"
        for key in sorted(fields)) + newline + "}"


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
