import csv
import io
import json
import os
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gainslift import (CostSpec, ScoredFile, ScoredRecord, TiePolicy,
                       ValidationError, benefit_series, decile_series, emit_curves, example24_path,
                       gains_series, lift_series, load_scored, parse_curves,
                       random_targeting_series, rank_records, render_decimal,
                       roc_points, save_scored)
import gainslift.io as gio
from gainslift.io import _load_columns
from gainslift.metrics import CurveSeries, XKind
from gainslift.records import _rank_columns

from helpers import (curves_csv_oracle, curves_json_oracle, load_csv_oracle,
                     load_jsonl_oracle, random_scored_csv, random_scored_jsonl,
                     records_from_labels)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScored:
    def test_basic_csv(self, tmp_path):
        path = write(tmp_path, "a.csv", "label,score\n1,0.9\n0,0.1\n1,0.5\n")
        records = load_scored(path)
        assert len(records) == 3
        assert [r.label for r in records] == [1, 0, 1]
        assert [r.id for r in records] == ["1", "2", "3"]  # auto row ids

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "id,label,score\nx,1,0.5\ny,0,0.5\nz,1,0.5\n")
        records = load_scored(path)
        assert [r.id for r in records] == ["x", "y", "z"]

    def test_bundled_example_file(self):
        records = load_scored(example24_path())
        assert len(records) == 24
        ranked = rank_records(records)
        assert ranked.n_pos == 12
        assert ranked.labels[:8] == (1, 1, 1, 1, 1, 1, 1, 0)

    def test_non_binary_label_names_row(self, tmp_path):
        path = write(tmp_path, "a.csv", "label,score\n1,0.9\n2,0.1\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_scored(path)

    def test_truthy_strings_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "label,score\ntrue,0.9\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_scored(path)

    def test_bad_score_names_row(self, tmp_path):
        path = write(tmp_path, "a.csv", "label,score\n1,0.9\n0,oops\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_scored(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "id,label,score\nx,1,0.9\nx,0,0.1\n")
        with pytest.raises(ValidationError, match="duplicate id"):
            load_scored(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "label,value\n1,0.9\n")
        with pytest.raises(ValidationError, match="'score'"):
            load_scored(path)

    def test_custom_delimiter_and_columns(self, tmp_path):
        path = write(tmp_path, "a.txt", "y;p\n1;0.7\n0;0.2\n")
        file = ScoredFile(path=path, format="csv", delimiter=";",
                          label_col="y", score_col="p")
        records = load_scored(file)
        assert [r.score for r in records] == [0.7, 0.2]

    def test_overrides_apply_to_a_scored_file(self, tmp_path):
        path = write(tmp_path, "semi.csv", "id;label;score\na;1;0.7\nb;0;0.2\n")
        records = load_scored(ScoredFile(path), delimiter=";")
        assert [(r.id, r.score, r.label) for r in records] == [
            ("a", 0.7, 1), ("b", 0.2, 0)]
        # fields the overrides leave alone keep the file's values
        file = ScoredFile(path, delimiter=";", label_col="y")
        assert load_scored(file, label_col="label") == records

    @pytest.mark.parametrize("name, format", [
        ("x.csv", "csv"), ("x.data", "jsonl"), ("x.jsonl", "csv")])
    def test_format_override_on_a_path(self, tmp_path, name, format):
        text = ('{"id": "a", "label": 1, "score": 0.7}\n' if format == "jsonl"
                else "id,label,score\na,1,0.7\n")
        path = write(tmp_path, name, text)
        assert load_scored(path, format=format) == [ScoredRecord("a", 0.7, 1)]
        assert load_scored(str(path), format=format) == [
            ScoredRecord("a", 0.7, 1)]

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = write(tmp_path, "a.csv", "label,score\n1,0.9\n")
        file = ScoredFile(path=path, delimiter=delimiter)
        with pytest.raises(ValidationError,
                           match=f"delimiter {delimiter!r} is not one character"):
            load_scored(file)

    def test_unknown_format(self, tmp_path):
        path = write(tmp_path, "a.csv", "label,score\n1,0.9\n")
        with pytest.raises(ValidationError,
                           match="unknown input format 'xml'"):
            _load_columns(ScoredFile(path=path, format="xml"))

    def test_jsonl(self, tmp_path):
        lines = [json.dumps({"id": "a", "score": 0.9, "label": 1}),
                 json.dumps({"id": "b", "score": 0.4, "label": 0})]
        path = write(tmp_path, "a.jsonl", "\n".join(lines) + "\n")
        records = load_scored(path)
        assert [r.id for r in records] == ["a", "b"]
        assert [r.label for r in records] == [1, 0]

    def test_jsonl_label_must_be_numeric_binary(self, tmp_path):
        path = write(tmp_path, "a.jsonl",
                     json.dumps({"score": 0.9, "label": "yes"}) + "\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_scored(path)

    @pytest.mark.parametrize("obj", [
        {"score": 0.9, "label": True},
        {"score": 0.9, "label": 1.0},
        {"score": True, "label": 1},
    ])
    def test_jsonl_rejects_bool_and_float_labels_and_bool_scores(self, tmp_path, obj):
        path = write(tmp_path, "a.jsonl",
                     json.dumps({"score": 0.5, "label": 0}) + "\n"
                     + json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_scored(path)

    def test_csv_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("label,score\n1,0.9\n0,0.1\n", encoding="utf-8-sig")
        records = load_scored(path)
        assert [(r.label, r.score) for r in records] == [(1, 0.9), (0, 0.1)]

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "label,score\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_scored(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        for name, data in (("a.csv", b"label,score\n1,0.9\n\xff\xfe,0.1\n"),
                           ("b.jsonl", b'{"label": 1, "score": 0.9}\n\xff\n')):
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(ValidationError) as info:
                load_scored(path)
            assert str(info.value) == f"{path}: not UTF-8 text"

    def test_oversize_csv_field_names_the_file(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "id,label,score\n" + "x" * 200_000 + ",1,0.9\n")
        with pytest.raises(ValidationError) as info:
            load_scored(path)
        assert str(info.value) == (
            f"{path}: field larger than field limit (131072)")


class TestSaveScored:
    def test_round_trip(self, tmp_path, plain_reads):
        records = records_from_labels([1, 0, 1], [0.9, 0.5, 0.25])
        out = tmp_path / "out.csv"
        save_scored(records, out)
        again = load_scored(out)
        assert [(r.id, r.score, r.label) for r in again] == \
            [(r.id, r.score, r.label) for r in records]
        # its CRLF line ends do not send the file to the csv module
        assert b"\r\n" in out.read_bytes() and plain_reads == [True]


class TestEmitCurves:
    def test_example24_fraction_rows(self, example24):
        text = emit_curves([gains_series(example24, fraction=True)],
                           format="csv")
        rows = text.strip().splitlines()
        assert len(rows) == 25  # header + 24 points
        row12 = rows[12].split(",")
        assert render_decimal(Fraction(float(row12[3]))) == "0.83333"

    def test_empty_series_list_rejected(self):
        with pytest.raises(ValidationError, match="no series"):
            emit_curves([], format="csv")

    def test_json_round_trip_is_exact(self, example24):
        series = [gains_series(example24, fraction=True),
                  roc_points(example24)]
        text = emit_curves(series, format="json")
        again = parse_curves(text, format="json")
        assert again == list(series)

    def test_csv_round_trip_preserves_floats(self, example24):
        series = [gains_series(example24, fraction=True)]
        text = emit_curves(series, format="csv")
        again = parse_curves(text, format="csv")
        assert [s.name for s in again] == ["gains"]
        original = series[0].as_floats()
        parsed = again[0].as_floats()
        assert parsed == original

    def test_csv_floats_have_full_precision(self):
        series = CurveSeries(name="s", x_kind=XKind.COUNT,
                             points=((Fraction(1), Fraction(5, 6)),))
        text = emit_curves([series], format="csv")
        assert "0.8333333333333334" in text

    def test_csv_round_trip_keeps_series_apart(self, example24):
        series = [gains_series(example24, fraction=True),
                  roc_points(example24)]
        again = parse_curves(emit_curves(series, format="csv"), format="csv")
        assert [(s.name, s.x_kind) for s in again] == \
            [(s.name, s.x_kind) for s in series]
        assert [s.as_floats() for s in again] == [s.as_floats() for s in series]


class TestCurveSeriesValidation:
    def test_strictly_increasing_x_enforced(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            CurveSeries(name="bad", x_kind=XKind.COUNT,
                        points=((Fraction(1), Fraction(0)),
                                (Fraction(1), Fraction(1))))

    def test_fpr_series_may_repeat_x(self):
        series = CurveSeries(name="roc", x_kind=XKind.FPR,
                             points=((Fraction(0), Fraction(0)),
                                     (Fraction(0), Fraction(1)),
                                     (Fraction(1), Fraction(1))))
        assert len(series.points) == 3

    def test_fpr_series_must_not_decrease(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            CurveSeries(name="roc", x_kind=XKind.FPR,
                        points=((Fraction(1), Fraction(0)),
                                (Fraction(0), Fraction(1))))


@pytest.fixture
def plain_reads(monkeypatch):
    """For each delimited file read, whether the plain route read it."""
    reads = []
    plain_texts = gio._plain_texts

    def spy(raw, file):
        columns = plain_texts(raw, file)
        reads.append(columns is not None)
        return columns

    monkeypatch.setattr(gio, "_plain_texts", spy)
    return reads


def _outcome(load, file):
    """The records a loader returns, or the type and text of what it raises."""
    try:
        return [(r.id, r.score, r.label) for r in load(file)]
    except ValidationError as exc:
        return ("ValidationError", str(exc))


class TestLoaderAgainstDictReader:
    """The streaming `csv.reader` loader against the `csv.DictReader`
    loader it replaced, on the inputs where their handling could part."""

    @pytest.mark.parametrize("text,options", [
        ("id,score,label\na,0.5,1\n\nb,0.4,0\n\n\nc,0.3,1\n", {}),
        ("score,label\n\n0.5,1\n0.4,0\n0.3,x\n", {}),
        ("\nscore,label\n0.5,1\n", {}),
        ("", {}),
        ("score,label,id\n0.5,1,a\n0.4,0\n", {}),
        ("score,label,id\n0.5,1,a\n0.4\n", {}),
        ("score,label,id\n0.5,1,a\n0.4,0,b,extra,fields\n", {}),
        ("label,score,label\n1,0.5,0\n0,0.4,1\n", {}),
        ("label,score,label\n1,0.5,0\n0,0.4\n", {}),
        ("score,label,score,id\n0.9,1,0.1,a\n0.8,0,0.2,b\n", {}),
        ("id,score,label\na,0.5,1\n,0.4,0\n", {}),
        ("id,score,label\na,0.5,1\na,0.4,0\n", {}),
        ("y;p;name\n1;0.7;u\n0; 0.2 ;v\n1;1e-3;w\n", {
            "delimiter": ";", "label_col": "y", "score_col": "p",
            "id_col": "name"}),
        ("score,label\n0.5, 1 \n0.4,0\n", {}),
        ("score,label\n0.5,1\n0.4,0\n", {"id_col": "key"}),
        ("score,label\nnan,1\n", {}),
        ('id,score,label\n"a,b",0.5,1\n"say ""hi""",0.4,0\n', {}),
    ])
    def test_same_records_or_same_error(self, tmp_path, text, options):
        path = write(tmp_path, "in.csv", text)
        file = ScoredFile(path=path, format="csv", **options)
        assert _outcome(load_scored, file) == _outcome(load_csv_oracle, file)

    def test_random_files(self, tmp_path):
        rng = np.random.default_rng(5150)
        for k in range(40):
            lines = ["id,score,label"]
            for i in range(int(rng.integers(1, 30))):
                kind = rng.random()
                if kind < 0.05:
                    lines.append("")
                elif kind < 0.08:
                    lines.append(f"x{i},0.5")
                else:
                    lines.append(f"x{i},{rng.random()!r},{int(rng.integers(0, 2))}")
            path = write(tmp_path, f"r{k}.csv", "\n".join(lines) + "\n")
            file = ScoredFile(path=path)
            assert _outcome(load_scored, file) == _outcome(load_csv_oracle, file)


class TestLoaderAgainstOracles:
    """`load_scored` against the per-row loaders in `helpers`, on seeded
    random files and on the error cases: the same records, or the same
    error message with the same row number."""

    def test_random_csv_files(self, tmp_path, plain_reads):
        rng = np.random.default_rng(20240)
        failures = 0
        for k in range(300):
            # every other file holds no quoted id, so most of those take
            # the plain route and the rest the csv module
            text, options, encoding = random_scored_csv(
                rng, quote_rate=0.1 if k % 2 else 0.0)
            path = tmp_path / f"r{k}.csv"
            path.write_text(text, encoding=encoding)
            file = ScoredFile(path=path, format="csv", **options)
            expected = _outcome(load_csv_oracle, file)
            assert _outcome(load_scored, file) == expected, text
            failures += isinstance(expected, tuple)
        assert 30 < failures < 270  # both outcomes are well exercised
        assert 60 < plain_reads.count(True) and 60 < plain_reads.count(False)

    def test_random_jsonl_files(self, tmp_path):
        rng = np.random.default_rng(20241)
        failures = 0
        for k in range(300):
            text, options = random_scored_jsonl(rng)
            path = write(tmp_path, f"r{k}.jsonl", text)
            file = ScoredFile(path=path, format="jsonl", **options)
            expected = _outcome(load_jsonl_oracle, file)
            assert _outcome(load_scored, file) == expected, text
            failures += isinstance(expected, tuple)
        assert 30 < failures < 270

    @pytest.mark.parametrize("tail", [
        "", "r9000,0.5, 1\n", "r9000,0.5,2\n", "r9000,0.5\n", "r0017,0.5,1\n"])
    def test_files_longer_than_a_chunk(self, tmp_path, tail):
        """Rows are collected a few thousand at a time; every row of a long
        file must be read once, and a fault late in it keeps its row number."""
        rng = np.random.default_rng(20243)
        lines = ["id,score,label"]
        for i in range(9_000):
            lines.append("" if i % 1000 == 999 else
                         f"r{i:04d},{rng.random()!r},{int(rng.integers(0, 2))}")
        path = write(tmp_path, "long.csv", "\n".join(lines) + "\n" + tail)
        file = ScoredFile(path=path)
        expected = _outcome(load_csv_oracle, file)
        assert _outcome(load_scored, file) == expected
        assert isinstance(expected, list) == (tail in ("", "r9000,0.5, 1\n"))

    @pytest.mark.parametrize("text,message", [
        # the earliest faulty row wins, whatever its fault
        ("id,score,label\na,0.5,1\nb,x,1\nc,0.4,7\n,0.3,1\n",
         "row 2: score 'x' is not a number"),
        ("id,score,label\na,0.5,1\nb,0.5,1\n,0.3,1\nc,nan,2\n",
         "row 3: empty id"),
        ("id,score,label\na,0.5,1\nb,inf,1\nc,0.4,7\n",
         "row 2: score 'inf' is not finite"),
        # within a row: label, then score, then id
        ("id,score,label\n,x,2\n", "row 1: label must be 0 or 1, got '2'"),
        (",score,label\n,x,1\n", "row 1: score 'x' is not a number"),
        # blank lines are not counted
        ("id,score,label\n\na,0.5,1\n\n\nb,0.5,yes\n",
         "row 2: label must be 0 or 1, got 'yes'"),
        # short rows read their missing fields as None
        ("score,label,id\n0.5,1,a\n0.4,0\n", "row 2: empty id"),
        ("label,score\n1,0.5\n1\n", "row 2: score None is not a number"),
        ("score,label\n0.5\n", "row 1: label must be 0 or 1, got None"),
        ("id,score,label\n", "no data rows"),
        ("id,score,label\n\n\n", "no data rows"),
        ("", "missing header row"),
        ("id,score,label\na,0.5,1\nb,0.4,0\na,0.3,1\nb,0.2,0\n",
         "duplicate id 'a'"),
        ("id,score,label\na,0.5,1\nb,0.4,0\nb,0.3,1\na,0.2,0\n",
         "duplicate id 'b'"),
        # a row fault comes before a repeated id on an earlier row
        ("id,score,label\na,0.5,1\na,0.4,0\nc,0.3,3\n",
         "row 3: label must be 0 or 1, got '3'"),
    ])
    def test_csv_errors(self, tmp_path, text, message):
        path = write(tmp_path, "in.csv", text)
        file = ScoredFile(path=path)
        expected = _outcome(load_csv_oracle, file)
        assert expected[0] == "ValidationError" and message in expected[1]
        assert _outcome(load_scored, file) == expected

    def test_duplicate_id_names_the_file(self, tmp_path):
        path = write(tmp_path, "dup.csv", "id,score,label\nq,0.5,1\nq,0.4,0\n")
        with pytest.raises(ValidationError) as info:
            load_scored(path)
        assert str(info.value) == f"{path}: duplicate id 'q'"

    def test_lenient_labels_and_padded_scores(self, tmp_path):
        path = write(tmp_path, "in.csv",
                     "id,score,label\na, 0.5 , 1\nb,0.4,0 \nc,1e-3,1\n")
        records = load_scored(path)
        assert [(r.id, r.score, r.label) for r in records] == \
            [("a", 0.5, 1), ("b", 0.4, 0), ("c", 0.001, 1)]
        assert all(type(r.label) is int and type(r.score) is float
                   for r in records)

    @pytest.mark.parametrize("lines,message", [
        (['{"score": 0.5, "label": 1}', '{"score": 0.4, "label": 1.0}',
          "{bad"], "row 2: label must be 0 or 1, got 1.0"),
        (['{"score": 0.5, "label": 1}', "{bad"], "row 2: bad json"),
        (['{"score": 0.5}'], "row 1: missing 'label' or 'score' field"),
        # valid json that is not an object has no fields
        (['{"score": 0.5, "label": 1}', "5"],
         "row 2: missing 'label' or 'score' field"),
        (["null"], "row 1: missing 'label' or 'score' field"),
        (['"label score"'], "row 1: missing 'label' or 'score' field"),
        (['["label", "score"]'], "row 1: missing 'label' or 'score' field"),
        (['{"score": NaN, "label": 1}'], "row 1: score nan is not finite"),
        (['{"score": 0.5, "label": true}'],
         "row 1: label must be 0 or 1, got True"),
        (['{"score": true, "label": 1}'], "row 1: score True is not a number"),
        (['{"score": 0.5, "label": "1.0"}'],
         "row 1: label must be 0 or 1, got '1.0'"),
        (['{"id": "", "score": 0.5, "label": 1}',
          '{"id": "", "score": 0.4, "label": 0}'], "duplicate id ''"),
        (['{"id": 7, "score": 0.5, "label": 1}',
          '{"id": "7", "score": 0.4, "label": 0}'], "duplicate id '7'"),
        # json.loads raises RecursionError, not a JSONDecodeError
        (['{"score": 0.5, "label": 1}',
          '{"score": ' + "[" * 100_000 + "]" * 100_000 + ', "label": 1}'],
         "row 2: json nested too deeply"),
        ([], "no data rows"),
    ])
    def test_jsonl_errors(self, tmp_path, lines, message):
        path = write(tmp_path, "in.jsonl", "\n".join(lines) + "\n")
        file = ScoredFile(path=path, format="jsonl")
        expected = _outcome(load_jsonl_oracle, file)
        assert expected[0] == "ValidationError" and message in expected[1]
        assert _outcome(load_scored, file) == expected

    def test_jsonl_row_with_two_faults_names_the_label(self, tmp_path):
        # as in delimited text, a row's label is checked before its score
        path = write(tmp_path, "in.jsonl", '{"score": true, "label": "yes"}\n')
        with pytest.raises(ValidationError,
                           match="row 1: label must be 0 or 1, got 'yes'"):
            load_scored(path)

    def test_jsonl_empty_id_is_kept(self, tmp_path):
        path = write(tmp_path, "in.jsonl",
                     '{"id": "", "score": 0.5, "label": " 1"}\n')
        records = load_scored(path)
        assert [(r.id, r.score, r.label) for r in records] == [("", 0.5, 1)]


def _both_routes(monkeypatch, plain_reads, file):
    """The loader's outcome, whether the plain route read the file (None if
    it raised or was never tried), and the outcome when the csv module reads
    every file."""
    got = _outcome(load_scored, file)
    plain = plain_reads[0] if len(plain_reads) == 1 else None
    monkeypatch.setattr(gio, "_plain_texts", lambda raw, file: None)
    want = _outcome(load_scored, file)
    return got, plain, want


LONG_ID = "x" * 200_000  # over the csv module's default field size limit
HALF_LIMIT = "x" * 70_000  # two of these make a line over that limit


class TestPlainRoute:
    """Quote-free delimited text is split in whole blocks of lines; any file
    the csv module might read otherwise falls back to it. Both routes must
    give the same records, or the same error with the same row number."""

    # name: (file bytes, ScoredFile options, whether the plain route reads it)
    CASES = {
        "plain": (b"id,score,label\na,0.5,1\nb,0.4,0\n", {}, True),
        # fallback triggers
        "quoted-field": (b'id,score,label\n"a",0.5,1\nb,0.4,0\n', {}, False),
        "inner-quote": (b'id,score,label\na"b,0.5,1\n', {}, False),
        "cr": (b"id,score,label\na\rb,0.5,1\n", {}, False),
        "cr-cr-lf": (b"id,score,label\na,0.5,1\r\r\nb,0.4,0\n", {}, False),
        "nul": (b"id,score,label\na\0b,0.5,1\nb,0.4,0\n", {}, False),
        "field-over-limit": (f"id,score,label\n{LONG_ID},0.5,1\n".encode(),
                             {}, False),
        "field-under-limit": (f"id,score,label\n{HALF_LIMIT},0.5,1\n".encode(),
                              {}, True),
        "line-over-limit": (
            f"id,note,score,other,label\na,{HALF_LIMIT},0.5,{HALF_LIMIT},1\n"
            .encode(), {}, False),
        "short-row": (b"id,score,label\na,0.5,1\nb,0.4\n", {}, False),
        "one-field-row": (b"id,score,label\na,0.5,1\nb\n", {}, False),
        "spaces-row": (b"id,score,label\na,0.5,1\n   \n", {}, False),
        "extra-fields": (b"id,score,label\na,0.5,1,extra\nb,0.4,0\n", {},
                         False),
        "extra-then-short": (b"id,score,label\na,0.5,1,extra\nb,0.4\n", {},
                             False),
        "trailing-delimiter": (b"id,score,label\na,0.5,1\nb,0.4,0,\n", {},
                               False),
        "not-utf8": (b"id,score,label\na,0.5,1\n\xff\xfe,0.4,0\n", {}, False),
        "not-utf8-header": (b"\xff,score,label\na,0.5,1\n", {}, False),
        # the header lacks a column, but the csv module decodes a chunk of
        # the next line, past the plain route's first block, before saying so
        "missing-column-then-not-utf8": (
            b"id,score\na\xff" + b"x" * 70_000 + b"\n", {}, False),
        "non-ascii-delimiter": ("id§score§label\na§0.5§1\nb§0.4§0\n".encode(),
                                {"delimiter": "§"}, False),
        "blank-header": (b"\nid,score,label\na,0.5,1\n", {}, False),
        "empty-file": (b"", {}, False),
        "missing-column": (b"id,score\na,0.5\n", {}, False),
        # no csv rule applies: the plain route reads these
        "non-ascii-id": (
            "id,score,label\né\u2028✓ x,0.5,1\n\u00a0,0.4,0\n".encode(), {},
            True),
        "byte-order-mark": (b"\xef\xbb\xbfid,score,label\na,0.5,1\n", {},
                            True),
        "byte-order-mark-no-id": (b"\xef\xbb\xbflabel,score\n1,0.5\n0,0.4\n",
                                  {}, True),
        "blank-lines": (b"id,score,label\n\na,0.5,1\n\n\nb,0.4,0\n\n", {},
                        True),
        "only-blank-lines": (b"id,score,label\n\n\n\n", {}, True),
        "header-only": (b"id,score,label\n", {}, True),
        "unterminated-header": (b"id,score,label", {}, True),
        "unterminated-row": (b"id,score,label\na,0.5,1", {}, True),
        # a carriage return that only makes a CRLF line end is dropped
        "crlf": (b"id,score,label\r\na,0.5,1\r\nb,0.4,0\r\n", {}, True),
        "unterminated-cr": (b"id,score,label\r\na,0.5,1\r\nb,0.4,0\r", {},
                            True),
        "crlf-blank-lines": (
            b"id,score,label\r\n\r\na,0.5,1\r\n\r\n\r\nb,0.4,0\r\n\r\n", {},
            True),
        "lf-and-crlf": (b"id,score,label\na,0.5,1\r\nb,0.4,0\n\r\nc,0.3,1\n",
                        {}, True),
        "crlf-header-only": (b"id,score,label\r\n", {}, True),
        "semicolons-renamed": (b"y;p;name\n1;0.7;u\n0; 0.2 ;v\n 1 ;1e-3;w\n",
                               {"delimiter": ";", "label_col": "y",
                                "score_col": "p", "id_col": "name"}, True),
        "tabs": (b"id\tscore\tlabel\na\t0.5\t1\n", {"delimiter": "\t"}, True),
        "repeated-name": (b"label,score,label\n1,0.5,0\n0,0.4,1\n", {}, True),
        "one-column": (b"label\n1\n0\n\n1\n", {"score_col": "label"}, True),
        # row faults found after a plain read keep their row numbers
        "bad-score": (b"id,score,label\na,0.5,1\n\nb,x,1\nc,0.4,7\n", {}, True),
        "infinite-score": (b"id,score,label\na,0.5,1\nb,inf,1\n", {}, True),
        "empty-id": (b"id,score,label\na,0.5,1\n,0.3,1\n", {}, True),
        "duplicate-id": (b"id,score,label\na,0.5,1\nb,0.4,0\na,0.3,1\n", {},
                         True),
    }

    @pytest.mark.parametrize("data,options,plain", CASES.values(),
                             ids=CASES.keys())
    def test_same_outcome_as_the_csv_route(self, tmp_path, monkeypatch,
                                           plain_reads, data, options, plain):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        file = ScoredFile(path=path, format="csv", **options)
        got, took_plain, want = _both_routes(monkeypatch, plain_reads, file)
        assert got == want
        assert took_plain is plain

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    @pytest.mark.parametrize("late,plain", [
        ("", True),
        ("r9000,0.5,1\n\n\nr9001,0.4,0\n", True),
        ("r9000," + "9" * 300 + ",1\n", True),  # longer than some blocks
        ('"r9000",0.5,1\n', False),
        ("r9000,0.5\n", False),
        ("r9000,0.5,1\r\n", True),
        ("r9000,0.5,2\n", True),
    ], ids=["none", "blank-lines", "long-row", "quote", "short-row", "crlf",
            "bad-label"])
    def test_block_boundaries(self, tmp_path, monkeypatch, plain_reads, block,
                              late, plain):
        """A fault that first shows in a late block sends the whole file to
        the csv route; a row may cross any number of block boundaries."""
        monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
        rng = np.random.default_rng(block)
        lines = ["id,score,label"] + [
            "" if i % 17 == 16 else
            f"r{i:04d},{rng.random()!r},{int(rng.integers(0, 2))}"
            for i in range(120)]
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n" + late, encoding="utf-8")
        file = ScoredFile(path=path)
        got, took_plain, want = _both_routes(monkeypatch, plain_reads, file)
        assert got == want and took_plain is plain
        assert got == _outcome(load_csv_oracle, file)

    @pytest.mark.parametrize("block", [1, 64, 1 << 16])
    def test_late_bytes_that_are_not_utf8(self, tmp_path, monkeypatch,
                                          plain_reads, block):
        monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
        rows = b"".join(b"r%04d,0.5,%d\n" % (i, i % 2) for i in range(5000))
        path = tmp_path / "in.csv"
        path.write_bytes(b"id,score,label\n" + rows + b"\xe9t\xe9,0.5,1\n")
        got, took_plain, want = _both_routes(monkeypatch, plain_reads,
                                             ScoredFile(path=path))
        assert took_plain is False
        assert got == want == ("ValidationError", f"{path}: not UTF-8 text")

    def test_quote_free_file_never_calls_the_csv_route(self, tmp_path,
                                                       monkeypatch):
        def no_csv(handle, file):
            raise AssertionError("the csv route read a quote-free file")

        monkeypatch.setattr(gio, "_csv_texts", no_csv)
        monkeypatch.setattr(gio, "_BLOCK_BYTES", 256)
        rng = np.random.default_rng(7)
        lines = ["score,id,label"] + [
            f"{rng.random()!r},r{i:05d},{int(rng.integers(0, 2))}"
            for i in range(3000)]
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ids, scores, labels = _load_columns(path)
        assert ids.tolist() == [f"r{i:05d}" for i in range(3000)]
        assert scores.tolist() == [float(line.split(",")[0])
                                   for line in lines[1:]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_once_by_the_csv_route(self, tmp_path, plain_reads):
        path = tmp_path / "in.csv"
        os.mkfifo(path)
        feeder = threading.Thread(target=path.write_bytes, daemon=True,
                                  args=(b"id,score,label\na,0.5,1\nb,0.4,0\n",))
        feeder.start()
        try:
            records = load_scored(path)
        finally:
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        assert plain_reads == []
        assert [(r.id, r.score, r.label) for r in records] == [
            ("a", 0.5, 1), ("b", 0.4, 0)]

    def test_size_limit_is_read_at_each_load(self, tmp_path, monkeypatch,
                                             plain_reads):
        """A lowered field size limit turns long lines away from the plain
        route, and the csv module then names the oversize field."""
        path = write(tmp_path, "in.csv", "id,score,label\n" + "x" * 40
                     + ",0.5,1\n")
        limit = csv.field_size_limit(32)
        try:
            got, took_plain, want = _both_routes(monkeypatch, plain_reads,
                                                 ScoredFile(path=path))
        finally:
            csv.field_size_limit(limit)
        assert took_plain is False
        assert got == want == (
            "ValidationError", f"{path}: field larger than field limit (32)")

    @pytest.mark.parametrize("data,blocks", [
        (b"", []),
        (b"a\nb", [b"a\n", b"b\n"]),
        (b"a\nbb\nccc\n\n", [b"a\n", b"bb\n", b"ccc\n\n"]),
        (b"a\n" + b"x" * 20 + b"\nb\n", [b"a\n", b"x" * 20 + b"\n", b"b\n"]),
        (b"a\n" + b"x" * 40, [b"a\n", None]),
    ], ids=["empty", "unterminated", "blank-last", "line-over-block",
            "line-over-limit"])
    def test_line_blocks(self, monkeypatch, data, blocks):
        """Blocks of whole lines, each ending in a newline; a line that runs
        past the size limit ends the blocks early, unread to its end."""
        monkeypatch.setattr(gio, "_BLOCK_BYTES", 4)
        assert list(gio._line_blocks(io.BytesIO(data), limit=32)) == blocks

    def test_memory_bounded_by_the_block_not_the_file(self, tmp_path,
                                                      monkeypatch,
                                                      plain_reads):
        """Splitting a block at a time holds one block's fields beyond the
        columns, so a 10^5-row read peaks no higher than the csv route's."""
        rng = np.random.default_rng(99)
        rows = 100_000
        lines = ["id,score,label"] + [
            f"r{i:06d},{s!r},{y}" for i, (s, y) in enumerate(zip(
                rng.random(rows).tolist(), rng.integers(0, 2, rows).tolist()))]
        path = write(tmp_path, "big.csv", "\n".join(lines) + "\n")

        def peak() -> int:
            tracemalloc.start()
            try:
                _load_columns(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain_peak = peak()
        assert plain_reads == [True]
        monkeypatch.setattr(gio, "_plain_texts", lambda raw, file: None)
        assert plain_peak <= 1.1 * peak()


class TestColumnarLoader:
    """The command line ranks the loader's columns directly; that must give
    the same ranked set as ranking the records `load_scored` returns."""

    COLUMNS = ("ids", "_scores", "_labels", "_prefix_pos", "_group_ends")

    def _files(self, tmp_path):
        rng = np.random.default_rng(20242)
        for k in range(60):
            text, options, encoding = random_scored_csv(rng, fault_rate=0.0)
            path = tmp_path / f"r{k}.csv"
            path.write_text(text, encoding=encoding)
            yield ScoredFile(path=path, format="csv", **options)
        for k in range(20):
            text, options = random_scored_jsonl(rng, fault_rate=0.0)
            path = write(tmp_path, f"r{k}.jsonl", text)
            yield ScoredFile(path=path, format="jsonl", **options)
        ties = ["id,score,label"] + [
            f"r{int(i):04d},{int(rng.integers(0, 5)) / 4!r},{int(rng.integers(0, 2))}"
            for i in rng.permutation(500)]
        yield ScoredFile(path=write(tmp_path, "ties.csv", "\n".join(ties)))

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_rank_from_columns_equals_rank_from_records(self, tmp_path, policy):
        ranked_any = 0
        for file in self._files(tmp_path):
            try:
                records = load_scored(file)
            except ValidationError:  # a file with short rows or no rows
                continue
            columns = _load_columns(file)
            assert [c.dtype for c in columns] == [object, np.float64, np.int64]
            from_columns = _rank_columns(*columns, policy)
            from_records = rank_records(records, policy)
            for name in self.COLUMNS:
                got = getattr(from_columns, name)
                want = getattr(from_records, name)
                assert got.dtype == want.dtype, name
                assert got.tolist() == want.tolist(), name
            ranked_any += 1
        assert ranked_any > 40

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_save_scored_writes_a_ranked_set_as_its_records(self, tmp_path,
                                                            policy):
        ranked = rank_records(records_from_labels(
            [1, 0, 1, 1, 0, 0], [0.5, 0.5, 1e-300, 0.1, 0.5, -0.0]), policy)
        assert save_scored(ranked, tmp_path / "a.csv") is None
        save_scored(ranked.records, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSerializersAgainstOracles:
    NAMES = ["plain", "with,comma", 'with "quote"', "ünïcødé ✓", "tab\tand\\slash",
             "new\nline", "", "{0} {x!r} }{"]

    @pytest.mark.parametrize("name", NAMES)
    def test_names_needing_quoting_or_escaping(self, example24, name):
        series = [lift_series(example24, name=name)]
        assert emit_curves(series, format="csv") == curves_csv_oracle(series)
        assert emit_curves(series, format="json") == curves_json_oracle(series)
        assert parse_curves(emit_curves(series, format="json"),
                            format="json") == series

    def test_multiple_series(self, example24):
        series = [gains_series(example24, name=self.NAMES[1]),
                  gains_series(example24, fraction=True, name=self.NAMES[2]),
                  roc_points(example24, name=self.NAMES[3]),
                  random_targeting_series(example24, XKind.FPR),
                  CurveSeries(name="empty", x_kind=XKind.COUNT, points=()),
                  decile_series(example24)]
        assert emit_curves(series, format="csv") == curves_csv_oracle(series)
        assert emit_curves(series, format="json") == curves_json_oracle(series)


class TestRunsAgainstOracles:
    """The writers format the first value of each run of equal values and
    repeat its text over the run; series with runs of every length, in
    int64 and in object (Python int) columns, must still match the oracles
    point for point."""

    # 1: int64 columns; the others put Python ints in the columns
    SCALES = [Fraction(1), Fraction(10**300, 3**150), Fraction(1, 7**200)]

    @staticmethod
    def _runs(rng, length: int, run_lengths, scale: Fraction) -> list:
        values = []
        for run in run_lengths:
            value = Fraction(int(rng.integers(-10**6, 10**6)),
                             int(rng.integers(1, 10**4))) * scale
            values += [value] * run
            if len(values) >= length:
                return values[:length]
        return values

    @staticmethod
    def _check(series) -> None:
        assert emit_curves(series, format="csv") == curves_csv_oracle(series)
        assert emit_curves(series, format="json") == curves_json_oracle(series)
        for s in series:
            for column, values in ((s.x, [x for x, _ in s.points]),
                                   (s.y, [y for _, y in s.points])):
                assert column.reprs() == [repr(float(v)) for v in values]
                assert column.texts() == [
                    f"{v.numerator}/{v.denominator}" for v in map(Fraction, values)]

    @pytest.mark.parametrize("scale", SCALES)
    def test_runs_of_every_length(self, scale):
        rng = np.random.default_rng(3001)
        series = []
        for length in (1, 2, 3, 5, 17, 64):
            for run in range(1, length + 1):
                y = self._runs(rng, length, [run] * length, scale)
                series.append(CurveSeries(f"count {length}/{run}", XKind.COUNT,
                                          zip(range(1, length + 1), y)))
                # fpr x values may repeat: runs of `run` equal x
                x = [Fraction(k // run, length) * scale for k in range(length)]
                series.append(CurveSeries(f"fpr {length}/{run}", XKind.FPR,
                                          zip(x, y)))
        if scale != 1:
            assert series[-1].y.num.dtype == object \
                or series[-1].y.den.dtype == object
        self._check(series)

    @pytest.mark.parametrize("scale", SCALES)
    def test_random_run_lengths(self, scale):
        rng = np.random.default_rng(3002)
        for k in range(30):
            length = int(rng.integers(1, 300))
            x_runs = rng.integers(1, 12, size=length).tolist()
            y_runs = rng.integers(1, 12, size=length).tolist()
            # sorting keeps equal values together, so x keeps runs
            x = sorted(abs(v) * scale for v in
                       self._runs(rng, length, x_runs, Fraction(1)))
            y = self._runs(rng, length, y_runs, scale)
            self._check([CurveSeries(f"fpr {k}", XKind.FPR, zip(x, y))])

    def test_empty_and_one_point_series(self):
        self._check([CurveSeries("empty", XKind.COUNT, ())])
        self._check([CurveSeries("one", XKind.FPR,
                                 [(Fraction(0), Fraction(10**400, 3 * 10**399))])])
        self._check([CurveSeries("empty", XKind.COUNT, ()),
                     CurveSeries("one", XKind.COUNT, [(1, Fraction(-1, 3))]),
                     CurveSeries("empty", XKind.FPR, ())])

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_curves_of_a_tied_set(self, policy):
        rng = np.random.default_rng(3003)
        labels = (rng.random(400) < 0.3).astype(int).tolist()
        scores = rng.integers(0, 6, size=400).tolist()
        ranked = rank_records(records_from_labels(labels, scores), policy)
        series = [gains_series(ranked), gains_series(ranked, fraction=True),
                  lift_series(ranked), roc_points(ranked),
                  benefit_series(ranked, CostSpec(1e300, -0.2)),
                  benefit_series(ranked, CostSpec(0.1, -0.3))]
        assert series[4].y.num.dtype == object
        self._check(series)
