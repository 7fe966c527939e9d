import csv
import io
import json
import os
import sys
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

from helpers import (BAD_SCORE_TEXTS, MALFORMED_CSV, MALFORMED_JSONL,
                     NINE_BYTE_SCORE_TEXTS, SHORT_SCORE_TEXTS,
                     block_id_form_oracle,
                     curves_csv_oracle, curves_json_oracle, field_ends_oracle,
                     load_csv_oracle, load_jsonl_oracle, random_scored_csv,
                     random_scored_jsonl, records_from_labels,
                     score_texts_csv)


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

    def test_jsonl_with_byte_order_mark(self, tmp_path):
        text = ('{"id": "a", "label": 1, "score": 0.9}\n'
                '{"id": "b", "label": 0, "score": 0.1}\n')
        bom, plain = tmp_path / "bom.jsonl", tmp_path / "plain.jsonl"
        bom.write_text(text, encoding="utf-8-sig")
        plain.write_text(text, encoding="utf-8")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_scored(bom) == load_scored(plain) == [
            ScoredRecord(id="a", score=0.9, label=1),
            ScoredRecord(id="b", score=0.1, label=0)]

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

    def test_unknown_format_rejected(self, example24):
        for call in (lambda: emit_curves([gains_series(example24)], "xml"),
                     lambda: parse_curves("series,x_kind,x,y\r\n", "xml")):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == "unknown curve format 'xml'"

    def test_csv_header_checked(self):
        with pytest.raises(ValidationError) as info:
            parse_curves("name,kind,x,y\r\n1,2,3,4\r\n", format="csv")
        assert str(info.value) == (
            "unexpected curve header ['name', 'kind', 'x', 'y']")

    def test_csv_blank_rows_skipped(self, example24):
        series = [gains_series(example24, fraction=True),
                  roc_points(example24)]
        text = emit_curves(series, format="csv").replace("\r\n", "\r\n\r\n")
        again = parse_curves(text, format="csv")
        assert [s.as_floats() for s in again] == [s.as_floats() for s in series]

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


_CURVES_HEAD = "series,x_kind,x,y\r\n"


def _curves_json(*series):
    return json.dumps({"series": list(series)})


class TestParseCurvesFaults:
    """The ValidationError message `parse_curves` raises for a bad text,
    and which of two faults it reports: a row is split into its four fields
    as it is read, a series' points are converted before its kind is read,
    a json name that is no string is refused before the kind is converted,
    and the series is checked last."""

    @staticmethod
    def _check(text, format, message):
        with pytest.raises(ValidationError) as info:
            parse_curves(text, format=format)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        (_CURVES_HEAD + "g,count-n,1\r\n",
         "bad curve text: not enough values to unpack (expected 4, got 3)"),
        (_CURVES_HEAD + "g\r\n",
         "bad curve text: not enough values to unpack (expected 4, got 1)"),
        (_CURVES_HEAD + "g,count-n,1,2,3\r\n",
         "bad curve text: too many values to unpack (expected 4)"),
        (_CURVES_HEAD + "g,count-n,1,0.5\r\ng,count-n,2,x\r\n",
         "bad curve text: could not convert string to float: 'x'"),
        (_CURVES_HEAD + "g,count-n,1,1e400\r\n",
         "bad curve text: cannot convert Infinity to integer ratio"),
        (_CURVES_HEAD + "g,count-n,1,nan\r\n",
         "bad curve text: cannot convert NaN to integer ratio"),
        (_CURVES_HEAD + "g,bogus,1,0.5\r\n",
         "bad curve text: 'bogus' is not a valid XKind"),
        (_CURVES_HEAD + "g,bogus,1,0.5\r\ng,count-n,2\r\n",
         "bad curve text: not enough values to unpack (expected 4, got 3)"),
        (_CURVES_HEAD + "g,bogus,1,0.5\r\nh,count-n,1,y\r\n",
         "bad curve text: 'bogus' is not a valid XKind"),
        (_CURVES_HEAD + "g,count-n,1,y\r\nh,count-n,1\r\n",
         "bad curve text: could not convert string to float: 'y'"),
        (_CURVES_HEAD + "g,count-n,2,0.5\r\ng,count-n,1,0.5\r\n",
         "series 'g': x values must be strictly increasing"),
        (_CURVES_HEAD + "g,count-n,2,0.5\r\ng,count-n,1,0.5\r\nh,count-n,1\r\n",
         "bad curve text: not enough values to unpack (expected 4, got 3)"),
        (_CURVES_HEAD + "g,count-n,2,0.5\r\ng,count-n,1,0.5\r\n"
         "h,count-n,1,y\r\n",
         "series 'g': x values must be strictly increasing"),
        ("", "unexpected curve header None"),
    ])
    def test_csv(self, text, message):
        self._check(text, "csv", message)

    @pytest.mark.parametrize("text,message", [
        (_curves_json({"name": "g", "x_kind": "count-n", "points": [
            {"x": 1, "y": 1, "x_exact": "1/1"}]}),
         "bad curve text: missing key 'y_exact'"),
        (_curves_json({"name": "g", "x_kind": "count-n", "points": [
            {"x": 1, "y": 1, "x_exact": "1/0", "y_exact": "1"}]}),
         "bad curve text: Fraction(1, 0)"),
        (_curves_json({"name": "g", "x_kind": "count-n", "points": [
            {"x": 1, "y": 1, "x_exact": None, "y_exact": "1"}]}),
         "bad curve text: argument should be a string or a Rational instance"),
        (_curves_json({"name": "g", "x_kind": "bogus", "points": [
            {"x": 1, "y": 1, "x_exact": "1/1", "y_exact": "1/2"}]}),
         "bad curve text: 'bogus' is not a valid XKind"),
        (_curves_json({"name": "g", "x_kind": "bogus", "points": []},
                      {"name": "h", "x_kind": "count-n", "points": [{}]}),
         "bad curve text: 'bogus' is not a valid XKind"),
        (_curves_json({"x_kind": "bogus", "points": []}),
         "bad curve text: missing key 'name'"),
        ('{"curves": []}', "bad curve text: missing key 'series'"),
        ('{"series": 5}', "bad curve text: 'int' object is not iterable"),
        ("{bad", "bad curve text: Expecting property name enclosed in double "
         "quotes: line 1 column 2 (char 1)"),
        # only arrays nest past the recursion limit, whatever the stack
        # depth of the caller, so the message names an array
        pytest.param('{"series": ' + "[" * 100000, "bad curve text: maximum "
                     "recursion depth exceeded while decoding a JSON array "
                     "from a unicode string", id="nested-past-the-limit"),
        (_curves_json({"name": 5, "x_kind": "count-n", "points": [
            {"x": 1, "y": 1, "x_exact": "1/1", "y_exact": "1/2"}]}),
         "bad curve text: series name must be a string, got 5"),
        (_curves_json({"name": [1], "x_kind": "bogus", "points": []}),
         "bad curve text: series name must be a string, got [1]"),
        (_curves_json({"name": None, "x_kind": "count-n", "points": []},
                      {"name": "h", "x_kind": "count-n", "points": [{}]}),
         "bad curve text: series name must be a string, got None"),
    ])
    def test_json(self, text, message):
        self._check(text, "json", message)


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

    def spy(raw, file, keep_ids):
        columns = plain_texts(raw, file, keep_ids)
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
            # every other file holds no quoted id, so some of those take
            # the plain route and the rest the csv module
            text, options, encoding = random_scored_csv(
                rng, quote_rate=0.1 if k % 2 else 0.0)
            path = tmp_path / f"r{k}.csv"
            path.write_text(text, encoding=encoding)
            file = ScoredFile(path=path, format="csv", **options)
            expected = _outcome(load_csv_oracle, file)
            assert _outcome(load_scored, file) == expected, text
            failures += isinstance(expected, tuple)
            # the plain route returns only a file that loads without error,
            # or that has no data row at all
            if plain_reads[-1] and isinstance(expected, tuple):
                assert expected[1] == f"{path}: no data rows", text
        assert 30 < failures < 270  # both outcomes are well exercised
        assert 30 < plain_reads.count(True) and 60 < plain_reads.count(False)

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

    @pytest.mark.parametrize("text,message", MALFORMED_CSV)
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

    @pytest.mark.parametrize("lines,message", MALFORMED_JSONL)
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

    def test_jsonl_id_is_the_text_of_its_value(self, tmp_path):
        path = write(tmp_path, "in.jsonl",
                     '{"id": null, "score": 0.5, "label": 1}\n'
                     '{"id": 1, "score": 0.4, "label": 0}\n')
        assert [r.id for r in load_scored(path)] == ["None", "1"]
        # so the number 1 and the string "1" are one id
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": "1", "score": 0.3, "label": 1}\n')
        with pytest.raises(ValidationError) as info:
            load_scored(path)
        assert str(info.value) == f"{path}: duplicate id '1'"

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
    monkeypatch.setattr(gio, "_plain_texts", lambda raw, file, keep_ids: None)
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
        # the lenient label ` 1 ` sends this one to the csv route
        "semicolons-renamed": (b"y;p;name\n1;0.7;u\n0; 0.2 ;v\n 1 ;1e-3;w\n",
                               {"delimiter": ";", "label_col": "y",
                                "score_col": "p", "id_col": "name"}, False),
        "tabs": (b"id\tscore\tlabel\na\t0.5\t1\n", {"delimiter": "\t"}, True),
        "repeated-name": (b"label,score,label\n1,0.5,0\n0,0.4,1\n", {}, True),
        "one-column": (b"label\n1\n0\n\n1\n", {"score_col": "label"}, True),
        # a value that fails a check sends the file to the csv route, which
        # names the faulty row
        "bad-score": (b"id,score,label\na,0.5,1\n\nb,x,1\nc,0.4,7\n", {},
                      False),
        "infinite-score": (b"id,score,label\na,0.5,1\nb,inf,1\n", {}, False),
        "empty-id": (b"id,score,label\na,0.5,1\n,0.3,1\n", {}, False),
        "duplicate-id": (b"id,score,label\na,0.5,1\nb,0.4,0\na,0.3,1\n", {},
                         False),
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
        ("r9000,0.5,2\n", False),
    ], ids=["none", "blank-lines", "long-row", "quote", "short-row", "crlf",
            "bad-label"])
    def test_block_boundaries(self, tmp_path, monkeypatch, plain_reads, block,
                              late, plain):
        """A fault that first shows in a late block, in the bytes or in a
        value, sends the whole file to the csv route; a row may cross any
        number of block boundaries."""
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

    @staticmethod
    def _load_through_pipe(tmp_path, data: bytes):
        """What `load_scored` returns, or the text of what it raises, for
        `data` written into a named pipe by another thread."""
        path = tmp_path / "in.csv"
        os.mkfifo(path)
        feeder = threading.Thread(target=path.write_bytes, daemon=True,
                                  args=(data,))
        feeder.start()
        try:
            got = _outcome(load_scored, path)
        finally:
            feeder.join(timeout=10)
        assert not feeder.is_alive()
        return got

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_by_the_block_route(self, tmp_path, plain_reads):
        got = self._load_through_pipe(
            tmp_path, b"id,score,label\na,0.5,1\nb,0.4,0\n")
        assert plain_reads == [True]
        assert got == [("a", 0.5, 1), ("b", 0.4, 0)]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("data", [
        b'id,score,label\n"a,1",0.5,1\nb,0.4,0\n',
        b"id,score,label\na,0.5,1\n\nb,0.4,2\n",
    ], ids=["quoted-row", "bad-label"])
    def test_pipe_refused_by_the_block_route_is_read_by_the_csv_module(
            self, tmp_path, plain_reads, data):
        """The csv module reads the bytes the block route turned down, and
        gives the records, or names the faulty row, as for a file."""
        file = ScoredFile(path=tmp_path / "file.csv")
        file.path.write_bytes(data)
        want = _outcome(load_csv_oracle, file)
        got = self._load_through_pipe(tmp_path, data)
        assert plain_reads == [False]
        assert got == want == _outcome(load_scored, file)

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

    @pytest.mark.parametrize("block", range(1, 42))
    def test_line_blocks(self, monkeypatch, block):
        """On seeded data (lines of 0-50 bytes, LF or CRLF ends, blank
        lines, with or without a final newline): blocks of whole lines, each
        ending in a newline and at most a read and a line long, that join
        to the data, plus a newline after an unterminated last line; a None,
        and nothing after it, only where a line past them runs past the
        limit, and never where every line fits."""
        monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
        limit = 32
        rng = np.random.default_rng(block)
        stops = fits = 0
        for _ in range(100):
            longest = (31, 50)[int(rng.integers(0, 2))]
            data = b"".join(
                bytes(rng.integers(97, 123, int(rng.integers(0, longest + 1)),
                                   dtype=np.uint8)
                      if rng.random() > 0.15 else b"")
                + (b"\r\n" if rng.random() < 0.3 else b"\n")
                for _ in range(int(rng.integers(0, 12))))
            if rng.random() < 0.3:
                data = data.rstrip(b"\r\n")
            blocks = list(gio._line_blocks(io.BytesIO(data), limit))
            stopped = None in blocks
            if stopped:
                assert blocks.index(None) == len(blocks) - 1
                blocks.pop()
            for piece in blocks:
                assert piece.endswith(b"\n")
                assert len(piece) <= block + limit + 1
            read = b"".join(blocks)
            # the lines without their newlines: all, and those after the blocks
            lines = data.split(b"\n")
            rest = data[len(read):].split(b"\n")
            if stopped:
                assert data.startswith(read)
                assert max(map(len, rest)) > limit
            else:
                assert read == data + b"\n" * (data[-1:] not in (b"", b"\n"))
            if max(map(len, lines)) <= limit:
                assert not stopped
                fits += 1
            stops += stopped
        assert stops and fits > 10  # each outcome is exercised

    @pytest.mark.parametrize("block,stops", [(4, True), (38, False)],
                             ids=["rest-over-limit", "rest-under-limit"])
    def test_read_stops_inside_a_line_over_the_limit(self, monkeypatch,
                                                     block, stops):
        """A read that stops inside a 40-byte line leaves 33 or 4 of its
        bytes: a rest past the limit stops the blocks with None before the
        line; a shorter rest completes the line, in a block `_field_ends`
        turns down."""
        monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
        data = b"a\n" + b"x" * 40 + b"\nb\n"
        blocks = list(gio._line_blocks(io.BytesIO(data), limit=32))
        if stops:
            assert blocks == [None]
        else:
            assert None not in blocks
            holding = next(piece for piece in blocks if b"x" in piece)
            assert b"\n" + b"x" * 40 + b"\n" in holding
            assert gio._field_ends(holding, ",", 1, 32) is None

    @pytest.mark.parametrize("text", [
        "id,score,label\na,0.5,1\nb,0.4,0",
        "id,score,label\n" + "".join(f"r{i:06d},0.{i % 97:02d},{i % 2}\n"
                                      for i in range(8_000)),
    ], ids=["unterminated", "over-a-block"])
    def test_largest_size_limit(self, tmp_path, monkeypatch, plain_reads,
                                text):
        """With the size limit set to `sys.maxsize`, as a program may set
        it for the whole process, a read that stops inside a line still
        completes it, and the block route reads the file."""
        path = write(tmp_path, "in.csv", text)
        limit = csv.field_size_limit(sys.maxsize)
        try:
            got, took_plain, want = _both_routes(monkeypatch, plain_reads,
                                                 ScoredFile(path=path))
        finally:
            csv.field_size_limit(limit)
        assert took_plain is True
        assert got == want
        assert len(got) == text.rstrip("\n").count("\n")

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
        monkeypatch.setattr(gio, "_plain_texts",
                            lambda raw, file, keep_ids: None)
        assert plain_peak <= 1.1 * peak()


class TestFieldEnds:
    """`_field_ends` against `helpers.field_ends_oracle`, which always drops
    blank lines before it splits: the same block and field ends, or None."""

    @staticmethod
    def _check(block, d=",", width=3, limit=64):
        got = gio._field_ends(block, d, width, limit)
        want = field_ends_oracle(block, d, width, limit)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert bytes(got[0]) == want[0]
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("block", [
        b"", b"\n", b"\n\n\n", b"\r\n", b"\r\n\r\n",
        b"a,1,0\n", b"a,1,0\nb,2,1\n",
        b"\na,1,0\nb,2,1\n", b"\n\na,1,0\n",
        b"a,1,0\nb,2,1\n\n", b"a,1,0\n\n\n\n",
        b"a,1,0\n\nb,2,1\n\n\nc,3,0\n",
        b"\r\na,1,0\r\n\r\nb,2,1\r\n\r\n",
        b"a,1,0\r\n\nb,2,1\n\r\n",
        b"a,1,0\n\nb,2\n", b"\n\"a\",1,0\n", b"a,1,0\n\n\r\r\n",
        b"a,1,0\n\n\xff,1,0\n", b"\xe9,1,0\n\n",
        b"\n" + b"x" * 60 + b",1,0\n", b"x" * 61 + b",1,0\n\n",
    ])
    def test_blocks(self, block):
        self._check(block)
        self._check(bytearray(block))

    def test_seeded_blocks(self):
        rng = np.random.default_rng(4141)
        lines = [b"", b"", b"\r", b"a,1,0", b"bb,0.25,1", b"c,2", b"d,1,0,",
                 b"e" * 20 + b",1,0", b"\xc3\xa9,1,0", b"f,\"1\",0",
                 b"\xff,1,0", b"g\r,1,0"]
        for _ in range(2000):
            picked = rng.integers(0, len(lines), int(rng.integers(0, 12)))
            block = b"".join(lines[i] + b"\n" for i in picked)
            limit = int(rng.choice([5, 8, 12, 24, 64, 1000]))
            self._check(block, limit=limit)
            if len(block) > 1:  # a limit at the block's own length
                self._check(block, limit=len(block) - 1)
                self._check(block, limit=len(block) - 2)


class TestBlockRoute:
    """The plain route converts each block's labels and scores and keys its
    ids as it reads; a value that fails a check there, or two equal keys,
    sends the file to the csv module from its start, so every outcome is
    the csv route's."""

    @staticmethod
    def _file(tmp_path, ids, levels=5):
        lines = ["id,score,label"] + [
            f"{rid},{k % levels / 4!r},{k * 7 % 3 % 2}"
            for k, rid in enumerate(ids)]
        return ScoredFile(path=write(tmp_path, "in.csv", "\n".join(lines) + "\n"))

    @staticmethod
    def _calls(monkeypatch, name):
        """Count the calls to the loader function `name`."""
        calls = []
        real = getattr(gio, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(gio, name, spy)
        return calls

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_distinct_ids_with_equal_keys_load(self, tmp_path, monkeypatch,
                                               plain_reads, policy):
        monkeypatch.setattr(gio, "_BLOCK_BYTES", 64)
        monkeypatch.setattr(gio, "_id_keys", lambda block, starts, sizes:
                            np.zeros(len(starts), dtype=np.uint64))
        csv_reads = self._calls(monkeypatch, "_csv_texts")
        ids = [f"r{k:03d}" for k in range(60, 0, -1)] + [
            "é✓", "an id of more than eight bytes", "an id of more than nine"]
        file = self._file(tmp_path, ids)
        want = load_csv_oracle(file)
        assert load_scored(file) == want
        # ranked as the command line ranks it: with the ids only under the
        # id policy, as texts, the csv route having read the file
        id_policy = policy is TiePolicy.ID_ORDER
        ranked = _rank_columns(
            *_load_columns(file, id_form="bytes" if id_policy else None),
            policy)
        expected = rank_records(want, policy)
        assert (ranked.scores, ranked.labels) == (expected.scores,
                                                  expected.labels)
        if id_policy:
            assert ranked.records == expected.records
        # each of the two loads reads the file once more, by the csv module
        assert plain_reads == [False, False] and len(csv_reads) == 2

    def test_a_bad_value_costs_one_partial_pass(self, tmp_path, monkeypatch):
        """A bad label in the first of many blocks stops the block route
        there; the csv module then reads the file once, from its start."""
        monkeypatch.setattr(gio, "_BLOCK_BYTES", 256)
        blocks = self._calls(monkeypatch, "_block_columns")
        csv_reads = self._calls(monkeypatch, "_csv_texts")
        lines = ["id,score,label", "r0,0.5,2"] + [
            f"r{k},{k / 3000!r},{k % 2}" for k in range(1, 3000)]
        path = write(tmp_path, "in.csv", "\n".join(lines) + "\n")
        assert _outcome(load_scored, ScoredFile(path=path)) == (
            "ValidationError", "row 1: label must be 0 or 1, got '2'")
        assert len(blocks) == 1 and len(csv_reads) == 1

    @pytest.mark.parametrize("newline", [0, 1])
    def test_a_first_read_of_only_the_header_line(self, tmp_path,
                                                  monkeypatch, plain_reads,
                                                  newline):
        """The block after the header line then holds no row, and gives
        empty columns; the rows follow in the next blocks."""
        file = self._file(tmp_path, [f"r{k}" for k in range(30)])
        monkeypatch.setattr(gio, "_BLOCK_BYTES",
                            len("id,score,label") + newline)
        assert _outcome(load_scored, file) == _outcome(load_csv_oracle, file)
        assert plain_reads == [True]

    def test_id_bytes_are_kept_only_when_the_ids_are_wanted(self, tmp_path):
        file = self._file(tmp_path, [f"r{k:03d}" for k in range(50)])
        for keep_ids in (True, False):
            with open(file.path, "rb") as raw:
                columns = gio._plain_texts(raw, file, keep_ids)
            assert (columns[0] is not None) is keep_ids

    def test_a_repeat_names_the_first_repeated_id(self, tmp_path, monkeypatch,
                                                  plain_reads):
        file = self._file(tmp_path, ["a", "b", "c", "b", "a"])
        message = ("ValidationError", f"{file.path}: duplicate id 'b'")
        assert _outcome(load_csv_oracle, file) == message
        assert _outcome(load_scored, file) == message
        monkeypatch.setattr(gio, "_id_keys", lambda block, starts, sizes:
                            np.zeros(len(starts), dtype=np.uint64))
        assert _outcome(load_scored, file) == message
        assert plain_reads == [False, False]

    def test_id_keys(self):
        """Distinct ids, such as ids sharing their first words, get
        distinct keys, and an id's key does not depend on its neighbours."""
        ids = sorted({b"x" * n + tail for n in range(26)
                      for tail in (b"", b"a", b"b", b"ab", "é".encode())} - {b""})

        def keys(order, sep):
            block = sep.join(order) + b"\n"
            starts = np.cumsum([0] + [len(i) + 1 for i in order[:-1]])
            sizes = np.array([len(i) for i in order])
            return dict(zip(order, gio._id_keys(block, starts, sizes).tolist()))

        first = keys(ids, b",")
        assert len(set(first.values())) == len(ids)
        assert keys(ids[::-1], b"\n") == first

    @pytest.mark.parametrize("block", range(1, 42))
    def test_fields_cut_at_every_block_boundary(self, tmp_path, monkeypatch,
                                                plain_reads, block):
        """Each read ends at every offset of some row, ids run to four
        eight-byte words, and blank lines and CRLF ends fall in between."""
        monkeypatch.setattr(gio, "_BLOCK_BYTES", block)
        text = "id,score,label\r\n" + "".join(
            f"{'x' * (k % 23)}é{k},{k / 7!r},{k % 2}"
            + ("\r\n\n" if k % 9 == 8 else "\n") for k in range(40))
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        got = _load_columns(path)
        bare = _load_columns(path, id_form=None)
        monkeypatch.setattr(gio, "_plain_texts",
                            lambda raw, file, keep_ids: None)
        want = _load_columns(path)
        assert plain_reads == [True, True]
        assert bare[0] is None
        for column in range(3):
            assert got[column].tolist() == want[column].tolist()
        for column in (1, 2):
            assert bare[column].tolist() == want[column].tolist()


def _drawn(rng, texts, rows: int) -> list[str]:
    return [texts[k] for k in rng.integers(0, len(texts), rows).tolist()]


# files of 7,000 rows (more than 64 KiB, so two blocks or three) whose
# score texts repeat in every block, run to nine bytes in some rows, are
# distinct for the first 600 rows, or repeat only within the first 600
_SCORE_FILES = {
    "short": lambda rng: _drawn(rng, SHORT_SCORE_TEXTS, 7000),
    "short-and-nine-byte": lambda rng: (
        _drawn(rng, SHORT_SCORE_TEXTS, 3000)
        + _drawn(rng, SHORT_SCORE_TEXTS + NINE_BYTE_SCORE_TEXTS, 1000)
        + _drawn(rng, SHORT_SCORE_TEXTS, 3000)),
    "distinct-then-repeated": lambda rng: (
        [f"{k}e-3" for k in range(600)]
        + _drawn(rng, SHORT_SCORE_TEXTS, 6400)),
    "repeated-then-distinct": lambda rng: (
        _drawn(rng, SHORT_SCORE_TEXTS, 600)
        + [f"-{k}e-3" for k in range(6400)]),
}


class TestShortScoreTexts:
    """Score texts of at most eight bytes that repeat within a block: the
    loader must give every row the float of its own text, bit for bit (so
    -0.0 stays apart from 0.0), and a bad text among them must give the
    csv route's error for its first row."""

    @staticmethod
    def _bits(load, file):
        """`_outcome`, with each score as its float's exact hex text."""
        outcome = _outcome(load, file)
        if isinstance(outcome, tuple):
            return outcome
        return [(rid, score.hex(), label) for rid, score, label in outcome]

    def _check(self, tmp_path, scores, seed):
        text = score_texts_csv(np.random.default_rng(seed), scores)
        assert len(text) > 1 << 16
        file = ScoredFile(path=write(tmp_path, "in.csv", text))
        expected = self._bits(load_csv_oracle, file)
        assert self._bits(load_scored, file) == expected
        return expected

    @pytest.mark.parametrize("case", sorted(_SCORE_FILES))
    def test_same_bits_as_the_oracle(self, tmp_path, plain_reads, case):
        seed = sorted(_SCORE_FILES).index(case)
        scores = _SCORE_FILES[case](np.random.default_rng([3400, seed]))
        expected = self._check(tmp_path, scores, seed)
        assert plain_reads == [True]
        # both zeros are read, and kept apart
        assert {score for _, score, _ in expected
                if float.fromhex(score) == 0} == {"0x0.0p+0", "-0x0.0p+0"}

    @pytest.mark.parametrize("bad", BAD_SCORE_TEXTS)
    def test_a_bad_text_gives_the_error_of_its_first_row(self, tmp_path,
                                                         bad):
        seed = BAD_SCORE_TEXTS.index(bad)
        cases = sorted(_SCORE_FILES)
        scores = _SCORE_FILES[cases[seed % len(cases)]](
            np.random.default_rng([3401, seed]))
        # once late, on a few rows of the first block, and on every tenth
        for rows in ([6500], [4000, 300, 20], range(5, 7000, 10)):
            faulty = list(scores)
            for row in rows:
                faulty[row] = bad
            expected = self._check(tmp_path, faulty, seed)
            assert expected[0] == "ValidationError"
            assert expected[1].startswith(f"row {min(rows) + 1}: ")

    @staticmethod
    def _float_calls(monkeypatch):
        """The texts the loader hands to `float`, in call order."""
        calls = []

        def counted(text):
            calls.append(text)
            return float(text)

        monkeypatch.setattr(gio, "float", counted, raising=False)
        return calls

    def test_each_short_text_is_parsed_once_a_block(self, tmp_path,
                                                    monkeypatch):
        """`float` reads each distinct text once in a block of texts of at
        most eight bytes, and every text in a block with a nine-byte one."""
        calls = self._float_calls(monkeypatch)
        monkeypatch.setattr(gio, "_BLOCK_BYTES", 4096)
        rng = np.random.default_rng(3402)
        for texts, nine_bytes in ((SHORT_SCORE_TEXTS, False),
                                  (SHORT_SCORE_TEXTS
                                   + NINE_BYTE_SCORE_TEXTS[:1], True)):
            calls.clear()
            text = score_texts_csv(rng, _drawn(rng, texts, 2000))
            _load_columns(write(tmp_path, "in.csv", text), id_form=None)
            blocks = -(-len(text) // 4096)
            assert (len(calls) == 2000 if nine_bytes
                    else len(calls) <= blocks * len(texts))

    def test_nearly_distinct_short_texts_are_parsed_once_a_block(
            self, tmp_path, monkeypatch, plain_reads):
        """A block's texts of at most eight bytes are parsed once each
        however few of its rows repeat one: here a block's first 512 rows
        hold about 400 distinct texts of the 1,000."""
        texts = [f"{k / 1000:.3f}" for k in range(1000)]
        rng = np.random.default_rng(3403)
        scores = _drawn(rng, texts, 7000)
        text = score_texts_csv(rng, scores)
        path = write(tmp_path, "in.csv", text)
        calls = self._float_calls(monkeypatch)
        columns = _load_columns(path, id_form=None)
        assert plain_reads == [True]
        blocks = -(-len(text) // gio._BLOCK_BYTES)
        assert blocks >= 2 and len(calls) <= blocks * len(texts)
        assert columns[1].tolist() == [float(score) for score in scores]


class TestColumnarLoader:
    """The command line ranks the loader's columns directly; that must give
    the same ranked set as ranking the records `load_scored` returns."""

    COLUMNS = ("ids", "_scores", "_prefix_pos", "_group_bounds")

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
            bare = _load_columns(file, id_form=None)
            assert bare[0] is None
            assert [c.tolist() for c in bare[1:]] == [
                c.tolist() for c in columns[1:]]
            from_columns = _rank_columns(*columns, policy)
            from_records = rank_records(records, policy)
            for name in self.COLUMNS:
                got = getattr(from_columns, name)
                want = getattr(from_records, name)
                assert got.dtype == want.dtype, name
                assert got.tolist() == want.tolist(), name
            # the id policy's form: the block route's words where every id
            # has at most eight bytes, its bytes where one is longer, else
            # the texts; a set ranked from words or bytes holds no ids
            ids, *rest = _load_columns(file, id_form="bytes")
            texts = columns[0].tolist()
            from_bytes = _rank_columns(ids, *rest, policy)
            if isinstance(ids, bytes) or ids.dtype == np.uint64:
                assert (ids if isinstance(ids, bytes) else ids.tolist()) \
                    == block_id_form_oracle(texts)
                with pytest.raises(ValidationError,
                                   match="ranked set was built without"):
                    from_bytes.ids
            else:
                assert ids.tolist() == texts
            for name in self.COLUMNS[1:]:
                assert getattr(from_bytes, name).tolist() == getattr(
                    from_records, name).tolist(), name
            ranked_any += 1
        assert ranked_any > 40

    def test_the_id_policy_makes_no_id_text_on_the_block_route(
            self, tmp_path):
        path = write(tmp_path, "in.csv",
                     "id,score,label\nb,0.5,1\né,0.5,0\na,0.5,0\nc,0.9,1\n")
        ids, scores, labels = _load_columns(path, id_form="bytes")
        # ids of at most eight bytes: each id's word
        assert ids.dtype == np.uint64
        assert ids.tolist() == block_id_form_oracle(["b", "é", "a", "c"])
        ranked = _rank_columns(ids, scores, labels, TiePolicy.ID_ORDER)
        assert ranked.labels == (1, 0, 1, 0)
        with pytest.raises(ValidationError,
                           match="ranked set was built without its ids"):
            ranked.ids
        # a longer id: every id's bytes
        path = write(tmp_path, "long.csv", "id,score,label\nb,0.5,1\n"
                     "aaaaaaaab,0.5,0\naaaaaaaa,0.5,0\nc,0.9,1\n")
        ids, scores, labels = _load_columns(path, id_form="bytes")
        assert ids == b"b\naaaaaaaab\naaaaaaaa\nc\n"
        ranked = _rank_columns(ids, scores, labels, TiePolicy.ID_ORDER)
        assert ranked.labels == (1, 0, 0, 1)
        # no id column: row numbers, as texts
        path = write(tmp_path, "bare.csv", "score,label\n0.5,1\n0.5,0\n")
        assert _load_columns(path, id_form="bytes")[0].tolist() == ["1", "2"]

    def test_id_bytes_peak_below_the_texts(self, tmp_path):
        """Ranked under the id policy from the block route's bytes, a
        20,000-row file peaks well below the same file ranked from its
        id texts."""
        rng = np.random.default_rng(48)
        rows = 20_000
        path = write(tmp_path, "ties.csv", "id,score,label\n" + "".join(
            f"r{int(i):06d},{int(s) / 47!r},{int(y)}\n"
            for i, s, y in zip(rng.permutation(rows),
                               rng.integers(0, 48, rows),
                               rng.integers(0, 2, rows))))

        def peak(id_form) -> int:
            tracemalloc.start()
            try:
                _rank_columns(*_load_columns(path, id_form=id_form),
                              TiePolicy.ID_ORDER)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak("bytes") <= 0.8 * peak("texts")

    @pytest.mark.parametrize("policy", [TiePolicy.INPUT_ORDER,
                                        TiePolicy.EXPECTED_VALUE])
    def test_a_set_ranked_without_ids_refuses_them(self, tmp_path, policy):
        path = write(tmp_path, "in.csv",
                     "id,score,label\nb,0.5,1\na,0.5,0\nc,0.9,0\n")
        ids, scores, labels = _load_columns(path)
        ranked = _rank_columns(None, scores, labels, policy)
        with_ids = _rank_columns(ids, scores, labels, policy)
        assert (ranked.scores, ranked.labels) == (with_ids.scores,
                                                  with_ids.labels)
        out = tmp_path / "out.csv"
        for read in (lambda: ranked.ids, lambda: ranked.records,
                     lambda: save_scored(ranked, out)):
            with pytest.raises(ValidationError,
                               match="ranked set was built without its ids"):
                read()
        assert not out.exists()

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
                assert column._reprs(column.floats()) == [
                    repr(float(v)) for v in values]
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


class TestChunkBoundaries:
    """The command line writes a curve `_CHUNK_POINTS` points a piece, and
    `emit_curves` joins the same pieces; the text must match the oracles
    wherever a series meets a cut."""

    CHUNK = gio._CHUNK_POINTS

    @staticmethod
    def _check(series) -> None:
        TestRunsAgainstOracles._check(series)
        rows = 0
        for piece in gio._curve_pieces(series, "csv"):
            assert piece.count("\r\n") <= TestChunkBoundaries.CHUNK
            rows += piece.count("\r\n")
        assert rows == 1 + sum(map(len, series))

    @pytest.mark.parametrize("length", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                        2 * CHUNK + 1])
    def test_lengths_around_a_cut(self, length):
        y = [Fraction(k * k % 97, k + 1) for k in range(length)]
        self._check([CurveSeries(f"{length} points", XKind.COUNT,
                                 zip(range(1, length + 1), y))])

    @pytest.mark.parametrize("scale", TestRunsAgainstOracles.SCALES)
    def test_a_run_across_cuts(self, scale):
        # one run spans the first cut; another spans the second and ends
        # the series
        length = 2 * self.CHUNK + 1
        y = [Fraction(k, 7) * scale for k in range(length)]
        y[self.CHUNK - 5:self.CHUNK + 9] = [y[self.CHUNK - 5]] * 14
        y[2 * self.CHUNK - 1:] = [Fraction(-3, 11) * scale] * 2
        self._check([CurveSeries("runs", XKind.COUNT,
                                 zip(range(1, length + 1), y))])

    def test_fpr_with_repeated_x_across_a_cut(self):
        length = self.CHUNK + 40
        x = [Fraction(k // 30, length) for k in range(length)]
        y = [Fraction(k // 3, length) for k in range(length)]
        self._check([CurveSeries("roc", XKind.FPR, zip(x, y))])

    def test_two_series_in_one_output(self):
        first = self.CHUNK + 1
        second = 2 * self.CHUNK - 1
        self._check([
            CurveSeries("first", XKind.FRACTION,
                        [(Fraction(k, first), Fraction(k % 5, 9))
                         for k in range(1, first + 1)]),
            CurveSeries("second, quoted", XKind.FPR,
                        [(Fraction(k // 2, second), Fraction(k, second))
                         for k in range(second)])])
