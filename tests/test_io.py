import json
from fractions import Fraction

import numpy as np
import pytest

from gainslift import (ScoredFile, TiePolicy, ValidationError, decile_series,
                       emit_curves,
                       example24_path, gains_series, lift_series, load_scored,
                       parse_curves, random_targeting_series, rank_records,
                       render_decimal, roc_points, save_scored)
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
    def test_round_trip(self, tmp_path):
        records = records_from_labels([1, 0, 1], [0.9, 0.5, 0.25])
        out = tmp_path / "out.csv"
        save_scored(records, out)
        again = load_scored(out)
        assert [(r.id, r.score, r.label) for r in again] == \
            [(r.id, r.score, r.label) for r in records]


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

    def test_random_csv_files(self, tmp_path):
        rng = np.random.default_rng(20240)
        failures = 0
        for k in range(300):
            text, options, encoding = random_scored_csv(rng)
            path = tmp_path / f"r{k}.csv"
            path.write_text(text, encoding=encoding)
            file = ScoredFile(path=path, format="csv", **options)
            expected = _outcome(load_csv_oracle, file)
            assert _outcome(load_scored, file) == expected, text
            failures += isinstance(expected, tuple)
        assert 30 < failures < 270  # both outcomes are well exercised

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
             "new\nline", ""]

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
