import json
from fractions import Fraction

import numpy as np
import pytest

from gainslift import (ScoredFile, ValidationError, decile_series, emit_curves,
                       example24_path, gains_series, lift_series, load_scored,
                       parse_curves, random_targeting_series, rank_records,
                       render_decimal, roc_points, save_scored)
from gainslift.metrics import CurveSeries, XKind

from helpers import (curves_csv_oracle, curves_json_oracle, load_csv_oracle,
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

    def test_writes_to_path(self, tmp_path, example24):
        out = tmp_path / "curves.json"
        emit_curves([gains_series(example24)], format="json", out=out)
        assert parse_curves(out.read_text(), format="json")[0].name == "gains"


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
