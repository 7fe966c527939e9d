"""Metamorphic relations of the ranking, checked through the command line.

A ranking is fixed by the order of the scores, not their values, so a
rank-preserving map of the scores changes no printed measure under any tie
policy. The id and expected-value policies are fixed by the set, not by the
input's row order, so shuffling the rows changes none of their measures.
Negating every score reverses the ranking, which maps AUC to 1 - AUC. ROC
and AUC do not see the class distribution (Fawcett 2006, "An introduction to
ROC analysis"), so repeating every negative changes neither. Repeating every
record keeps the class distribution, so under the expected-value policy the
gains share and lift at each repeated cutoff are the original's. Each relation
is checked on a seeded file with many ties and signed zeros, on outputs
compared byte for byte.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gainslift.cli import cli_main

ROWS = 3_000
LEVELS = 30

MEASURES = {
    "gains-curve": ["gains"],
    "gains-fraction-json": ["gains", "--x", "fraction", "--format", "json"],
    "gains-at-n": ["gains", "--n", "777", "--exact"],
    "lift-curve-json": ["lift", "--format", "json"],
    "lift-at-fraction": ["lift", "--fraction", "0.3", "--precision", "9"],
    "deciles": ["deciles", "--exact"],
    "deciles-json": ["deciles", "--format", "json", "--out"],
    "auc-pairs": ["auc", "--exact"],
    "auc-wilcoxon": ["auc", "--method", "wilcoxon", "--exact"],
    "roc": ["roc"],
    "roc-json": ["roc", "--format", "json"],
    "benefit-json": ["benefit", "--qtp", "1", "--qfp=-0.2", "--format", "json"],
    "chart-lift": ["chart", "--kind", "lift", "--out"],
    "chart-roc": ["chart", "--kind", "roc", "--out"],
}


def _tied_rows(seed: int) -> list[tuple[str, float, int]]:
    """Seeded (id, score, label) rows at LEVELS score levels around zero;
    about half the zero scores are -0.0. Ids are shuffled against rows."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=ROWS)
    level = np.clip(rng.normal(size=ROWS) * 6 + 4 * labels, -15, 14)
    scores = np.round(level) / 8
    scores[(scores == 0) & (rng.random(ROWS) < 0.5)] = -0.0
    ids = [f"r{i:05d}" for i in rng.permutation(ROWS)]
    return list(zip(ids, scores.tolist(), labels.tolist()))


def _write(path: Path, rows) -> str:
    path.write_text("id,score,label\n" + "".join(
        f"{i},{s!r},{y}\n" for i, s, y in rows), encoding="utf-8")
    return str(path)


def _outputs(capsys, tmp_path, path: str, policy: str,
             measures=MEASURES) -> dict[str, str]:
    """Every measure's text for the file under the tie policy."""
    texts = {}
    for name, argv in measures.items():
        argv = [argv[0], "--input", path, "--tie-policy", policy, *argv[1:]]
        if argv[-1] == "--out":
            out = tmp_path / "out.txt"
            assert cli_main(argv + [str(out)]) == 0
            texts[name] = out.read_text(encoding="utf-8")
        else:
            assert cli_main(argv) == 0
            texts[name] = capsys.readouterr().out
    return texts


@pytest.fixture(scope="module")
def rows():
    return _tied_rows(4242)


@pytest.mark.parametrize("policy", ["input", "id", "expected"])
def test_dense_ranks_change_no_output(capsys, tmp_path, rows, policy):
    scores = np.array([s for _, s, _ in rows])
    dense = np.unique(scores, return_inverse=True)[1] + 1  # -0.0 == 0.0
    assert dense.max() < len(rows) // 10  # the rows really are tied
    ranked_rows = [(i, float(d), y) for (i, _, y), d in zip(rows, dense)]
    original = _outputs(capsys, tmp_path, _write(tmp_path / "a.csv", rows),
                        policy)
    mapped = _outputs(capsys, tmp_path,
                      _write(tmp_path / "b.csv", ranked_rows), policy)
    assert mapped == original


@pytest.mark.parametrize("policy", ["id", "expected"])
def test_row_order_changes_no_output(capsys, tmp_path, rows, policy):
    original = _outputs(capsys, tmp_path, _write(tmp_path / "a.csv", rows),
                        policy)
    rng = np.random.default_rng(99)
    for k in range(3):
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        path = _write(tmp_path / f"shuffled{k}.csv", shuffled)
        assert _outputs(capsys, tmp_path, path, policy) == original


AUC_MEASURES = {name: MEASURES[name] for name in ("auc-pairs", "auc-wilcoxon")}


@pytest.mark.parametrize("policy", ["input", "id", "expected"])
def test_negated_scores_give_one_minus_auc(capsys, tmp_path, rows, policy):
    negated = [(i, -s, y) for i, s, y in rows]
    original = _outputs(capsys, tmp_path, _write(tmp_path / "a.csv", rows),
                        policy, AUC_MEASURES)
    mapped = _outputs(capsys, tmp_path, _write(tmp_path / "b.csv", negated),
                      policy, AUC_MEASURES)
    for name in AUC_MEASURES:
        auc = Fraction(original[name].strip())
        assert 0 < auc < 1 and auc != Fraction(1, 2)
        assert Fraction(mapped[name].strip()) == 1 - auc


@pytest.mark.parametrize("policy", ["input", "id", "expected"])
def test_repeated_negatives_change_no_roc_output(capsys, tmp_path, rows,
                                                 policy):
    measures = {name: MEASURES[name] for name in (
        "roc", "roc-json", "auc-pairs", "auc-wilcoxon")}
    copies = [(f"{i}-copy{k}", s, y) for k in (1, 2)
              for i, s, y in rows if y == 0]
    original = _outputs(capsys, tmp_path, _write(tmp_path / "a.csv", rows),
                        policy, measures)
    repeated = _outputs(capsys, tmp_path,
                        _write(tmp_path / "b.csv", rows + copies), policy,
                        measures)
    assert repeated == original


def test_repeated_records_keep_gains_and_lift_points(capsys, tmp_path, rows):
    """Three copies of every record, with new ids: under the expected-value
    policy the point at cutoff 3j (x = j/N) of the gains-share and lift
    curves is the original's point at j, exact texts included. Under input
    and id the copies change the order inside tie groups, so it holds only
    here."""
    measures = {name: MEASURES[name] for name in (
        "gains-fraction-json", "lift-curve-json")}
    copies = [(f"{i}-copy{k}", s, y) for k in (1, 2) for i, s, y in rows]
    original = _outputs(capsys, tmp_path, _write(tmp_path / "a.csv", rows),
                        "expected", measures)
    repeated = _outputs(capsys, tmp_path,
                        _write(tmp_path / "b.csv", rows + copies), "expected",
                        measures)
    for name in measures:
        (want,) = json.loads(original[name])["series"]
        (got,) = json.loads(repeated[name])["series"]
        assert len(got["points"]) == 3 * len(want["points"]) == 3 * ROWS
        assert {**got, "points": got["points"][2::3]} == want
