"""Independent oracles and generators used across the test modules.

The oracles recompute the measures by their plainest possible definition
(explicit pair enumeration, literal prefix sums) so library results are
checked against a second route, not against themselves.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from gainslift import (BudgetExhaustedError, CurveSeries, InfeasibleError,
                       RankedTestSet, ResamplePlan, ScoredFile, ScoredRecord,
                       TiePolicy, ValidationError, XKind, auc_pairs, lift,
                       parse_metric, rank_records, stratified_sample)
from gainslift.io import _parse_label, _parse_score
from gainslift.compare import (EXHAUSTIVE_LIMIT, LEX_REFINE_LIMIT,
                               DisagreementReport, Metric)
from gainslift.resample import (GRID_POINTS, RateBand, ResampleSummary,
                                _band, _positives_for)


def brute_force_auc(ranked: RankedTestSet) -> Fraction:
    """Score-comparison AUC by enumerating every positive/negative pair."""
    pos = [r.score for r in ranked.records if r.label == 1]
    neg = [r.score for r in ranked.records if r.label == 0]
    doubled = 0
    for p in pos:
        for q in neg:
            if p > q:
                doubled += 2
            elif p == q:
                doubled += 1
    return Fraction(doubled, 2 * len(pos) * len(neg))


def prefix_gains(labels, n: int) -> int:
    """Literal definition: positives among the first n labels."""
    return sum(labels[:n])


def records_from_labels(labels, scores=None) -> list[ScoredRecord]:
    """Build records in the given order; default scores strictly decrease."""
    n = len(labels)
    if scores is None:
        scores = [float(n - i) for i in range(n)]
    return [ScoredRecord(id=f"r{i:04d}", score=float(s), label=int(y))
            for i, (y, s) in enumerate(zip(labels, scores))]


def random_instance(rng: np.random.Generator, max_n: int = 200,
                    tie_prob: float = 0.3) -> list[ScoredRecord]:
    """A random scored set with both classes present and duplicated scores.

    Each score after the first duplicates an earlier one with probability
    tie_prob, which exercises midrank handling.
    """
    n = int(rng.integers(2, max_n + 1))
    scores: list[float] = []
    for i in range(n):
        if i > 0 and rng.random() < tie_prob:
            scores.append(scores[int(rng.integers(0, i))])
        else:
            scores.append(float(rng.random()))
    labels = [int(v) for v in rng.integers(0, 2, size=n)]
    if all(y == 1 for y in labels):
        labels[int(rng.integers(0, n))] = 0
    if all(y == 0 for y in labels):
        labels[int(rng.integers(0, n))] = 1
    return [ScoredRecord(id=f"r{i:04d}", score=s, label=y)
            for i, (s, y) in enumerate(zip(scores, labels))]


# ---------------------------------------------------------------------------
# oracles for the comparison and resampling kernels: the per-record
# `Fraction` routes those kernels replaced, kept here as the reference
# ---------------------------------------------------------------------------

def lift_above(ranked_a: RankedTestSet,
               ranked_b: RankedTestSet) -> tuple[list[int], list[int]]:
    """Cutoffs where a's exact lift is strictly above b's, and the reverse,
    by one `lift()` call per run and cutoff."""
    a_above, b_above = [], []
    for n in range(1, ranked_a.n_total + 1):
        la, lb = lift(ranked_a, n), lift(ranked_b, n)
        if la > lb:
            a_above.append(n)
        elif lb > la:
            b_above.append(n)
    return a_above, b_above


def _arrangements_exhaustive(n_total: int, n_pos: int) -> list[tuple[int, ...]]:
    out = []
    for positions in combinations(range(n_total), n_pos):
        labels = [0] * n_total
        for p in positions:
            labels[p] = 1
        out.append(tuple(labels))
    return out


def _arrangements_sampled(n_total: int, n_pos: int, budget: int,
                          seed: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    out = []
    for _ in range(budget):
        positions = rng.choice(n_total, size=n_pos, replace=False)
        labels = [0] * n_total
        for p in positions:
            labels[p] = 1
        t = tuple(labels)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def scan_for_inversion(values: list[tuple[Fraction, Fraction, int]]
                       ) -> Optional[tuple[int, int]]:
    """Find i, j with a_i < a_j but b_i > b_j among (a, b, index) triples."""
    ordered = sorted(values, key=lambda t: (t[0], t[1]))
    best_b: Optional[Fraction] = None
    best_idx = -1
    k = 0
    while k < len(ordered):
        # process one group of equal a at a time
        group_end = k
        a_here = ordered[k][0]
        while group_end < len(ordered) and ordered[group_end][0] == a_here:
            group_end += 1
        if best_b is not None:
            for t in ordered[k:group_end]:
                if t[1] < best_b:
                    return best_idx, t[2]
        for t in ordered[k:group_end]:
            if best_b is None or t[1] > best_b:
                best_b = t[1]
                best_idx = t[2]
        k = group_end
    return None


def _lex_first_pair(arrangements, values) -> Optional[tuple[int, int]]:
    """First disagreeing pair in lexicographic order of label tuples."""
    order = sorted(range(len(arrangements)), key=lambda i: arrangements[i])
    by_index = {idx: (a, b) for a, b, idx in values}
    for pos_x, i in enumerate(order):
        ai, bi = by_index[i]
        for j in order[pos_x + 1:]:
            aj, bj = by_index[j]
            if (ai > aj and bi < bj) or (ai < aj and bi > bj):
                return i, j
    return None


def label_evaluator(metric: Metric, n_total: int, n_pos: int):
    """The metric as a scalar function of a label sequence whose implicit
    scores strictly decrease with rank: auc by counting discordant pairs
    (the Mann-Whitney form), lift@n and accuracy@n from the top-n positives."""
    n_neg = n_total - n_pos
    at = metric.at

    def _auc(labels) -> Fraction:
        discordant = 0
        neg_seen = 0
        for y in labels:
            if y:
                discordant += neg_seen
            else:
                neg_seen += 1
        return Fraction(n_pos * n_neg - discordant, n_pos * n_neg)

    def _lift(labels) -> Fraction:
        return Fraction(sum(labels[:at]) * n_total, at * n_pos)

    def _accuracy(labels) -> Fraction:
        tp = sum(labels[:at])
        return Fraction(tp + (n_total - at) - (n_pos - tp), n_total)

    return {"auc": _auc, "lift": _lift, "accuracy": _accuracy}[metric.kind]


def disagreement_oracle(metric_a: str, metric_b: str, n_total: int, n_pos: int,
                        budget: int = 200_000, seed: int = 0):
    """The disagreement search by its plainest route: every arrangement held
    as a label tuple, scored by the scalar `label_evaluator`s, scanned over
    (a, b, index) triples of `Fraction`s.

    Returns the report `find_disagreement` must return, None when the
    exhaustive search certifies no disagreement, or raises
    BudgetExhaustedError when the sampled search finds none.
    """
    ma, mb = parse_metric(metric_a), parse_metric(metric_b)
    space = math.comb(n_total, n_pos)
    exhaustive = space <= min(budget, EXHAUSTIVE_LIMIT)
    if exhaustive:
        arrangements = _arrangements_exhaustive(n_total, n_pos)
    else:
        arrangements = _arrangements_sampled(n_total, n_pos, budget, seed)
    eval_a = label_evaluator(ma, n_total, n_pos)
    eval_b = label_evaluator(mb, n_total, n_pos)
    values = [(eval_a(labels), eval_b(labels), i)
              for i, labels in enumerate(arrangements)]
    hit = scan_for_inversion(values)
    if hit is None:
        if exhaustive:
            return None
        raise BudgetExhaustedError("no disagreement among sampled arrangements")
    i, j = hit
    if exhaustive and len(arrangements) <= LEX_REFINE_LIMIT:
        i, j = _lex_first_pair(arrangements, values)
    lx, ly = arrangements[i], arrangements[j]
    ax, ay, bx, by = eval_a(lx), eval_a(ly), eval_b(lx), eval_b(ly)
    if ax < ay:
        lx, ly, ax, ay, bx, by = ly, lx, ay, ax, by, bx
    return DisagreementReport(metric_a=ma, metric_b=mb, labels_x=lx,
                              labels_y=ly, value_a_x=ax, value_a_y=ay,
                              value_b_x=bx, value_b_y=by,
                              exhaustive=exhaustive)


def run_plan_oracle(pool, plan: ResamplePlan) -> ResampleSummary:
    """`run_plan` by the record route: per replicate a `stratified_sample`
    list, `rank_records`, one `positives_in_prefix` per grid cutoff and
    `auc_pairs` (a second AUC route; `run_plan` takes the rank-sum one),
    aggregated exactly as `run_plan` aggregates."""
    size = plan.sample_size
    cutoffs = [-(-k * size // GRID_POINTS) for k in range(1, GRID_POINTS + 1)]
    bands = []
    for k, rate in enumerate(plan.target_rates):
        want_pos = _positives_for(rate, size)
        if want_pos < 1 or want_pos >= size:
            raise InfeasibleError(f"rate {rate} leaves no records of one class")
        lift_rows, pcg_rows, aucs = [], [], []
        for r in range(plan.replicate_count):
            rng = np.random.default_rng([plan.seed, k, r])
            ranked = rank_records(stratified_sample(pool, rate, size, rng))
            gains = [ranked.positives_in_prefix(n) for n in cutoffs]
            pcg_rows.append([g / want_pos for g in gains])
            lift_rows.append([g * size / (n * want_pos)
                              for g, n in zip(gains, cutoffs)])
            aucs.append(float(auc_pairs(ranked)))
        bands.append(RateBand(
            target_rate=rate, realized_rate=want_pos / size, n_pos=want_pos,
            mean_auc=float(sum(aucs) / len(aucs)),
            p_cum_gains=_band(np.array(pcg_rows)),
            lift=_band(np.array(lift_rows))))
    return ResampleSummary(grid=tuple(k / GRID_POINTS
                                      for k in range(1, GRID_POINTS + 1)),
                           sample_size=size,
                           replicate_count=plan.replicate_count,
                           seed=plan.seed, bands=tuple(bands))


# ---------------------------------------------------------------------------
# oracles for the columnar ranked set, the curve kernels, the serializers and
# the loader: the per-record and per-point routes those replaced
# ---------------------------------------------------------------------------

def rank_order_oracle(records, tie_policy: TiePolicy) -> list[str]:
    """Ids in rank order by Python's sort on (-score) or (-score, id)."""
    if tie_policy is TiePolicy.ID_ORDER:
        ordered = sorted(records, key=lambda r: (-r.score, r.id))
    else:
        ordered = sorted(records, key=lambda r: -r.score)
    return [r.id for r in ordered]


def stable_order_oracle(ids: np.ndarray, scores: np.ndarray,
                        tie_policy: TiePolicy) -> np.ndarray:
    """The rank order of columns by numpy's stable merge sort on -score, or
    under the id policy by `np.lexsort` on (-score, id rank) with ids
    compared as Python strings: the two sorts `_rank_columns` once ran."""
    if tie_policy is not TiePolicy.ID_ORDER:
        return np.argsort(-scores, kind="stable")
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.tolist().__getitem__)] = (
        np.arange(len(ids)))
    return np.lexsort((id_rank, -scores))


def auc_pairs_matrix(ranked: RankedTestSet) -> Fraction:
    """Pair-counting AUC from the two P x N comparison matrices."""
    scores = np.array(ranked.scores)
    labels = np.array(ranked.labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return Fraction(2 * wins + ties, 2 * ranked.n_pos * ranked.n_neg)


def gains_series_oracle(ranked: RankedTestSet, fraction: bool = False,
                        name: str = "gains") -> CurveSeries:
    """One `positives_in_prefix` and two `Fraction`s per cutoff."""
    points = []
    for n in range(1, ranked.n_total + 1):
        g = Fraction(ranked.positives_in_prefix(n))
        if fraction:
            points.append((Fraction(n, ranked.n_total),
                           Fraction(g, ranked.n_pos)))
        else:
            points.append((Fraction(n), g))
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries(name=name, x_kind=kind, points=tuple(points))


def lift_series_oracle(ranked: RankedTestSet, fraction: bool = True,
                       name: str = "lift") -> CurveSeries:
    """One `lift()` call per cutoff."""
    points = []
    for n in range(1, ranked.n_total + 1):
        x = Fraction(n, ranked.n_total) if fraction else Fraction(n)
        points.append((x, lift(ranked, n)))
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries(name=name, x_kind=kind, points=tuple(points))


def benefit_series_oracle(ranked: RankedTestSet, costs,
                          name: str = "benefit") -> CurveSeries:
    """One `positives_in_prefix` and three `Fraction` products per cutoff."""
    points = []
    for n in range(1, ranked.n_total + 1):
        tp = Fraction(ranked.positives_in_prefix(n))
        value = tp * Fraction(costs.q_tp) + (n - tp) * Fraction(costs.q_fp)
        points.append((Fraction(n), value))
    return CurveSeries(name=name, x_kind=XKind.COUNT, points=tuple(points))


def roc_points_oracle(ranked: RankedTestSet, name: str = "roc") -> CurveSeries:
    """One point per tie group, accumulated group by group."""
    points = [(Fraction(0), Fraction(0))]
    cum_pos = cum_neg = 0
    for start, end, pos in ranked.tie_groups():
        cum_pos += pos
        cum_neg += (end - start) - pos
        points.append((Fraction(cum_neg, ranked.n_neg),
                       Fraction(cum_pos, ranked.n_pos)))
    return CurveSeries(name=name, x_kind=XKind.FPR, points=tuple(points))


def curves_csv_oracle(series) -> str:
    """One `csv.writer` row per point, floats from `float(Fraction)`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["series", "x_kind", "x", "y"])
    for s in series:
        for x, y in s.points:
            writer.writerow([s.name, s.x_kind.value, repr(float(x)),
                             repr(float(y))])
    return buf.getvalue()


def curves_json_oracle(series) -> str:
    """The payload built as dicts and written by `json.dumps(indent=2)`."""
    def exact(value: Fraction) -> str:
        value = Fraction(value)
        return f"{value.numerator}/{value.denominator}"

    payload = {"series": [
        {
            "name": s.name,
            "x_kind": s.x_kind.value,
            "points": [
                {"x": float(x), "y": float(y),
                 "x_exact": exact(x), "y_exact": exact(y)}
                for x, y in s.points
            ],
        }
        for s in series
    ]}
    return json.dumps(payload, indent=2) + "\n"


def load_csv_oracle(file: ScoredFile) -> list[ScoredRecord]:
    """Delimited-text loading through `csv.DictReader`, one dict per row,
    with the same checks and messages as `load_scored`."""
    records = []
    with open(file.path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle, delimiter=file.delimiter)
        if reader.fieldnames is None:
            raise ValidationError(f"{file.path}: missing header row")
        names = set(reader.fieldnames)
        for col in (file.label_col, file.score_col):
            if col not in names:
                raise ValidationError(
                    f"{file.path}: column {col!r} not in header {sorted(names)}")
        id_col = file.id_col
        if id_col is None and "id" in names:
            id_col = "id"
        if id_col is not None and id_col not in names:
            raise ValidationError(
                f"{file.path}: column {id_col!r} not in header {sorted(names)}")
        for row_no, row in enumerate(reader, start=1):
            label = _parse_label(row.get(file.label_col), row_no)
            score = _parse_score(row.get(file.score_col), row_no)
            rid = row[id_col] if id_col is not None else str(row_no)
            if rid is None or rid == "":
                raise ValidationError(f"row {row_no}: empty id")
            records.append(ScoredRecord(id=rid, score=score, label=label))
    if not records:
        raise ValidationError(f"{file.path}: no data rows")
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValidationError(f"{file.path}: duplicate id {rec.id!r}")
        seen.add(rec.id)
    return records


def load_jsonl_oracle(file: ScoredFile) -> list[ScoredRecord]:
    """Json-lines loading by a generator that builds one `ScoredRecord` per
    line, with the same checks and messages as `load_scored`."""
    def read():
        with open(file.path, encoding="utf-8") as handle:
            row_no = 0
            for line in handle:
                if not line.strip():
                    continue
                row_no += 1
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(
                        f"row {row_no}: bad json ({exc})") from None
                except ValueError:  # an int of over 4300 digits, by default
                    raise ValidationError(
                        f"row {row_no}: an integer has too many digits") from None
                except RecursionError:
                    raise ValidationError(
                        f"row {row_no}: json nested too deeply") from None
                if (not isinstance(obj, dict) or file.label_col not in obj
                        or file.score_col not in obj):
                    raise ValidationError(
                        f"row {row_no}: missing {file.label_col!r} or "
                        f"{file.score_col!r} field")
                raw_label, raw_score = obj[file.label_col], obj[file.score_col]
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

    records = list(read())
    if not records:
        raise ValidationError(f"{file.path}: no data rows")
    seen: set[str] = set()
    for rec in records:
        if rec.id in seen:
            raise ValidationError(f"{file.path}: duplicate id {rec.id!r}")
        seen.add(rec.id)
    return records


def random_scored_csv(rng: np.random.Generator, fault_rate: float = 0.01,
                      quote_rate: float = 0.1,
                      tie_step: float = 0.0) -> tuple[str, dict, str]:
    """A seeded delimited-text scored file: its text, the `ScoredFile`
    options that read it, and the encoding to write it in.

    The header may order the columns freely, carry an extra column, repeat
    a name (the last occurrence counts) and start with a byte-order mark.
    Rows may be blank or short, carry ids holding spaces and, at
    `quote_rate`, the delimiter and quotes, and lenient labels such as ' 1'.
    With `fault_rate` a row gets a bad label, a bad score, an empty id or a
    repeated id. A quote rate of 0 draws the same numbers as any other, so
    it changes only the ids that would have been quoted. A positive
    `tie_step` rounds every score to a multiple of it, so ties are common;
    it too draws the same numbers.
    """
    delimiter = ";" if rng.random() < 0.3 else ","
    id_name = ("id", "key", None)[int(rng.integers(0, 3))]
    names = ["score", "label", "note"] + ([id_name] if id_name else [])
    names = [names[i] for i in rng.permutation(len(names))]
    if rng.random() < 0.3:  # a repeated name: the earlier column is ignored
        names.insert(int(rng.integers(0, len(names) + 1)),
                     ("score", "label", "note")[int(rng.integers(0, 3))])
    last = {name: k for k, name in enumerate(names)}
    options = {"delimiter": delimiter}
    if id_name == "key":
        options["id_col"] = "key"
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(names)
    ids: list[str] = []
    for i in range(int(rng.integers(0, 40))):
        kind = rng.random()
        if kind < 0.05:
            buf.write("\n")
            continue
        rid = f"r{i:03d}"
        if rng.random() < quote_rate:
            rid = f'x{delimiter}"{i}" '
        score = float(rng.normal())
        if tie_step:
            score = round(score / tie_step) * tie_step
        values = {"score": repr(score),
                  "label": str(int(rng.integers(0, 2))),
                  "note": "n", "key": rid, "id": rid}
        if rng.random() < 0.1:
            values["label"] = (" 1", "0 ", " 0 ")[int(rng.integers(0, 3))]
        if rng.random() < 0.1:
            values["score"] = f" {values['score']}"
        fault = rng.random()
        if fault < fault_rate:
            values["label"] = ("2", "true", "", "1.0", "-1")[
                int(rng.integers(0, 5))]
        elif fault < 2 * fault_rate:
            values["score"] = ("oops", "nan", "inf", "-inf", "", "1e999")[
                int(rng.integers(0, 6))]
        elif fault < 3 * fault_rate and id_name:
            values[id_name] = ""
        elif fault < 4 * fault_rate and id_name and ids:
            values[id_name] = ids[int(rng.integers(0, len(ids)))]
        if id_name:
            ids.append(values[id_name])
        row = [values[name] if k == last[name] else "x"
               for k, name in enumerate(names)]
        if kind < 0.07:  # a short row lacks its last fields
            row = row[:int(rng.integers(1, len(row)))]
        writer.writerow(row)
    encoding = "utf-8-sig" if rng.random() < 0.3 else "utf-8"
    return buf.getvalue(), options, encoding


def random_scored_jsonl(rng: np.random.Generator, fault_rate: float = 0.02
                        ) -> tuple[str, dict]:
    """A seeded json-lines scored file and the `ScoredFile` options that read
    it: blank lines, ids of several types or none, lenient string labels,
    and with `fault_rate` a row with bad json, a missing field, a bool or
    float label, a bool or non-finite score or a repeated id."""
    id_name = ("id", "key", None)[int(rng.integers(0, 3))]
    options = {"id_col": "key"} if id_name == "key" else {}
    lines: list[str] = []
    ids: list = []
    for i in range(int(rng.integers(0, 40))):
        if rng.random() < 0.05:
            lines.append("   ")
            continue
        obj = {"score": float(rng.normal()), "label": int(rng.integers(0, 2))}
        if rng.random() < 0.1:
            obj["label"] = (" 1", "0", 1)[int(rng.integers(0, 3))]
        if rng.random() < 0.1:
            obj["score"] = int(rng.integers(-5, 5))
        if id_name:
            obj[id_name] = (f"r{i:03d}", i, "")[int(rng.integers(0, 3))] \
                if rng.random() < 0.2 else f"r{i:03d}"
        fault = rng.random()
        if fault < fault_rate:
            lines.append("{not json")
            continue
        if fault < 2 * fault_rate:
            del obj[("score", "label")[int(rng.integers(0, 2))]]
        elif fault < 3 * fault_rate:
            obj["label"] = (True, 1.0, "yes", 2)[int(rng.integers(0, 4))]
        elif fault < 4 * fault_rate:
            obj["score"] = (True, float("nan"), "x", None)[
                int(rng.integers(0, 4))]
        elif fault < 5 * fault_rate and id_name and ids:
            obj[id_name] = ids[int(rng.integers(0, len(ids)))]
        if id_name:
            ids.append(obj[id_name])
        lines.append(json.dumps(obj))
    return "\n".join(lines) + ("\n" if lines else ""), options
