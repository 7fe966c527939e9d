"""The benchmark's workloads: seeded inputs, one round of operations each,
and the check of every operation's output.

A workload is built in three steps. `__init__` draws the inputs from the
seed with numpy and computes every expected output through `oracles`; this
is the benchmark's own work and is kept out of `setup_s`. `prepare` builds
the in-memory inputs the program keeps (records, ranked runs, plans) and is
part of `setup_s`. `round` returns one round of operations; a run repeats
whole rounds, so every run attempts the same mix.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles

# cli-curves: one untied scored file; every op runs the five commands below.
CURVES_ROWS = 8_000
CURVES_POS_SHARE = 0.15
CURVES_SEPARATION = 1.2

# cli-point-ties: heavily tied scores, one single-cutoff command per op.
TIES_ROWS = 20_000
TIES_POS_SHARE = 0.15
TIES_LEVELS = 48          # distinct scores; 20000/48 puts cutoffs inside groups
TIES_SEPARATION = 1.2
TIES_GAINS_N = 3333
TIES_BENEFIT_N = 4321
TIES_FRACTION = "0.07"    # ceil(0.07 * 20000) is 1400; a float ceil gives 1401

# compare-resample: library calls on inputs held in memory.
DOM_ROWS = 10_000
DOM_POS = 1_200
DOM_SEPARATION = 1.2
COMPARE_TARGETS = (100, 1000, 2500, 5000)
POOL_ROWS = 100_000
POOL_POS = 11_700
POOL_SEPARATION = 1.8124  # unit-variance classes at expected AUC 0.90
PLAN_RATES = (0.05, 0.117, 0.2)
PLAN_REPS = 10
PLAN_SIZE = 5_000
DISAGREE = ("auc", "lift@6", 16, 8)


@dataclass
class Op:
    """One timed operation: `run` is timed, `check` is not.

    `known_fault` names a program fault that makes this op fail on every
    attempt; such a failure is counted but does not make the run incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    reset: Callable[[], None] = lambda: None
    known_fault: Optional[str] = None


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Call the command line in-process and capture what it prints."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ok(result: tuple[int, str, str], stdout: Optional[str] = "") -> bool:
    code, out, err = result
    return code == 0 and err == "" and (stdout is None or out == stdout)


def _labels_with(rng: np.random.Generator, rows: int, positives: int) -> np.ndarray:
    labels = np.zeros(rows, dtype=np.int64)
    labels[rng.choice(rows, size=positives, replace=False)] = 1
    return labels


def _untied_scores(rng: np.random.Generator, labels: np.ndarray,
                   separation: float) -> np.ndarray:
    scores = rng.normal(size=labels.size) + separation * labels
    if np.unique(scores).size != scores.size:
        raise RuntimeError("generated scores are not distinct")
    return scores


def _write_csv(path: Path, ids, scores: np.ndarray, labels: np.ndarray) -> None:
    lines = ["id,score,label"]
    lines += [f"{i},{s!r},{y}" for i, s, y in
              zip(ids, scores.tolist(), labels.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# cli-curves
# ---------------------------------------------------------------------------

class CliCurves:
    name = "cli-curves"
    records_per_op = 5 * CURVES_ROWS  # five commands, each loads every row

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        n = CURVES_ROWS
        labels = _labels_with(rng, n, round(n * CURVES_POS_SHARE))
        scores = _untied_scores(rng, labels, CURVES_SEPARATION)
        self.input = workdir / "curves.csv"
        _write_csv(self.input, [f"r{i:06d}" for i in range(n)], scores, labels)
        self.out = {k: workdir / f"curves-{k}" for k in
                    ("lift.json", "gains.csv", "roc.csv", "lift.svg")}

        n_pos = int(labels.sum())
        prefix = oracles.prefix_positives(labels, oracles.input_order(scores))
        cut = np.arange(1, n + 1, dtype=np.int64)
        self.lift_x_exact = oracles.exact_texts(cut, np.full(n, n, dtype=np.int64))
        self.lift_y_exact = oracles.exact_texts(prefix[1:] * n, cut * n_pos)
        self.lift_x = (cut / n).tolist()
        self.lift_y = ((prefix[1:] * n) / (cut * n_pos)).tolist()
        self.gains_x = cut / n
        self.gains_y = prefix[1:] / n_pos
        self.roc_x, self.roc_y = oracles.roc_floats(scores, labels)
        self.auc_text = oracles.half_up(oracles.auc_midrank(scores, labels)) + "\n"
        self.n = n

    def prepare(self, gl) -> None:
        self.cli = gl.cli

    def round(self) -> list[Op]:
        path = str(self.input)
        commands = [
            ["lift", "--input", path, "--format", "json",
             "--out", str(self.out["lift.json"])],
            ["gains", "--input", path, "--x", "fraction",
             "--out", str(self.out["gains.csv"])],
            ["roc", "--input", path, "--out", str(self.out["roc.csv"])],
            ["chart", "--input", path, "--kind", "lift",
             "--out", str(self.out["lift.svg"])],
            ["auc", "--input", path],
        ]

        def run():
            return [run_cli(self.cli, argv) for argv in commands]

        def reset():
            for p in self.out.values():
                p.unlink(missing_ok=True)

        return [Op("curves", run, self.check, reset)]

    def check(self, results) -> bool:
        lift, gains, roc, chart, auc = results
        return (all(_cli_ok(r) for r in (lift, gains, roc, chart))
                and _cli_ok(auc, self.auc_text)
                and self._check_lift_json() and self._check_gains_csv()
                and self._check_roc_csv() and self._check_svg())

    def _check_lift_json(self) -> bool:
        payload = json.loads(self.out["lift.json"].read_text(encoding="utf-8"))
        (series,) = payload["series"]
        points = series["points"]
        return (series["x_kind"] == "fraction-n-over-N"
                and [p["x_exact"] for p in points] == self.lift_x_exact
                and [p["y_exact"] for p in points] == self.lift_y_exact
                and [p["x"] for p in points] == self.lift_x
                and [p["y"] for p in points] == self.lift_y)

    @staticmethod
    def _read_curve_csv(path: Path, name: str, kind: str):
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "series,x_kind,x,y":
            return None
        rows = [line.split(",") for line in lines[1:]]
        if any(r[0] != name or r[1] != kind for r in rows):
            return None
        return (np.array([float(r[2]) for r in rows]),
                np.array([float(r[3]) for r in rows]))

    def _check_gains_csv(self) -> bool:
        xy = self._read_curve_csv(self.out["gains.csv"], "gains",
                                  "fraction-n-over-N")
        return (xy is not None and np.array_equal(xy[0], self.gains_x)
                and np.array_equal(xy[1], self.gains_y))

    def _check_roc_csv(self) -> bool:
        xy = self._read_curve_csv(self.out["roc.csv"], "roc", "fpr")
        return (xy is not None and np.array_equal(xy[0], self.roc_x)
                and np.array_equal(xy[1], self.roc_y))

    def _check_svg(self) -> bool:
        root = ET.fromstring(self.out["lift.svg"].read_text(encoding="utf-8"))
        lines = [e for e in root.iter() if e.tag.endswith("polyline")]
        if len(lines) != 1:
            return False
        xs = [float(tok.split(",")[0]) for tok in lines[0].get("points").split()]
        return len(xs) == self.n and all(a < b for a, b in zip(xs, xs[1:]))


# ---------------------------------------------------------------------------
# cli-point-ties
# ---------------------------------------------------------------------------

class CliPointTies:
    name = "cli-point-ties"
    records_per_op = TIES_ROWS  # each command loads and ranks every row

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        n = TIES_ROWS
        labels = _labels_with(rng, n, round(n * TIES_POS_SHARE))
        latent = rng.normal(size=n) + TIES_SEPARATION * labels
        # equal-count score levels: TIES_LEVELS distinct scores k/64
        level = np.argsort(np.argsort(latent, kind="stable"), kind="stable")
        scores = (level * TIES_LEVELS // n + 1) / 64
        ids = np.array([f"r{i:06d}" for i in rng.permutation(n)])
        self.input = workdir / "ties.csv"
        _write_csv(self.input, ids.tolist(), scores, labels)

        n_pos = int(labels.sum())
        by_input = oracles.input_order(scores)
        prefix = oracles.prefix_positives(labels, by_input)
        prefix_id = oracles.prefix_positives(labels, oracles.id_order(scores, ids))
        ends = oracles.group_ends(scores[by_input])

        def lift_text(gains, cut):
            return oracles.half_up(oracles.lift_value(gains, cut, n, n_pos))

        cut = oracles.ceil_fraction_of(TIES_FRACTION, n)
        self.lift_text = lift_text(int(prefix[cut]), cut) + "\n"
        self.gains_text = oracles.half_up(int(prefix_id[TIES_GAINS_N])) + "\n"
        deciles = []
        for k in range(1, 11):
            cut = -(-k * n // 10)
            gains = oracles.expected_gains(prefix, ends, cut)
            deciles.append(f"{k} {lift_text(gains, cut)}\n")
        self.deciles_text = "".join(deciles)
        tp = int(prefix[TIES_BENEFIT_N])
        self.benefit_text = oracles.half_up(10 * tp - (TIES_BENEFIT_N - tp)) + "\n"
        self.auc_text = oracles.half_up(oracles.auc_midrank(scores, labels)) + "\n"

    def prepare(self, gl) -> None:
        self.cli = gl.cli

    def round(self) -> list[Op]:
        path = str(self.input)
        specs = [
            ("lift-fraction", ["lift", "--input", path,
                               "--fraction", TIES_FRACTION],
             self.lift_text, "a"),
            ("gains-id", ["gains", "--input", path, "--n", str(TIES_GAINS_N),
                          "--tie-policy", "id"], self.gains_text, None),
            ("deciles-expected", ["deciles", "--input", path,
                                  "--tie-policy", "expected"],
             self.deciles_text, None),
            ("benefit", ["benefit", "--input", path, "--n", str(TIES_BENEFIT_N),
                         "--qtp", "10", "--qfp=-1"], self.benefit_text, None),
            ("auc-wilcoxon", ["auc", "--input", path, "--method", "wilcoxon"],
             self.auc_text, None),
        ]
        return [Op(name, lambda argv=argv: run_cli(self.cli, argv),
                   lambda result, text=text: _cli_ok(result, text),
                   known_fault=fault)
                for name, argv, text, fault in specs]


# ---------------------------------------------------------------------------
# compare-resample
# ---------------------------------------------------------------------------

class CompareResample:
    name = "compare-resample"
    # dominance and compare_at each read both runs; run_plan ranks every
    # replicate; the search scores every arrangement of DISAGREE's labels
    records_per_op = (2 * DOM_ROWS + 2 * DOM_ROWS
                      + len(PLAN_RATES) * PLAN_REPS * PLAN_SIZE
                      + math.comb(DISAGREE[2], DISAGREE[3]) * DISAGREE[2])

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.dom_labels = _labels_with(rng, DOM_ROWS, DOM_POS)
        self.dom_scores = [_untied_scores(rng, self.dom_labels, DOM_SEPARATION)
                           for _ in range(2)]
        self.pool_labels = _labels_with(rng, POOL_ROWS, POOL_POS)
        self.pool_scores = rng.normal(size=POOL_ROWS) + POOL_SEPARATION * self.pool_labels

        prefixes = [oracles.prefix_positives(self.dom_labels, oracles.input_order(s))
                    for s in self.dom_scores]
        ga, gb = prefixes[0][1:], prefixes[1][1:]
        self.a_above = oracles.true_intervals(ga > gb)
        self.b_above = oracles.true_intervals(gb > ga)
        if self.a_above and not self.b_above:
            self.verdict = "a-dominates"
        elif self.b_above and not self.a_above:
            self.verdict = "b-dominates"
        else:
            self.verdict = "crossing"
        self.entries = []
        self.winners = {}
        for n in COMPARE_TARGETS:
            gains = {"a": int(prefixes[0][n]), "b": int(prefixes[1][n])}
            for run, g in gains.items():
                self.entries.append((run, n, g, oracles.lift_value(
                    g, n, DOM_ROWS, DOM_POS)))
            best = max(gains.values())
            self.winners[n] = tuple(r for r, g in gains.items() if g == best)

    def prepare(self, gl) -> None:
        self.compare, self.resample, self.io = gl.compare, gl.resample, gl.io

        def records(prefix, scores, labels):
            return [gl.ScoredRecord(f"{prefix}{i:06d}", s, y) for i, (s, y)
                    in enumerate(zip(scores.tolist(), labels.tolist()))]

        self.runs = [gl.ClassifierRun(name, gl.rank_records(
                         records("r", s, self.dom_labels)))
                     for name, s in zip("ab", self.dom_scores)]
        self.pool = records("p", self.pool_scores, self.pool_labels)
        self.plan = gl.ResamplePlan(target_rates=PLAN_RATES,
                                    replicate_count=PLAN_REPS,
                                    sample_size=PLAN_SIZE, seed=self.seed)

    def round(self) -> list[Op]:
        def run():
            compare, resample = self.compare, self.resample
            dom = compare.dominance(*self.runs)
            table = compare.compare_at(self.runs, COMPARE_TARGETS)
            summary = self.io.summary_to_json(resample.run_plan(self.pool, self.plan))
            report = compare.find_disagreement(*DISAGREE)
            return dom, table, summary, report

        return [Op("compare-resample", run, self.check)]

    def check(self, result) -> bool:
        dom, table, summary, report = result
        return (self._check_dominance(dom) and self._check_table(table)
                and self._check_summary(json.loads(summary))
                and self._check_disagreement(report))

    def _check_dominance(self, dom) -> bool:
        return (dom.verdict.value == self.verdict
                and tuple(dom.a_above) == self.a_above
                and tuple(dom.b_above) == self.b_above)

    def _check_table(self, table) -> bool:
        got = [(e.run, e.n, e.cum_gains, e.lift) for e in table.entries]
        return (got == self.entries and tuple(table.targets) == COMPARE_TARGETS
                and {n: tuple(w) for n, w in table.winners.items()} == self.winners)

    def _check_summary(self, s) -> bool:
        grid = [k / 100 for k in range(1, 101)]
        if (s["grid"] != grid or s["sample_size"] != PLAN_SIZE
                or s["replicate_count"] != PLAN_REPS or s["seed"] != self.seed
                or [b["target_rate"] for b in s["bands"]] != list(PLAN_RATES)):
            return False
        for band in s["bands"]:
            want = Fraction(str(band["target_rate"])) * PLAN_SIZE + Fraction(1, 2)
            n_pos = want.numerator // want.denominator
            if band["n_pos"] != n_pos or band["realized_rate"] != n_pos / PLAN_SIZE:
                return False
            if not 0.5 < band["mean_auc"] <= 1.0:
                return False
            for curve in (band["p_cum_gains"], band["lift"]):
                lo, mean, hi = (np.array(curve[k]) for k in ("min", "mean", "max"))
                # the mean of equal floats may land one rounding step outside
                slack = 4 * np.finfo(float).eps * np.abs(mean)
                if not (np.all(lo <= mean + slack) and np.all(mean <= hi + slack)):
                    return False
                if (curve["min"][-1], curve["mean"][-1], curve["max"][-1]) != (1.0, 1.0, 1.0):
                    return False
        # the class-distribution regularity: with a clearly better-than-random
        # scorer, mean lift at 5% of the ranking falls as positives get commoner
        at5 = grid.index(0.05)
        by_rate = sorted(s["bands"], key=lambda b: b["target_rate"])
        lifts = [b["lift"]["mean"][at5] for b in by_rate]
        return (all(b["mean_auc"] >= 0.52 for b in by_rate)
                and all(x > y for x, y in zip(lifts, lifts[1:])))

    def _check_disagreement(self, report) -> bool:
        metric_a, metric_b, n_total, n_pos = DISAGREE
        at = int(metric_b.split("@")[1])
        x, y = tuple(report.labels_x), tuple(report.labels_y)
        values = (oracles.auc_of_sequence(x), oracles.auc_of_sequence(y),
                  oracles.lift_of_sequence(x, at), oracles.lift_of_sequence(y, at))
        return (str(report.metric_a) == metric_a and str(report.metric_b) == metric_b
                and report.exhaustive
                and all(len(v) == n_total and sum(v) == n_pos for v in (x, y))
                and (report.value_a_x, report.value_a_y,
                     report.value_b_x, report.value_b_y) == values
                and (values[0] - values[1]) * (values[2] - values[3]) < 0)


WORKLOADS = {w.name: w for w in (CliCurves, CliPointTies, CompareResample)}
