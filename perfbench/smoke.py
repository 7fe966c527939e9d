"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. The oracles reproduce the closed-form values of the bundled 24-record
   example set (read with the csv module, not with gainslift).
2. Each workload runs a few ops untraced and traced, with every check on:
   the only failures are the known-fault op, and the traced layer self
   times account for the op time.
3. Each workload's check rejects a tampered output, so a passing check
   means something.

Exits 0 when every step passes, 1 otherwise.
"""

import csv
import json
import math
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
import run
import workloads

EXAMPLE24 = run.SRC / "gainslift" / "data" / "example24.csv"
# cumulative gains of the example set at n = 1..24
GAINS24 = (1, 2, 3, 4, 5, 6, 7, 7, 8, 9, 10, 10,
           11, 11, 11, 12, 12, 12, 12, 12, 12, 12, 12, 12)
PERTURB_SWAPS = ((6, 8), (12, 16))  # raises AUC while lowering early lift


def _example24():
    with open(EXAMPLE24, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return (np.array([float(r["score"]) for r in rows]),
            np.array([int(r["label"]) for r in rows]))


def check_oracles() -> list[str]:
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, want {want!r}")

    scores, labels = _example24()
    order = oracles.input_order(scores)
    prefix = oracles.prefix_positives(labels, order)
    expect("example24 gains", tuple(prefix[1:].tolist()), GAINS24)
    expect("example24 auc", oracles.auc_midrank(scores, labels), Fraction(135, 144))
    expect("example24 auc text", oracles.half_up(Fraction(135, 144), 3), "0.938")
    ranked = labels[order].tolist()
    expect("example24 sequence auc", oracles.auc_of_sequence(ranked),
           Fraction(135, 144))
    for a, b in PERTURB_SWAPS:
        ranked[a - 1], ranked[b - 1] = ranked[b - 1], ranked[a - 1]
    expect("perturbed auc", oracles.auc_of_sequence(ranked), Fraction(137, 144))
    expect("perturbed midrank auc",
           oracles.auc_midrank(scores[order], np.array(ranked)), Fraction(137, 144))
    expect("perturbed auc text", oracles.half_up(Fraction(137, 144), 3), "0.951")
    expect("perturbed lift@6", oracles.lift_of_sequence(ranked, 6), Fraction(5, 3))

    # ties: ranks 2..4 share a score and hold one positive
    tied = np.array([3.0, 2.0, 2.0, 2.0, 1.0])
    tied_labels = np.array([1, 0, 1, 0, 1])
    t_order = oracles.input_order(tied)
    t_prefix = oracles.prefix_positives(tied_labels, t_order)
    t_ends = oracles.group_ends(tied[t_order])
    expect("expected gains inside a tie", oracles.expected_gains(t_prefix, t_ends, 2),
           Fraction(4, 3))
    expect("expected gains at a group end",
           oracles.expected_gains(t_prefix, t_ends, 4), Fraction(2))
    expect("midrank auc with ties", oracles.auc_midrank(tied, tied_labels),
           Fraction(1, 2))
    ids = np.array(["c", "b", "a", "d", "e"])
    expect("id order", oracles.id_order(tied, ids).tolist(), [0, 2, 1, 3, 4])

    expect("exact ceil", oracles.ceil_fraction_of("0.07", 100), 7)
    expect("float ceil overshoots", math.ceil(0.07 * 100), 8)
    expect("half up", oracles.half_up(Fraction(1, 8), 2), "0.13")
    expect("half up negative", oracles.half_up(Fraction(-1, 8), 2), "-0.13")
    expect("intervals", oracles.true_intervals(np.array([1, 1, 0, 1, 0, 1, 1], bool)),
           ((1, 2), (4, 4), (6, 7)))
    return problems


def _tamper_curves(workload, op):
    op.reset()
    result = op.run()
    path = workload.out["lift.json"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["series"][0]["points"][7]["y_exact"] = "1/1"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return result


def _tamper_ties(workload, op):
    code, out, err = op.run()
    return code, out.replace("\n", "1\n", 1), err


def _tamper_compare(workload, op):
    dom, table, summary, report = op.run()
    payload = json.loads(summary)
    payload["bands"][0]["realized_rate"] += 1e-9
    return dom, table, json.dumps(payload), report


TAMPER = {"cli-curves": (0, _tamper_curves), "cli-point-ties": (1, _tamper_ties),
          "compare-resample": (0, _tamper_compare)}


def check_workloads(seed: int, workdir: Path) -> list[str]:
    problems = []
    # traced runs last: a traced run leaves its wrappers installed
    for trace in (False, True):
        for name in workloads.WORKLOADS:
            result = run.run(name, seed, 0, trace, workdir / f"{name}-{trace:d}",
                             min_ops=10 if name == "cli-point-ties" else 2,
                             probes=False)
            known = 2 if name == "cli-point-ties" else 0
            if not result["correct"] or result["failed"] != known:
                problems.append(f"{name} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} failed, want {known}")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                share = m["trace.unattributed_s"] / m["trace.op_s.mean"]
                if not 0 <= share < 0.05:
                    problems.append(f"{name}: layers leave {share:.1%} of the "
                                    "op time unattributed")

    for name, cls in workloads.WORKLOADS.items():
        (workdir / f"{name}-tamper").mkdir(parents=True)
        workload = cls(seed, workdir / f"{name}-tamper")
        workload.prepare(sys.modules["gainslift"])
        index, tamper = TAMPER[name]
        op = workload.round()[index]
        if op.check(tamper(workload, op)):
            problems.append(f"{name}: check accepted a tampered output")
    return problems


def main() -> int:
    if not (run.SRC / "gainslift" / "__init__.py").is_file():
        print(f"smoke: no gainslift sources under {run.SRC}", file=sys.stderr)
        return 2
    workdir = run.BENCH_DIR / "work" / f"smoke-{os.getpid()}"
    try:
        problems = check_oracles()
        print(f"oracles on the 24-record set: {'FAIL' if problems else 'PASS'}")
        more = check_workloads(seed=7, workdir=workdir)
        print(f"workload checks and tamper checks: {'FAIL' if more else 'PASS'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems + more:
        print("  " + p)
    return 1 if problems or more else 0


if __name__ == "__main__":
    sys.exit(main())
