"""Time `dominance` on two large tied runs and report its peak memory.

    python tools/dominance_scale.py SRC_DIR [ROWS]

imports gainslift from SRC_DIR (the `src` directory of a checkout), builds
two ranked sets of ROWS records (default 6,000,011) under the expected tie
policy and compares them with one `dominance` call. Both runs hold the same
labels in rank order, the first ROWS // 3 positive. Run a is one tie group.
Run b is one tie group of the first ROWS // 2 + 1 ranks, then one rank per
score. Run b's lift is above run a's at every cutoff but the last, where
both are 1, so the answer is B_DOMINATES [(1, ROWS - 1)].

Prints the verdict, each run's intervals (their count and at most the first
three), the seconds of the `dominance` call (`perf_counter`) and the
process's peak resident memory (`VmHWM` from /proc/self/status, Linux
only). Needs the standard library and numpy only; the default size wants
about 1 GB of memory.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from _checkout import import_gainslift, peak_mb


def _intervals(name: str, intervals) -> str:
    shown = ", ".join(map(str, intervals[:3]))
    more = ", ..." if len(intervals) > 3 else ""
    return f"{name} {len(intervals)} [{shown}{more}]"


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    import_gainslift(sys.argv[1])
    rows = int(sys.argv[2]) if len(sys.argv) == 3 else 6_000_011
    from gainslift import ClassifierRun, RankedTestSet, TiePolicy, dominance

    labels = np.zeros(rows, dtype=np.int64)
    labels[:rows // 3] = 1
    policy = TiePolicy.EXPECTED_VALUE
    # scores in rank order (descending): RankedTestSet takes them ranked
    run_a = RankedTestSet(None, np.zeros(rows), labels, policy)
    scores_b = -np.arange(rows, dtype=np.float64)
    scores_b[:rows // 2 + 1] = 0.0
    run_b = RankedTestSet(None, scores_b, labels, policy)

    start = time.perf_counter()
    report = dominance(ClassifierRun("a", run_a), ClassifierRun("b", run_b))
    seconds = time.perf_counter() - start
    print(f"{report.verdict.name}  {_intervals('a_above', report.a_above)}  "
          f"{_intervals('b_above', report.b_above)}  {seconds:.2f} s  "
          f"VmHWM {peak_mb()}  ({rows:,} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
