"""Time the loader on six scored files that differ only in their scores.

    python tools/load_scale.py SRC_DIR [ROWS]

imports gainslift from SRC_DIR (the `src` directory of a checkout) and
writes six seeded delimited files of ROWS rows (default 100,000) in a
temporary directory, each with shuffled ids `r000000`..., the same labels
(about 15% positive) and an id,score,label header. Their scores are

    repr      a uniform draw written by `repr` (17 to 20 bytes), untied;
    6-dec     the draw to six decimals (8 bytes), nearly all distinct;
    4-dec     the draw to four decimals (6 bytes), 10,000 levels;
    3-dec     the draw to three decimals (5 bytes), 1,000 levels;
    2-dec     the draw to two decimals (4 bytes), 100 levels;
    k/64      48 equal-count levels k/64 for k = 1..48, by `repr`.

For each file it prints the median and the quartiles of 7 timings
(`perf_counter`) of one `_load_columns` call in each of two forms, after
one untimed load of each: `id_form=None`, as the command line loads a file
whose ids it does not read, and `id_form="bytes"`, as `--tie-policy id`
loads it; then the process's peak resident memory (`VmHWM` from
/proc/self/status, Linux only). Needs the standard library and numpy only.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from _checkout import import_gainslift, peak_mb

RUNS = 7


def _files(rows: int) -> dict[str, list[str]]:
    """Each file's score texts, in row order."""
    rng = np.random.default_rng(7100)
    draws = rng.random(rows)
    level = np.argsort(np.argsort(draws, kind="stable"), kind="stable")
    return {
        "repr": list(map(repr, draws.tolist())),
        "6-dec": [f"{x:.6f}" for x in draws.tolist()],
        "4-dec": [f"{x:.4f}" for x in draws.tolist()],
        "3-dec": [f"{x:.3f}" for x in draws.tolist()],
        "2-dec": [f"{x:.2f}" for x in draws.tolist()],
        "k/64": list(map(repr, ((level * 48 // rows + 1) / 64).tolist())),
    }


def _timed(load, path: Path, id_form: str | None) -> str:
    """The median and quartiles of `RUNS` timed loads in one form."""
    load(path, id_form=id_form)
    seconds = []
    for _ in range(RUNS):
        start = time.perf_counter()
        load(path, id_form=id_form)
        seconds.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(seconds, n=4)
    return (f" {median * 1e3:8.2f} ms "
            f"(quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f})")


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    import_gainslift(sys.argv[1])
    rows = int(sys.argv[2]) if len(sys.argv) == 3 else 100_000
    from gainslift.io import _load_columns

    rng = np.random.default_rng(7101)
    ids = [f"r{i:06d}" for i in rng.permutation(rows).tolist()]
    labels = (rng.random(rows) < 0.15).astype(int).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, scores) in enumerate(_files(rows).items()):
            path = Path(tmp) / f"scores{k}.csv"
            path.write_text("id,score,label\n" + "".join(
                f"{rid},{score},{label}\n"
                for rid, score, label in zip(ids, scores, labels)),
                encoding="utf-8")
            timings = "  ".join(f"{form}{_timed(_load_columns, path, id_form)}"
                                for form, id_form in (("no ids", None),
                                                      ("ids", "bytes")))
            print(f"{name:6} {timings}  {path.stat().st_size:,} bytes")
    print(f"VmHWM {peak_mb()}  ({rows:,} rows, median of {RUNS} loads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
