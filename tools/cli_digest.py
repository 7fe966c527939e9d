"""One sha256 over what the command line writes for a fixed set of runs.

    python tools/cli_digest.py SRC_DIR

imports gainslift from SRC_DIR (the `src` directory of a checkout), runs a
fixed matrix of `cli_main` argument lists in this process and prints the
digest of every run's exit code, stdout, stderr and `--out` bytes, then the
number of runs that ended with each exit code. Two checkouts that print the
same line write the same bytes for every run in the matrix.

The matrix covers every subcommand under every tie policy on two inputs
(the bundled 24-row example and a seeded 400-row file with tied scores),
the subcommands that rank one input under every tie policy on more copies
of the tied file: three that the loader reads by its other routes (every
field quoted, every field quoted with no id column, and json-lines), one
the block route reads in two blocks, its first read stopping inside a line
(over 64 KiB, with a byte-order mark, CRLF line ends, blank lines and no
final newline), and json-lines with no id field and with ids on some rows
only; five small files ranked under every tie policy, 7 tied rows (under
10, so the decile cutoffs repeat), one row (where most commands fail),
40 rows of score texts such as `-0`, `5.` and `1_0` in two blocks, the
first of repeated texts of at most eight bytes, the second with nine-byte
ones, 40 rows in two blocks, the first of ids of at most eight bytes, the
second with longer ones, then 9 rows of one score and 5 rows of signed
zeros (one tie group);
`compare` of the tied file against the same labels scored on other levels,
under every tie policy;
error forms whose message or precedence matters; and the `--help` text of
the top level and of each subcommand at 80 columns. The temporary
directory and SRC_DIR are replaced by fixed names before hashing, so the
digest does not depend on where either lies. Needs the standard library and
numpy only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from _checkout import import_gainslift

POLICIES = ("input", "id", "expected")

# one scored input, any tie policy; OUT stands for a fresh output file
OUT = "<out>"
RANKED_FORMS = [
    ["gains"],
    ["gains", "--x", "fraction", "--format", "json"],
    ["gains", "--n", "7"],
    ["gains", "--fraction", "1/3", "--exact", "--out", OUT],
    ["lift"],
    ["lift", "--x", "count", "--format", "json", "--out", OUT],
    ["lift", "--fraction", "0.25", "--precision", "8"],
    ["deciles"],
    ["deciles", "--exact"],
    ["deciles", "--format", "json", "--out", OUT],
    ["benefit", "--qtp", "10", "--qfp=-1"],
    ["benefit", "--qtp", "0.1", "--qfp=-0.3", "--n", "5", "--exact"],
    ["auc"],
    ["auc", "--method", "wilcoxon", "--exact"],
    ["roc"],
    ["roc", "--format", "json", "--out", OUT],
    ["perturb", "--swap", "1:2", "--swap", "3:9"],
    ["perturb", "--swap", "2:1", "--out", OUT],
    ["chart", "--kind", "lift"],
    ["chart", "--kind", "benefit", "--qtp", "10", "--qfp=-1", "--title",
     "b", "--no-baseline", "--out", OUT],
    ["chart", "--kind", "decile-lift"],
]

# forms that read no tie policy, each run once per input
UNRANKED_FORMS = [
    ["resample", "--rates", "0.2,0.4", "--reps", "3", "--size", "12",
     "--seed", "7"],
    ["resample", "--rates", "0.3", "--reps", "2", "--size", "10",
     "--format", "json", "--out", OUT],
]

MISSING = "<tmp>/missing.csv"
NO_DIR_OUT = "<tmp>/missing/out.txt"
ERROR_FORMS = [
    [],
    ["frobnicate"],
    ["auc", "--input", "<example>", "--bogus"],
    ["gains", "--input", "<example>", "--fraction", "1/0"],
    ["auc", "--input", MISSING],
    ["auc", "--input", "<bad>"],
    ["benefit", "--input", "<bad>", "--qtp", "nan", "--qfp", "1"],
    ["lift", "--input", "<bad>", "--n", "3", "--fraction", "0.5"],
    ["chart", "--input", "<bad>", "--kind", "benefit"],
    ["auc", "--input", "<example>", "--input", "<example>"],
    ["auc", "--input", MISSING, "--input", "<example>"],
    ["lift", "--input", "<example>", "--n", "3", "--fraction", "0.5"],
    ["lift", "--input", "<example>", "--n", "0"],
    ["gains", "--input", "<example>", "--fraction", "2"],
    ["chart", "--input", "<example>", "--kind", "benefit"],
    ["auc", "--input", "<example>", "--out", NO_DIR_OUT],
    ["roc", "--input", "<example>", "--out", NO_DIR_OUT],
    ["perturb", "--input", "<example>", "--swap", "6-8"],
    ["compare", "--input", "<example>", "--input", "<example>",
     "--targets", "6,x"],
    ["compare", "--input", "<example>", "--input", "<tied>", "--name", "a",
     "--name", "b", "--targets", "6,12"],
    ["resample", "--input", "<example>", "--rates", "0.1,x"],
    ["disagree", "--metric-a", "bogus", "--metric-b", "auc", "--n", "8",
     "--npos", "4"],
    ["auc", "--input", "<example>", "--precision", "1001"],
]

# two rankings of the same labels, each form run under every tie policy
COMPARE_FORMS = [
    ["compare", "--input", "<tied>", "--input", "<tied-rescored>", "--name",
     "a", "--name", "b", "--targets", "6,130,250"],
    ["compare", "--input", "<tied>", "--input", "<tied-rescored>",
     "--targets", "90,200,399", "--format", "json", "--precision", "3"],
]

# forms without a single scored input, run once
OTHER_FORMS = [form + ["--tie-policy", policy]
               for policy in POLICIES for form in COMPARE_FORMS] + [
    ["disagree", "--metric-a", "auc", "--metric-b", "lift@6", "--n", "10",
     "--npos", "5"],
    ["disagree", "--metric-a", "auc", "--metric-b", "lift@6", "--n", "10",
     "--npos", "5", "--format", "json", "--out", OUT],
    ["disagree", "--metric-a", "auc", "--metric-b", "auc", "--n", "8",
     "--npos", "4"],
]

COMMANDS = ("gains", "lift", "deciles", "benefit", "auc", "roc", "compare",
            "perturb", "disagree", "resample", "chart")
HELP_FORMS = [["--help"]] + [[name, "--help"] for name in COMMANDS]


# copies of the tied file that the loader reads by the csv module (the
# first two), by the block route in two blocks, and as json-lines; each
# is ranked under every tie policy
ROUTE_INPUTS = ("<tied-quoted>", "<tied-no-id>", "<tied-jsonl>",
                "<tied-long-crlf>", "<tied-jsonl-no-id>",
                "<tied-jsonl-some-ids>")

# 40 score texts that `float` reads: the first 34 cycle through 12 texts of
# at most eight bytes (signed zeros, equal values written differently,
# padding), the rest include nine-byte ones
SHORT_SCORES = [("0", "-0", "0.0", "-0.0", ".5", "5.", "1e-3", "1_0", " 1.5",
                 "0.015625", "-1.25e-3", "12345678")[k % 12]
                for k in range(34)] + [
    "123456789", "-1.25e-30", "0.0156250", " 0.015625", "-0", "1_0"]

# 40 ids: 34 of at most eight UTF-8 bytes (some multi-byte, some of exactly
# eight), then longer ones among short ones, the first an eight-byte id
# above with one more byte
MIXED_IDS = [("m%d" % k, "é%02d" % k, "%08d" % k, "✓%d" % k)[k % 4]
             for k in range(34)] + ["00000002x", "m35", "✓✓✓✓", "é37",
                                    "éééééééééé", "m39"]

# small files, each ranked under every tie policy: 7 rows on three score
# levels, where ceil(k * 7 / 10) repeats across deciles, one row, the 40
# rows of `SHORT_SCORES`, each with a 2,000-byte note, so that the block
# route reads them in two blocks (33 rows of repeated texts, then the rest),
# the 40 rows of `MIXED_IDS` on three score levels, with the same notes (33
# rows of short ids, then the rest), then 9 rows of one score and 5 of
# signed zeros, which `perturb` writes back
SMALL_INPUTS = {
    "<tied-7>": ("tied7.csv", "id,score,label\nu5,0.5,1\nu2,0.5,0\n"
                 "u7,0.9,0\nu1,0.5,1\nu4,0.2,0\nu3,0.9,1\nu6,0.2,1\n"),
    "<one-row>": ("one.csv", "id,score,label\nv1,0.5,1\n"),
    "<short-scores>": ("short.csv", "id,note,score,label\n" + "".join(
        f"s{k:02d},{'n' * 2000},{score},{k * 7 % 3 % 2}\n"
        for k, score in enumerate(SHORT_SCORES))),
    "<mixed-ids>": ("mixed.csv", "id,note,score,label\n" + "".join(
        f"{rid},{'n' * 2000},{k * 5 % 3 / 2},{k * 7 % 3 % 2}\n"
        for k, rid in enumerate(MIXED_IDS))),
    "<one-score>": ("one-score.csv", "id,score,label\n" + "".join(
        f"w{k},0.5,{k % 3 % 2}\n" for k in (4, 9, 1, 7, 2, 8, 5, 3, 6))),
    "<signed-zeros>": ("zeros.csv", "id,score,label\nz3,-0.0,1\nz1,0.0,0\n"
                       "z5,-0.0,0\nz2,0.0,1\nz4,-0.0,0\n"),
}


def _write_tied(tmp_dir: Path) -> dict[str, str]:
    """400 rows with scores on 12 levels and shuffled ids, written as plain
    delimited text, as each copy of `ROUTE_INPUTS` and rescored on 5
    levels; the name of each file in the matrix and its path. The long copy carries a 160-byte note
    on each row, so that it is over 64 KiB."""
    rng = random.Random(4000)
    ids = [f"t{i:04d}" for i in range(400)]
    rng.shuffle(ids)
    rows = []
    for rid in ids:
        label = int(rng.random() < 0.2)
        rows.append((rid, int((rng.random() + 0.5 * label) * 8) / 8, label))
    # the same ids and labels scored on 5 levels, for `compare`
    rescored = [(rid, int((rng.random() + 0.3 * label) * 5) / 5, label)
                for rid, _, label in rows]
    files = {
        "<tied>": ("tied.csv", ["id,score,label"] + [
            f"{rid},{score!r},{label}" for rid, score, label in rows]),
        "<tied-rescored>": ("rescored.csv", ["id,score,label"] + [
            f"{rid},{score!r},{label}" for rid, score, label in rescored]),
        "<tied-quoted>": ("quoted.csv", ['"id","score","label"'] + [
            f'"{rid}","{score!r}","{label}"' for rid, score, label in rows]),
        "<tied-no-id>": ("no-id.csv", ['"score","label"'] + [
            f'"{score!r}","{label}"' for _, score, label in rows]),
        "<tied-jsonl>": ("tied.jsonl", [
            json.dumps({"id": rid, "score": score, "label": label})
            for rid, score, label in rows]),
        "<tied-jsonl-no-id>": ("no-id.jsonl", [
            json.dumps({"score": score, "label": label})
            for _, score, label in rows]),
        "<tied-jsonl-some-ids>": ("some-ids.jsonl", [
            json.dumps({"score": score, "label": label}
                       | ({"id": rid} if k % 3 else {}))
            for k, (rid, score, label) in enumerate(rows)]),
    }
    texts = {name: (file, "\n".join(lines) + "\n")
             for name, (file, lines) in files.items()}
    long_lines = ["id,note,score,label"] + [
        f"{rid},{'n' * 160},{score!r},{label}"
        + ("\r\n" if k % 50 == 10 else "")  # a blank line after it
        for k, (rid, score, label) in enumerate(rows)]
    texts["<tied-long-crlf>"] = ("long.csv",
                                 "\ufeff" + "\r\n".join(long_lines))
    paths = {}
    for name, (file, text) in texts.items():
        path = tmp_dir / file
        path.write_bytes(text.encode("utf-8"))
        paths[name] = str(path)
    return paths


def _ranked(path: str) -> list[list[str]]:
    return [[form[0], "--input", path, "--tie-policy", policy, *form[1:]]
            for policy in POLICIES for form in RANKED_FORMS]


def _argvs(names: dict[str, str]) -> list[list[str]]:
    argvs = []
    for path in (names["<example>"], names["<tied>"]):
        argvs += _ranked(path) + [[form[0], "--input", path, *form[1:]]
                                  for form in UNRANKED_FORMS]
    for name in ROUTE_INPUTS + tuple(SMALL_INPUTS):
        argvs += _ranked(names[name])
    return argvs + OTHER_FORMS + ERROR_FORMS + HELP_FORMS


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = import_gainslift(sys.argv[1])
    from gainslift import example24_path
    from gainslift.cli import cli_main

    os.environ["COLUMNS"] = "80"  # argparse wraps help to this width
    digest = hashlib.sha256()
    codes = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        (tmp_dir / "bad.csv").write_text("id,score,label\na,0.5,2\n",
                                         encoding="utf-8")
        names = {"<example>": str(example24_path()),
                 "<bad>": str(tmp_dir / "bad.csv"), **_write_tied(tmp_dir)}
        for name, (file, text) in SMALL_INPUTS.items():
            (tmp_dir / file).write_text(text, encoding="utf-8")
            names[name] = str(tmp_dir / file)
        out = tmp_dir / "out.txt"
        for form in _argvs(names):
            argv = [str(out) if a == OUT else
                    a.replace("<tmp>", tmp) for a in form]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli_main([names.get(a, a) for a in argv])
            written = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            codes[code] += 1
            record = repr((argv, code, stdout.getvalue(), stderr.getvalue(),
                           written))
            for path, name in ((tmp, "<tmp>"), (str(src), "<src>")):
                record = record.replace(path, name)
            digest.update(record.encode("utf-8") + b"\n")
    counts = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"{digest.hexdigest()}  {sum(codes.values())} runs: {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
