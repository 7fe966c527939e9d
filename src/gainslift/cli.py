"""Command-line surface.

Every subcommand is a thin shell over a library operation: load the scored
file, call the operation, render the result. `build_parser` declares each
subcommand together with its handler, and each handler returns what its
command writes (a text or an iterable of pieces), which `cli_main` writes
to --out or stdout in one place; only `perturb` writes its file itself. A
command over one ranked input is a function of `(args, ranked)`. Numeric
output is deterministic given the inputs, flags, and seed.

Exit codes: 0 success, 1 validation error (including usage errors), 2
infeasibility or search-budget exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import charts, compare, io, metrics, resample
from .errors import BudgetExhaustedError, GainsLiftError, InfeasibleError, ValidationError
from .records import TiePolicy, _rank_columns
from .records import rank_records  # noqa: F401  (perfbench wraps it here)

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    """--fraction as an exact rational; '1/0' is a usage error, as 'x' is."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None


def _cutoff_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--fraction", type=_fraction, default=None,
                        help="evaluate at cutoff ceil(fraction*N)")


def _input_options(parser: argparse.ArgumentParser, multiple: bool = False,
                   ranked: bool = True) -> None:
    parser.add_argument("--input", action="append", required=True,
                        metavar="FILE",
                        help="scored input file" + (" (repeatable)" if multiple else ""))
    parser.add_argument("--in-format", choices=("csv", "jsonl"), default=None,
                        help="input format (default: by file extension)")
    parser.add_argument("--delimiter", default=",",
                        help="field delimiter for delimited-text input")
    parser.add_argument("--label-col", default="label")
    parser.add_argument("--score-col", default="score")
    parser.add_argument("--id-col", default=None,
                        help="id column (default: 'id' when present, else row numbers)")
    if ranked:
        parser.add_argument("--tie-policy", default="input",
                            choices=sorted(p.value for p in TiePolicy))


# every command takes --out; each declares which of these it reads
_OUTPUT_OPTIONS = {
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="serialization for emitted tables/series"),
    "--precision": dict(type=int, default=5,
                        help="decimal places for printed values"),
    "--exact": dict(action="store_true",
                    help="print exact numerator/denominator instead of decimals"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="gainslift",
                     description="Gains/lift evaluation of binary classifiers "
                                 "under top-n resource constraints.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def command(name: str, help_text: str, run, *outputs: str,
                multiple_inputs: bool = False, needs_input: bool = True,
                ranked: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if needs_input:
            _input_options(p, multiple=multiple_inputs, ranked=ranked)
        p.add_argument("--out", default=None, metavar="FILE",
                       help="output file (default: stdout)")
        for option in outputs:
            p.add_argument(option, **_OUTPUT_OPTIONS[option])
        return p

    # a value at a cutoff is printed; without one, a series is emitted
    point_or_curve = ("--format", "--precision", "--exact")

    p = command("gains", "cumulative gains at a cutoff, or the whole curve",
                _on_ranked_input(_gains), *point_or_curve)
    _cutoff_options(p)
    p.add_argument("--x", choices=("count", "fraction"), default="count",
                   help="x axis for curve output")

    p = command("lift", "lift at a cutoff, or the whole curve",
                _on_ranked_input(_lift), *point_or_curve)
    _cutoff_options(p)
    p.add_argument("--x", choices=("count", "fraction"), default="fraction")

    command("deciles", "lift for each tenth of the ranked set",
            _on_ranked_input(_deciles), *point_or_curve)

    p = command("benefit", "cost-weighted cumulative benefit",
                _on_ranked_input(_benefit), *point_or_curve)
    p.add_argument("--qtp", type=float, required=True,
                   help="net benefit per true positive")
    p.add_argument("--qfp", type=float, required=True,
                   help="net benefit per false positive (usually negative)")
    _cutoff_options(p)

    p = command("auc", "area under the ROC curve (exact, tie-aware)",
                _on_ranked_input(_auc), "--precision", "--exact")
    p.add_argument("--method", choices=("pairs", "wilcoxon"), default="pairs")

    command("roc", "ROC curve points", _on_ranked_input(_roc), "--format")

    p = command("compare", "gains/lift of several runs at shared cutoffs",
                _compare, "--format", "--precision", multiple_inputs=True)
    p.add_argument("--name", action="append", default=None,
                   help="run name per --input (default: file stem)")
    p.add_argument("--targets", required=True,
                   help="comma-separated cutoffs, e.g. 6,14")

    p = command("perturb", "swap labels at rank positions and emit the result",
                _perturb)
    p.add_argument("--swap", action="append", required=True, metavar="A:B",
                   help="rank pair to exchange, repeatable")

    p = command("disagree", "search for rankings two metrics order oppositely",
                _disagree, "--format", "--precision", needs_input=False)
    p.add_argument("--metric-a", required=True,
                   help="auc, lift@<n>, or accuracy@<n>")
    p.add_argument("--metric-b", required=True)
    p.add_argument("--n", type=int, required=True, help="records per ranking")
    p.add_argument("--npos", type=int, required=True,
                   help="positives per ranking")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)

    p = command("resample", "stratified-resampling bands across positive rates",
                _resample, "--format", ranked=False)
    p.add_argument("--rates", required=True,
                   help="comma-separated target positive rates, e.g. 0.05,0.117,0.2")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)

    p = command("chart", "render an SVG chart", _on_ranked_input(_chart))
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in charts.ChartKind])
    p.add_argument("--title", default="")
    p.add_argument("--no-baseline", dest="baseline", action="store_false",
                   help="leave out the random-targeting reference line")
    p.add_argument("--qtp", type=float, default=None)
    p.add_argument("--qfp", type=float, default=None)

    return parser


def _scored_file(args, path: str) -> io.ScoredFile:
    fmt = args.in_format or io.guess_format(path)
    return io.ScoredFile(path=path, format=fmt, delimiter=args.delimiter,
                         label_col=args.label_col, score_col=args.score_col,
                         id_col=args.id_col)


def _ranked(args, path: str, id_texts: bool = False):
    """Rank the file's validated columns; no per-row record is built. The
    ids are read as texts only where the command writes them (`id_texts`);
    otherwise the id policy, which sorts by them, takes the loader's "bytes"
    form: words or bytes from the block route."""
    policy = TiePolicy(args.tie_policy)
    id_form = ("texts" if id_texts else
               "bytes" if policy is TiePolicy.ID_ORDER else None)
    columns = io._load_columns(_scored_file(args, path), id_form=id_form)
    return _rank_columns(*columns, policy)


def _single_input(args) -> str:
    if len(args.input) != 1:
        raise ValidationError("this command takes exactly one --input")
    return args.input[0]


def _emit(args, pieces: str | Iterable[str]) -> None:
    """Write one text, or each piece of an iterable in turn, to --out or
    stdout."""
    if isinstance(pieces, str):
        pieces = (pieces,)
    if args.out:
        # opened as Path.write_text opens it
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _rendered(args, value) -> str:
    if args.exact:
        return metrics.render_exact(value)
    return metrics.render_decimal(value, args.precision)


def _cutoff(args, n_total: int) -> int | None:
    if args.n is not None and args.fraction is not None:
        raise ValidationError("give --n or --fraction, not both")
    if args.n is not None:
        return args.n
    if args.fraction is not None:
        if not 0 < args.fraction <= 1:
            raise ValidationError("--fraction must be in (0, 1]")
        return metrics.cutoff_for(args.fraction, n_total)
    return None


def _on_ranked_input(answer):
    """The command that ranks its one --input and answers
    `answer(args, ranked)`."""
    return lambda args: answer(args, _ranked(args, _single_input(args)))


def _point_or_curve(args, ranked, point, curve) -> str | Iterable[str]:
    """The text of `point(ranked, n)` at the --n or --fraction cutoff, or the
    pieces of the whole `curve(ranked)` when neither is given."""
    n = _cutoff(args, ranked.n_total)
    if n is not None:
        return _rendered(args, point(ranked, n)) + "\n"
    return io._curve_pieces([curve(ranked)], args.format)


def _gains(args, ranked) -> str | Iterable[str]:
    fraction = args.x == "fraction"
    return _point_or_curve(
        args, ranked, metrics.cum_gains,
        lambda ranked: metrics.gains_series(ranked, fraction=fraction))


def _lift(args, ranked) -> str | Iterable[str]:
    fraction = args.x == "fraction"
    return _point_or_curve(
        args, ranked, metrics.lift,
        lambda ranked: metrics.lift_series(ranked, fraction=fraction))


def _benefit(args, ranked) -> str | Iterable[str]:
    costs = metrics.CostSpec(q_tp=args.qtp, q_fp=args.qfp)
    return _point_or_curve(
        args, ranked, lambda ranked, n: metrics.cum_benefit(ranked, n, costs),
        lambda ranked: metrics.benefit_series(ranked, costs))


def _deciles(args, ranked) -> str | Iterable[str]:
    if args.out:
        return io._curve_pieces([metrics.decile_series(ranked)], args.format)
    return "".join(f"{k} {_rendered(args, v)}\n" for k, v in
                   enumerate(metrics.decile_lift(ranked), start=1))


def _auc(args, ranked) -> str:
    fn = metrics.auc_pairs if args.method == "pairs" else metrics.auc_wilcoxon
    return _rendered(args, fn(ranked)) + "\n"


def _roc(args, ranked) -> str | Iterable[str]:
    return io._curve_pieces([metrics.roc_points(ranked)], args.format)


def _compare(args) -> str:
    paths = args.input
    names = args.name or [Path(p).stem for p in paths]
    if len(names) != len(paths):
        raise ValidationError("--name count must match --input count")
    runs = [compare.ClassifierRun(name=name, ranked=_ranked(args, path))
            for name, path in zip(names, paths)]
    try:
        targets = [int(t) for t in args.targets.split(",") if t]
    except ValueError:
        raise ValidationError(f"bad --targets {args.targets!r}") from None
    table = compare.compare_at(runs, targets)

    if args.format == "json":
        payload = {
            "targets": list(table.targets),
            "winners": {str(n): list(w) for n, w in table.winners.items()},
            "entries": [
                {"run": e.run, "n": e.n,
                 "cum_gains": metrics.render_exact(e.cum_gains),
                 "lift": metrics.render_decimal(e.lift, args.precision)}
                for e in table.entries
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = []
    for n in table.targets:
        lines.append(f"n={n} winner: {', '.join(table.winners[n])}")
        for e in table.entries:
            if e.n == n:
                lines.append(
                    f"  {e.run}: cum_gains={metrics.render_exact(e.cum_gains)} "
                    f"lift={metrics.render_decimal(e.lift, args.precision)}")
    return "\n".join(lines) + "\n"


def _perturb(args) -> None:
    ranked = _ranked(args, _single_input(args), id_texts=True)
    pairs = []
    for raw in args.swap:
        try:
            a, _, b = raw.partition(":")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ValidationError(f"bad --swap {raw!r}, expected A:B") from None
    swapped = compare.apply_swaps(ranked, compare.SwapSpec(pairs=tuple(pairs)))
    io.save_scored(swapped, args.out or sys.stdout)


def _disagree(args) -> str:
    ma, mb = compare.parse_metric(args.metric_a), compare.parse_metric(args.metric_b)
    try:
        report = compare.find_disagreement(ma, mb, args.n, args.npos,
                                           budget=args.budget, seed=args.seed)
    except MemoryError:  # numpy refuses a label row of --n entries
        raise ValidationError(f"--n {args.n} does not fit in memory") from None
    if report is None:
        space = math.comb(args.n, args.npos)
        return (f"no disagreement between {ma} and {mb} exists for "
                f"N={args.n}, {args.npos} positives (exhaustive over "
                f"{space} arrangements)\n")
    if args.format == "json":
        payload = {
            "metric_a": str(report.metric_a),
            "metric_b": str(report.metric_b),
            "labels_x": "".join(map(str, report.labels_x)),
            "labels_y": "".join(map(str, report.labels_y)),
            "value_a_x": metrics.render_exact(report.value_a_x),
            "value_a_y": metrics.render_exact(report.value_a_y),
            "value_b_x": metrics.render_exact(report.value_b_x),
            "value_b_y": metrics.render_exact(report.value_b_y),
            "exhaustive": report.exhaustive,
            "certified": report.certify(),
        }
        return json.dumps(payload, indent=2) + "\n"
    dec = lambda v: metrics.render_decimal(v, args.precision)
    lines = [
        f"disagreement: {report.metric_a} vs {report.metric_b} "
        f"(N={args.n}, {args.npos} positives, "
        f"{'exhaustive' if report.exhaustive else 'sampled'})",
        f"  ranking X: {''.join(map(str, report.labels_x))}",
        f"  ranking Y: {''.join(map(str, report.labels_y))}",
        f"  {report.metric_a}: X={dec(report.value_a_x)} "
        f"Y={dec(report.value_a_y)} -> prefers "
        f"{'X' if report.a_prefers_x else 'Y'}",
        f"  {report.metric_b}: X={dec(report.value_b_x)} "
        f"Y={dec(report.value_b_y)} -> prefers "
        f"{'X' if report.b_prefers_x else 'Y'}",
        f"  certified: {report.certify()}",
    ]
    return "\n".join(lines) + "\n"


def _resample(args) -> str:
    # the loader checks the ids; only scores and labels are kept
    scores, labels = io._load_columns(_scored_file(args, _single_input(args)),
                                      id_form=None)[1:]
    try:
        rates = tuple(float(r) for r in args.rates.split(",") if r)
    except ValueError:
        raise ValidationError(f"bad --rates {args.rates!r}") from None
    plan = resample.ResamplePlan(target_rates=rates,
                                 replicate_count=args.reps,
                                 sample_size=args.size, seed=args.seed)
    try:
        summary = resample._run_columns(scores, labels, plan)
    except MemoryError:  # numpy refuses bands of one row per replicate at once
        raise ValidationError(f"--reps {args.reps} does not fit in memory") from None
    if args.format == "json":
        return io.summary_to_json(summary)
    return io.summary_to_csv(summary)


def _chart(args, ranked) -> str:
    kind = charts.ChartKind(args.kind)
    costs = None
    if kind is charts.ChartKind.BENEFIT:
        if args.qtp is None or args.qfp is None:
            raise ValidationError("benefit charts need --qtp and --qfp")
        costs = metrics.CostSpec(q_tp=args.qtp, q_fp=args.qfp)
    spec = charts.ChartSpec(kind=kind, title=args.title,
                            include_baseline=args.baseline)
    return charts.render_chart(spec, [charts.series_for(kind, ranked, costs)])


# parse_args leaves the parser unchanged, so one parser serves every call
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def cli_main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        output = args.run(args)
        if output is not None:  # `perturb` has written its file itself
            _emit(args, output)
    except (BudgetExhaustedError, InfeasibleError) as exc:
        print(f"gainslift: {exc}", file=sys.stderr)
        return 2
    except (GainsLiftError, OSError) as exc:
        print(f"gainslift: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:  # console-script entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
