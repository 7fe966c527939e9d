"""Command-line surface.

Every subcommand is a thin shell over a library operation: load the scored
file, call the operation, render the result. Numeric output is deterministic
given the inputs, flags, and seed.

Exit codes: 0 success, 1 validation error (including usage errors), 2
infeasibility or search-budget exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import charts, compare, io, metrics, resample
from .errors import BudgetExhaustedError, GainsLiftError, InfeasibleError, ValidationError
from .records import TiePolicy, _rank_columns
from .records import rank_records  # noqa: F401  (perfbench wraps it here)

_TIE_POLICIES = {
    "input": TiePolicy.INPUT_ORDER,
    "id": TiePolicy.ID_ORDER,
    "expected": TiePolicy.EXPECTED_VALUE,
}


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
        parser.add_argument("--tie-policy", choices=sorted(_TIE_POLICIES),
                            default="input")


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

    def command(name: str, help_text: str, *outputs: str,
                multiple_inputs: bool = False, needs_input: bool = True,
                ranked: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
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
                *point_or_curve)
    _cutoff_options(p)
    p.add_argument("--x", choices=("count", "fraction"), default="count",
                   help="x axis for curve output")

    p = command("lift", "lift at a cutoff, or the whole curve", *point_or_curve)
    _cutoff_options(p)
    p.add_argument("--x", choices=("count", "fraction"), default="fraction")

    command("deciles", "lift for each tenth of the ranked set", *point_or_curve)

    p = command("benefit", "cost-weighted cumulative benefit", *point_or_curve)
    p.add_argument("--qtp", type=float, required=True,
                   help="net benefit per true positive")
    p.add_argument("--qfp", type=float, required=True,
                   help="net benefit per false positive (usually negative)")
    _cutoff_options(p)

    p = command("auc", "area under the ROC curve (exact, tie-aware)",
                "--precision", "--exact")
    p.add_argument("--method", choices=("pairs", "wilcoxon"), default="pairs")

    command("roc", "ROC curve points", "--format")

    p = command("compare", "gains/lift of several runs at shared cutoffs",
                "--format", "--precision", multiple_inputs=True)
    p.add_argument("--name", action="append", default=None,
                   help="run name per --input (default: file stem)")
    p.add_argument("--targets", required=True,
                   help="comma-separated cutoffs, e.g. 6,14")

    p = command("perturb", "swap labels at rank positions and emit the result")
    p.add_argument("--swap", action="append", required=True, metavar="A:B",
                   help="rank pair to exchange, repeatable")

    p = command("disagree", "search for rankings two metrics order oppositely",
                "--format", "--precision", needs_input=False)
    p.add_argument("--metric-a", required=True,
                   help="auc, lift@<n>, or accuracy@<n>")
    p.add_argument("--metric-b", required=True)
    p.add_argument("--n", type=int, required=True, help="records per ranking")
    p.add_argument("--npos", type=int, required=True,
                   help="positives per ranking")
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)

    p = command("resample", "stratified-resampling bands across positive rates",
                "--format", ranked=False)
    p.add_argument("--rates", required=True,
                   help="comma-separated target positive rates, e.g. 0.05,0.117,0.2")
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)

    p = command("chart", "render an SVG chart")
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


def _ranked(args, path: str):
    """Rank the file's validated columns; no per-row record is built."""
    return _rank_columns(*io._load_columns(_scored_file(args, path)),
                         _TIE_POLICIES[args.tie_policy])


def _single_input(args) -> str:
    if len(args.input) != 1:
        raise ValidationError("this command takes exactly one --input")
    return args.input[0]


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


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


def _point_or_curve(args, ranked, point, curve) -> int:
    """Print `point(ranked, n)` at the --n or --fraction cutoff, or emit the
    whole `curve(ranked)` when neither is given."""
    n = _cutoff(args, ranked.n_total)
    if n is not None:
        _emit(args, _rendered(args, point(ranked, n)) + "\n")
    else:
        _emit(args, io.emit_curves([curve(ranked)], format=args.format))
    return 0


def _cmd_gains(args) -> int:
    fraction = args.x == "fraction"
    return _point_or_curve(
        args, _ranked(args, _single_input(args)), metrics.cum_gains,
        lambda ranked: metrics.gains_series(ranked, fraction=fraction))


def _cmd_lift(args) -> int:
    fraction = args.x == "fraction"
    return _point_or_curve(
        args, _ranked(args, _single_input(args)), metrics.lift,
        lambda ranked: metrics.lift_series(ranked, fraction=fraction))


def _cmd_benefit(args) -> int:
    ranked = _ranked(args, _single_input(args))
    costs = metrics.CostSpec(q_tp=args.qtp, q_fp=args.qfp)
    return _point_or_curve(
        args, ranked, lambda ranked, n: metrics.cum_benefit(ranked, n, costs),
        lambda ranked: metrics.benefit_series(ranked, costs))


def _cmd_deciles(args) -> int:
    ranked = _ranked(args, _single_input(args))
    if args.out:
        series = metrics.decile_series(ranked)
        _emit(args, io.emit_curves([series], format=args.format))
        return 0
    _emit(args, "".join(f"{k} {_rendered(args, v)}\n" for k, v in
                        enumerate(metrics.decile_lift(ranked), start=1)))
    return 0


def _cmd_auc(args) -> int:
    ranked = _ranked(args, _single_input(args))
    fn = metrics.auc_pairs if args.method == "pairs" else metrics.auc_wilcoxon
    _emit(args, _rendered(args, fn(ranked)) + "\n")
    return 0


def _cmd_roc(args) -> int:
    ranked = _ranked(args, _single_input(args))
    _emit(args, io.emit_curves([metrics.roc_points(ranked)], format=args.format))
    return 0


def _cmd_compare(args) -> int:
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
        import json
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
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = []
    for n in table.targets:
        lines.append(f"n={n} winner: {', '.join(table.winners[n])}")
        for e in table.entries:
            if e.n == n:
                lines.append(
                    f"  {e.run}: cum_gains={metrics.render_exact(e.cum_gains)} "
                    f"lift={metrics.render_decimal(e.lift, args.precision)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_perturb(args) -> int:
    ranked = _ranked(args, _single_input(args))
    pairs = []
    for raw in args.swap:
        try:
            a, _, b = raw.partition(":")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ValidationError(f"bad --swap {raw!r}, expected A:B") from None
    swapped = compare.apply_swaps(ranked, compare.SwapSpec(pairs=tuple(pairs)))
    io.save_scored(swapped, args.out or sys.stdout)
    return 0


def _cmd_disagree(args) -> int:
    report = compare.find_disagreement(args.metric_a, args.metric_b,
                                       args.n, args.npos,
                                       budget=args.budget, seed=args.seed)
    ma, mb = compare.parse_metric(args.metric_a), compare.parse_metric(args.metric_b)
    if report is None:
        space = math.comb(args.n, args.npos)
        _emit(args, f"no disagreement between {ma} and {mb} exists for "
                    f"N={args.n}, {args.npos} positives (exhaustive over "
                    f"{space} arrangements)\n")
        return 0
    if args.format == "json":
        import json
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
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return 0
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
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_resample(args) -> int:
    # the loader has checked the ids; only scores and labels are kept
    scores, labels = io._load_columns(_scored_file(args, _single_input(args)))[1:]
    try:
        rates = tuple(float(r) for r in args.rates.split(",") if r)
    except ValueError:
        raise ValidationError(f"bad --rates {args.rates!r}") from None
    plan = resample.ResamplePlan(target_rates=rates,
                                 replicate_count=args.reps,
                                 sample_size=args.size, seed=args.seed)
    summary = resample._run_columns(scores[labels == 1], scores[labels == 0], plan)
    if args.format == "json":
        _emit(args, io.summary_to_json(summary))
    else:
        _emit(args, io.summary_to_csv(summary))
    return 0


def _cmd_chart(args) -> int:
    ranked = _ranked(args, _single_input(args))
    kind = charts.ChartKind(args.kind)
    costs = None
    if kind is charts.ChartKind.BENEFIT:
        if args.qtp is None or args.qfp is None:
            raise ValidationError("benefit charts need --qtp and --qfp")
        costs = metrics.CostSpec(q_tp=args.qtp, q_fp=args.qfp)
    spec = charts.ChartSpec(kind=kind, title=args.title,
                            include_baseline=args.baseline)
    _emit(args, charts.render_chart(spec, [charts.series_for(kind, ranked, costs)]))
    return 0


_COMMANDS = {
    "gains": _cmd_gains,
    "lift": _cmd_lift,
    "deciles": _cmd_deciles,
    "benefit": _cmd_benefit,
    "auc": _cmd_auc,
    "roc": _cmd_roc,
    "compare": _cmd_compare,
    "perturb": _cmd_perturb,
    "disagree": _cmd_disagree,
    "resample": _cmd_resample,
    "chart": _cmd_chart,
}


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
        return _COMMANDS[args.command](args)
    except (BudgetExhaustedError, InfeasibleError) as exc:
        print(f"gainslift: {exc}", file=sys.stderr)
        return 2
    except (GainsLiftError, OSError) as exc:
        print(f"gainslift: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console-script entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
