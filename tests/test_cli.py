import json
import tracemalloc
from fractions import Fraction
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gainslift import (InfeasibleError, ResamplePlan, ScoredFile,
                       ValidationError, auc_pairs, cum_gains, decile_lift,
                       example24_path, lift, load_scored, parse_curves,
                       rank_records, render_decimal, roc_points, run_plan,
                       summary_to_csv, summary_to_json)
import gainslift.cli
from gainslift.cli import cli_main
from gainslift.io import _load_columns

from helpers import load_csv_oracle, load_jsonl_oracle, random_scored_csv

EXAMPLE = str(example24_path())


def run(capsys, *argv):
    code = cli_main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSingleValues:
    def test_auc(self, capsys):
        code, out, _ = run(capsys, "auc", "--input", EXAMPLE)
        assert code == 0
        assert out.strip() == "0.93750"

    def test_auc_wilcoxon_agrees(self, capsys):
        code, out, _ = run(capsys, "auc", "--input", EXAMPLE,
                           "--method", "wilcoxon")
        assert (code, out.strip()) == (0, "0.93750")

    def test_auc_exact(self, capsys):
        code, out, _ = run(capsys, "auc", "--input", EXAMPLE, "--exact")
        assert out.strip() == "15/16"

    def test_lift_at_12(self, capsys):
        code, out, _ = run(capsys, "lift", "--input", EXAMPLE, "--n", "12")
        assert (code, out.strip()) == (0, "1.66667")

    def test_gains_at_8(self, capsys):
        code, out, _ = run(capsys, "gains", "--input", EXAMPLE, "--n", "8")
        assert (code, out.strip()) == (0, "7.00000")

    def test_gains_by_fraction(self, capsys):
        # ceil(0.5 * 24) = 12
        code, out, _ = run(capsys, "gains", "--input", EXAMPLE,
                           "--fraction", "0.5", "--exact")
        assert (code, out.strip()) == (0, "10")

    def test_fraction_cutoff_is_exact(self, capsys, tmp_path):
        # 0.07 * 100 is 7.000000000000001 in floats; the cutoff is n = 7,
        # where lift is 100/70, not n = 8 (lift 100/80)
        labels = [1] + [0] * 9 + [1] * 9 + [0] * 81
        path = tmp_path / "hundred.csv"
        path.write_text("label,score\n" + "".join(
            f"{y},{100 - i}\n" for i, y in enumerate(labels)), encoding="utf-8")
        code, out, _ = run(capsys, "lift", "--input", str(path),
                           "--fraction", "0.07")
        assert (code, out.strip()) == (0, "1.42857")

    def test_bad_fraction_exit_1(self, capsys):
        for bad in ("0", "1.5", "x", "nan"):
            code, _, _ = run(capsys, "lift", "--input", EXAMPLE,
                             "--fraction", bad)
            assert code == 1

    def test_benefit(self, capsys):
        code, out, _ = run(capsys, "benefit", "--input", EXAMPLE,
                           "--n", "8", "--qtp", "10", "--qfp", "-1")
        assert (code, out.strip()) == (0, "69.00000")

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "auc", "--input", EXAMPLE,
                           "--precision", "3")
        assert out.strip() == "0.938"


class TestAgainstLibrary:
    def test_cli_matches_library_everywhere(self, capsys):
        ranked = rank_records(load_scored(EXAMPLE))
        cases = [
            (("auc",), render_decimal(auc_pairs(ranked))),
            (("lift", "--n", "6"), render_decimal(lift(ranked, 6))),
            (("gains", "--n", "24"), render_decimal(cum_gains(ranked, 24))),
        ]
        for extra, expected in cases:
            code, out, _ = run(capsys, extra[0], "--input", EXAMPLE, *extra[1:])
            assert code == 0
            assert out.strip() == expected

    def test_deciles_match_library(self, capsys):
        ranked = rank_records(load_scored(EXAMPLE))
        code, out, _ = run(capsys, "deciles", "--input", EXAMPLE)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        for line, expected in zip(lines, decile_lift(ranked)):
            k, value = line.split()
            assert value == render_decimal(expected)

    def test_deciles_without_positives_fail_with_or_without_out(
            self, capsys, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("label,score\n0,0.9\n0,0.5\n", encoding="utf-8")
        out_path = tmp_path / "deciles.csv"
        for extra in ([], ["--out", str(out_path)]):
            assert run(capsys, "deciles", "--input", str(path), *extra) == (
                1, "", "gainslift: decile lift undefined: the set has no "
                       "positives\n")
        assert not out_path.exists()

    def test_roc_emission_matches_library(self, capsys):
        ranked = rank_records(load_scored(EXAMPLE))
        code, out, _ = run(capsys, "roc", "--format", "json",
                           "--input", EXAMPLE)
        assert code == 0
        series = parse_curves(out, format="json")
        assert series == [roc_points(ranked)]


class TestInputFlags:
    def test_custom_delimiter_and_columns(self, capsys, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("y;p\n1;0.9\n0;0.4\n1;0.6\n")
        code, out, _ = run(capsys, "auc", "--input", str(path),
                           "--delimiter", ";", "--label-col", "y",
                           "--score-col", "p", "--exact")
        assert (code, out.strip()) == (0, "1")

    def test_jsonl_input(self, capsys, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({"label": 1, "score": 0.8}) + "\n"
                        + json.dumps({"label": 0, "score": 0.3}) + "\n")
        code, out, _ = run(capsys, "auc", "--input", str(path))
        assert (code, out.strip()) == (0, "1.00000")


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys):
        first = run(capsys, "gains", "--input", EXAMPLE, "--format", "json")
        second = run(capsys, "gains", "--input", EXAMPLE, "--format", "json")
        assert first == second


class TestCompareCommand:
    def test_compare_two_runs(self, capsys, tmp_path, example24, perturbed24):
        from gainslift import save_scored
        other = tmp_path / "perturbed.csv"
        save_scored(perturbed24.records, other)
        code, out, _ = run(capsys, "compare", "--input", EXAMPLE,
                           "--input", str(other), "--targets", "6,14",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["winners"]["6"] == ["example24"]
        assert payload["winners"]["14"] == ["perturbed"]


class TestPerturbCommand:
    def test_perturb_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "swapped.csv"
        code, _, _ = run(capsys, "perturb", "--input", EXAMPLE,
                         "--swap", "6:8", "--swap", "12:16",
                         "--out", str(out_file))
        assert code == 0
        swapped = rank_records(load_scored(out_file))
        assert render_decimal(auc_pairs(swapped), 3) == "0.951"


class TestDisagreeCommand:
    def test_finds_certified_counterexample(self, capsys):
        code, out, _ = run(capsys, "disagree", "--metric-a", "auc",
                           "--metric-b", "lift@6", "--n", "10", "--npos", "5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["exhaustive"] is True

    def test_self_disagreement_reports_none(self, capsys):
        code, out, _ = run(capsys, "disagree", "--metric-a", "auc",
                           "--metric-b", "auc", "--n", "8", "--npos", "4")
        assert code == 0
        assert "no disagreement" in out

    def test_budget_exhaustion_exits_2(self, capsys):
        code, _, err = run(capsys, "disagree", "--metric-a", "auc",
                           "--metric-b", "auc", "--n", "40", "--npos", "20",
                           "--budget", "50")
        assert code == 2
        assert "budget" in err or "not certified" in err

    def test_sampled_search_rejects_a_negative_seed(self, capsys):
        code, out, err = run(capsys, "disagree", "--metric-a", "auc",
                             "--metric-b", "lift@6", "--n", "40",
                             "--npos", "20", "--budget", "5", "--seed", "-1")
        assert (code, out, err) == (
            1, "", "gainslift: seed must be >= 0, got -1\n")

    def test_exhaustive_search_ignores_the_seed(self, capsys):
        argv = ["disagree", "--metric-a", "auc", "--metric-b", "lift@6",
                "--n", "10", "--npos", "5"]
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert (code, out, err) == (0, *run(capsys, *argv)[1:])
        assert out.startswith("disagreement: auc vs lift@6")


class TestResampleCommand:
    def test_summary_emission(self, capsys, tmp_path):
        from gainslift import save_scored, synthetic_scorer
        pool_file = tmp_path / "pool.csv"
        save_scored(synthetic_scorer(300, 1700, 1.8, seed=5), pool_file)
        code, out, _ = run(capsys, "resample", "--input", str(pool_file),
                           "--rates", "0.1,0.2", "--reps", "3",
                           "--size", "100", "--seed", "9", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["bands"]) == 2
        assert payload["bands"][0]["n_pos"] == 10

    def test_infeasible_rate_exits_2(self, capsys, tmp_path):
        from gainslift import save_scored, synthetic_scorer
        pool_file = tmp_path / "pool.csv"
        save_scored(synthetic_scorer(5, 100, 1.0, seed=5), pool_file)
        code, _, err = run(capsys, "resample", "--input", str(pool_file),
                           "--rates", "0.5", "--reps", "2", "--size", "50")
        assert code == 2

    def test_rate_leaving_one_class_empty_exits_2(self, capsys):
        code, out, err = run(capsys, "resample", "--input", EXAMPLE,
                             "--rates", "0.01", "--size", "10")
        assert (code, out) == (2, "")
        assert err == ("gainslift: rate 0.01 at size 10 leaves no records "
                       "of one class\n")

    def test_negative_seed_exits_1(self, capsys):
        code, out, err = run(capsys, "resample", "--input", EXAMPLE,
                             "--rates", "0.3", "--size", "10", "--seed", "-1")
        assert (code, out, err) == (
            1, "", "gainslift: seed must be >= 0, got -1\n")

    def test_huge_size_exits_2(self, capsys):
        code, out, err = run(capsys, "resample", "--input", EXAMPLE,
                             "--rates", "0.3",
                             "--size", "100000000000000000000")
        assert (code, out) == (2, "")
        assert err.startswith("gainslift: rate 0.3 at size "
                              "100000000000000000000 needs ")
        assert err.endswith(" negatives; pool has 12/12\n")

    def test_huge_reps_exits_1(self, capsys):
        # 10**14 rows of 100 floats is 71 PiB, past any address space, so
        # numpy refuses the bands before allocating anything
        code, out, err = run(capsys, "resample", "--input", EXAMPLE,
                             "--rates", "0.3", "--size", "10",
                             "--reps", "100000000000000")
        assert (code, out) == (1, "")
        assert err == "gainslift: --reps 100000000000000 does not fit in memory\n"

    def test_random_files_against_the_record_route(self, capsys, tmp_path):
        """`resample` reads the loader's columns; on the first 20 random
        files that give a summary, and every file drawn before them, it
        prints what the library's record route gives for the file."""
        path = tmp_path / "pool.csv"
        summaries = 0
        for seed in range(400):
            rng = np.random.default_rng(7300 + seed)
            text, options, encoding = random_scored_csv(
                rng, quote_rate=(0.0, 0.3)[seed % 2],
                tie_step=(0.0, 0.5)[seed // 2 % 2])
            path.write_text(text, encoding=encoding)
            plan = ResamplePlan(target_rates=(0.2, 0.4), replicate_count=3,
                                sample_size=10, seed=seed)
            try:
                summary = run_plan(load_scored(ScoredFile(path, **options)),
                                   plan)
                want = {"csv": (0, summary_to_csv(summary), ""),
                        "json": (0, summary_to_json(summary), "")}
                summaries += 1
            except (InfeasibleError, ValidationError) as exc:
                code = 2 if isinstance(exc, InfeasibleError) else 1
                want = dict.fromkeys(("csv", "json"),
                                     (code, "", f"gainslift: {exc}\n"))
            flags = ["--delimiter", options["delimiter"]]
            if "id_col" in options:
                flags += ["--id-col", options["id_col"]]
            for fmt in ("csv", "json"):
                got = run(capsys, "resample", "--input", str(path), *flags,
                          "--rates", "0.2,0.4", "--reps", "3", "--size", "10",
                          "--seed", str(seed), "--format", fmt)
                assert got == want[fmt], (seed, fmt)
            if summaries == 20:
                break
        assert summaries == 20

    def test_peak_memory_stays_near_the_loaders(self, tmp_path):
        rng = np.random.default_rng(23)
        rows = 10**5
        lines = ["id,score,label"] + [
            f"r{i:06d},{s!r},{y}" for i, (s, y) in enumerate(zip(
                rng.random(rows).tolist(), rng.integers(0, 2, rows).tolist()))]
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        gainslift.cli._shared_parser()  # built once, outside the trace

        def peak(fn) -> int:
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loader = peak(lambda: _load_columns(path))
        command = peak(lambda: cli_main([
            "resample", "--input", str(path), "--rates", "0.05,0.117,0.2",
            "--reps", "3", "--size", "5000",
            "--out", str(tmp_path / "bands.csv")]))
        assert command <= 1.05 * loader


class TestChartCommand:
    def test_svg_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "gains.svg"
        code, _, _ = run(capsys, "chart", "--input", EXAMPLE,
                         "--kind", "gains-fraction", "--out", str(out_file))
        assert code == 0
        root = ET.fromstring(out_file.read_text())
        assert root.tag.endswith("svg")

    def test_benefit_chart_requires_costs(self, capsys):
        code, _, err = run(capsys, "chart", "--input", EXAMPLE,
                           "--kind", "benefit")
        assert code == 1
        assert "qtp" in err


class TestErrorPaths:
    def test_unknown_subcommand_usage_exit_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run(capsys, "auc", "--input", EXAMPLE, "--bogus")
        assert code == 1
        assert "usage" in err

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1
        assert "usage" in err

    def test_validation_error_exit_1(self, capsys):
        code, _, err = run(capsys, "lift", "--input", EXAMPLE, "--n", "0")
        assert code == 1
        assert "out of range" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "auc", "--input", "/nonexistent.csv")
        assert code == 1



class TestBenefitFloatRange:
    """A net benefit past the float range exits 1 with a message naming it;
    values inside the range print as the float formula gives them."""

    @pytest.mark.parametrize("cutoff,message", [
        (["--n", "12"], "the net benefit at n=12 is 1.000000e+309"),
        (["--n", "12", "--exact"], "the net benefit at n=12 is 1.000000e+309"),
        ([], "a value is 2.000000e+308"),
        (["--format", "json"], "a value is 2.000000e+308"),
    ])
    def test_exit_1_naming_the_value(self, capsys, cutoff, message):
        assert run(capsys, "benefit", "--input", EXAMPLE, "--qtp", "1e308",
                   "--qfp", "0", *cutoff) == (
            1, "", f"gainslift: {message}, beyond the float range\n")

    def test_benefit_chart_exits_1(self, capsys):
        code, out, err = run(capsys, "chart", "--input", EXAMPLE, "--kind",
                             "benefit", "--qtp", "1e308", "--qfp", "0")
        assert (code, out) == (1, "")
        assert err == "gainslift: a value is 2.000000e+308, beyond the float range\n"

    def test_overflowing_products_fall_back_to_the_exact_sum(self, capsys):
        # 12 hits and 12 misses: 12e308 - 12e308 is nan in floats, 0 exactly
        assert run(capsys, "benefit", "--input", EXAMPLE, "--n", "24",
                   "--qtp", "1e308", "--qfp=-1e308") == (0, "0.00000\n", "")

    def test_values_inside_the_range_are_the_float_formula(self, capsys):
        # top 12 of example24: 10 hits and 2 misses
        code, out, _ = run(capsys, "benefit", "--input", EXAMPLE, "--n", "12",
                           "--qtp", "1.5e307", "--qfp=-3e306", "--exact")
        assert (code, out) == (0, f"{Fraction(10 * 1.5e307 + 2 * -3e306)}\n")


# every form of command that reads a scored file
LOADING_COMMANDS = [
    ["auc"], ["lift", "--n", "1"], ["gains"], ["roc"],
    ["perturb", "--swap", "1:1"], ["chart", "--kind", "lift"],
    ["resample", "--rates", "0.5", "--reps", "1", "--size", "2"],
    ["lift", "--n", "1", "--tie-policy", "id"]]


class TestRejectedInputs:
    """Every input the README says is rejected exits 1 with the loader
    oracle's message on stderr, for each command that reads a file."""

    CASES = [
        ("a.csv", "id,score,label\na,0.9,true\n"),
        ("a.csv", "id,score,label\na,0.9,1\nb,0.4,2\n"),
        ("a.csv", "id,score,label\na,0.9,1\nb,0.4,1.0\n"),
        ("a.csv", "id,score,label\na,0.9,1\nb,oops,0\n"),
        ("a.csv", "id,score,label\na,0.9,1\nb,nan,0\n"),
        ("a.csv", "id,score,label\na,0.9,1\n,0.4,0\n"),
        ("a.csv", "id,score,label\na,0.9,1\na,0.4,0\n"),
        ("a.csv", "id,score,label\na,0.9,1\nb,0.4\n"),
        ("a.csv", "id,score,label\n"),
        ("a.csv", "id,value,label\na,0.9,1\n"),
        ("a.csv", ""),
        ("a.jsonl", '{"score": 0.9, "label": true}\n'),
        ("a.jsonl", '{"score": 0.9, "label": 1}\n{"score": 0.4, "label": 1.0}\n'),
        ("a.jsonl", '{"score": true, "label": 1}\n'),
        ("a.jsonl", '{"score": 0.9, "label": "yes"}\n'),
        ("a.jsonl", '{"id": "x", "score": 0.9, "label": 1}\n'
                    '{"id": "x", "score": 0.4, "label": 0}\n'),
        ("a.jsonl", "{not json\n"),
        # integers past the float range, or past the digits Python reads
        pytest.param("a.jsonl", '{"score": 0.9, "label": 1}\n'
                     f'{{"score": -1{"0" * 400}, "label": 0}}\n',
                     id="jsonl-score-past-float-range"),
        *(pytest.param("a.jsonl", '{"id": "a", "score": 0.9, "label": 1}\n'
                       + row.replace("N", "9" * 5000) + "\n",
                       id=f"jsonl-{field}-past-int-digits")
          for field, row in (("id", '{"id": N, "score": 0.4, "label": 0}'),
                             ("score", '{"id": "b", "score": N, "label": 0}'),
                             ("label", '{"id": "b", "score": 0.4, "label": N}'))),
        pytest.param("a.jsonl", '{"score": 0.9, "label": 1}\n{"score": '
                     + "[" * 100_000 + "]" * 100_000 + ', "label": 0}\n',
                     id="jsonl-score-nested-too-deeply"),
    ]

    @pytest.mark.parametrize("name,text", CASES)
    @pytest.mark.parametrize("command", LOADING_COMMANDS)
    def test_exit_1_with_the_loader_message(self, capsys, tmp_path, name,
                                            text, command):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        oracle = load_jsonl_oracle if name.endswith(".jsonl") else load_csv_oracle
        fmt = "jsonl" if name.endswith(".jsonl") else "csv"
        with pytest.raises(ValidationError) as info:
            oracle(ScoredFile(path=path, format=fmt))
        code, out, err = run(capsys, command[0], "--input", str(path),
                             *command[1:])
        assert (code, out, err) == (1, "", f"gainslift: {info.value}\n")


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["lift", "--input", EXAMPLE, "--n", "3", "--fraction", "0.5"],
         "give --n or --fraction, not both"),
        (["compare", "--input", EXAMPLE, "--input", EXAMPLE,
          "--targets", "6,x"], "bad --targets '6,x'"),
        (["compare", "--input", EXAMPLE, "--input", EXAMPLE, "--name", "a",
          "--targets", "6"], "--name count must match --input count"),
        (["compare", "--input", EXAMPLE, "--input", EXAMPLE, "--name", "a",
          "--name", "b", "--targets", "6,6"], "repeated target n=6"),
        (["perturb", "--input", EXAMPLE, "--swap", "6-8"],
         "bad --swap '6-8', expected A:B"),
        (["resample", "--input", EXAMPLE, "--rates", "0.1,x"],
         "bad --rates '0.1,x'"),
        (["auc", "--input", EXAMPLE, "--input", EXAMPLE],
         "this command takes exactly one --input"),
        (["auc", "--input", EXAMPLE, "--delimiter", ""],
         "delimiter '' is not one character"),
        (["auc", "--input", EXAMPLE, "--delimiter", "ab"],
         "delimiter 'ab' is not one character"),
    ])
    def test_exit_1_with_the_message(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"gainslift: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["gains"], ["lift"], ["benefit", "--qtp", "1", "--qfp", "-1"]])
    @pytest.mark.parametrize("fraction", ["1/0", "x"])
    def test_unparseable_fraction_is_a_usage_error(self, capsys, argv,
                                                   fraction):
        code, out, err = run(capsys, *argv, "--input", EXAMPLE,
                             "--fraction", fraction)
        assert (code, out) == (1, "")
        assert err.startswith("usage: gainslift ")
        assert err.endswith(f"error: argument --fraction: invalid Fraction "
                            f"value: {fraction!r}\n")


# options every command that reads a scored file takes
INPUT_OPTIONS = ["--input", "--in-format", "--delimiter", "--label-col",
                 "--score-col", "--id-col"]

# each subcommand's option strings besides -h/--help: exactly the options
# the command reads
SURFACE = {
    "gains": INPUT_OPTIONS + ["--tie-policy", "--out", "--format",
                              "--precision", "--exact", "--n", "--fraction",
                              "--x"],
    "lift": INPUT_OPTIONS + ["--tie-policy", "--out", "--format",
                             "--precision", "--exact", "--n", "--fraction",
                             "--x"],
    "deciles": INPUT_OPTIONS + ["--tie-policy", "--out", "--format",
                                "--precision", "--exact"],
    "benefit": INPUT_OPTIONS + ["--tie-policy", "--out", "--format",
                                "--precision", "--exact", "--qtp", "--qfp",
                                "--n", "--fraction"],
    "auc": INPUT_OPTIONS + ["--tie-policy", "--out", "--precision", "--exact",
                            "--method"],
    "roc": INPUT_OPTIONS + ["--tie-policy", "--out", "--format"],
    "compare": INPUT_OPTIONS + ["--tie-policy", "--out", "--format",
                                "--precision", "--name", "--targets"],
    "perturb": INPUT_OPTIONS + ["--tie-policy", "--out", "--swap"],
    "disagree": ["--out", "--format", "--precision", "--metric-a",
                 "--metric-b", "--n", "--npos", "--budget", "--seed"],
    "resample": INPUT_OPTIONS + ["--out", "--format", "--rates", "--reps",
                                 "--size", "--seed"],
    "chart": INPUT_OPTIONS + ["--tie-policy", "--out", "--kind", "--title",
                              "--no-baseline", "--qtp", "--qfp"],
}


class TestSurface:
    def test_each_command_takes_exactly_its_options(self):
        import argparse
        from gainslift.cli import build_parser
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        got = {name: [s for a in parser._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, parser in sub.choices.items()}
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in SURFACE.items()}
        assert sum(map(len, SURFACE.values())) == 129

    def test_no_baseline_drops_the_reference_line(self, capsys):
        argv = ["chart", "--input", EXAMPLE, "--kind", "lift"]
        code, with_line, _ = run(capsys, *argv)
        assert code == 0 and 'stroke-dasharray="6 4"' in with_line
        code, without, _ = run(capsys, *argv, "--no-baseline")
        assert code == 0 and 'stroke-dasharray' not in without


class TestOutFile:
    """`--out FILE` writes exactly the bytes the command prints without it,
    and prints nothing."""

    @pytest.mark.parametrize("argv", [
        ["auc", "--input", EXAMPLE],
        ["auc", "--input", EXAMPLE, "--exact"],
        ["lift", "--input", EXAMPLE, "--n", "6"],
        ["gains", "--input", EXAMPLE, "--fraction", "0.5", "--precision", "2"],
        ["benefit", "--input", EXAMPLE, "--n", "8", "--qtp", "10",
         "--qfp=-1"],
        ["roc", "--input", EXAMPLE],
        ["compare", "--input", EXAMPLE, "--input", EXAMPLE, "--name", "a",
         "--name", "b", "--targets", "6,14"],
        ["disagree", "--metric-a", "auc", "--metric-b", "auc", "--n", "8",
         "--npos", "4"],
        ["disagree", "--metric-a", "auc", "--metric-b", "lift@6", "--n", "10",
         "--npos", "5"],
        ["chart", "--input", EXAMPLE, "--kind", "roc"],
        ["chart", "--input", EXAMPLE, "--kind", "decile-lift",
         "--no-baseline"],
    ], ids=lambda argv: " ".join(a for a in argv if a != EXAMPLE))
    def test_out_writes_what_stdout_carries(self, capsys, tmp_path, argv):
        code, printed, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        out = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
        assert out.read_bytes() == printed.encode("utf-8")


class TestSharedParser:
    def test_repeatable_options_leak_no_state(self, capsys, tmp_path, perturbed24):
        from gainslift import save_scored
        other = tmp_path / "perturbed.csv"
        save_scored(perturbed24.records, other)
        argv = ["compare", "--input", EXAMPLE, "--input", str(other),
                "--name", "x", "--name", "y", "--targets", "6", "--format", "json"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert json.loads(first[1])["winners"]["6"] == ["x"]
        # a single-input command after it sees one --input
        assert run(capsys, "auc", "--input", EXAMPLE)[:2] == (0, "0.93750\n")
        # without --name the runs are named by file stem again
        code, out, _ = run(capsys, "compare", "--input", EXAMPLE, "--input",
                           str(other), "--targets", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["winners"]["6"] == ["example24"]
        assert [e["run"] for e in json.loads(out)["entries"]] == [
            "example24", "perturbed"]
        swapped = run(capsys, "perturb", "--input", EXAMPLE, "--swap", "1:2")
        again = run(capsys, "perturb", "--input", EXAMPLE, "--swap", "1:2")
        assert swapped == again

    def test_build_parser_returns_a_fresh_parser(self):
        from gainslift.cli import build_parser
        assert build_parser() is not build_parser()


class TestUnreadableInputs:
    """Bytes that are not UTF-8 and csv fields over the csv module's size
    limit exit 1 with a message naming the file, not with a traceback."""

    FIELD_LIMIT = 131_072  # csv.field_size_limit() by default

    CASES = [
        pytest.param("a.csv", b"id,score,label\na,0.9,1\n\xff\xfe,0.4,0\n",
                     "not UTF-8 text", id="csv-not-utf8"),
        pytest.param("a.jsonl", b'{"score": 0.9, "label": 1}\n\xff\n',
                     "not UTF-8 text", id="jsonl-not-utf8"),
        pytest.param("a.csv", b"id,score,label\n" + b"x" * (FIELD_LIMIT + 1)
                     + b",0.4,0\n",
                     f"field larger than field limit ({FIELD_LIMIT})",
                     id="csv-oversize-field"),
    ]

    @pytest.mark.parametrize("name,data,message", CASES)
    @pytest.mark.parametrize("command", LOADING_COMMANDS)
    def test_exit_1_naming_the_file(self, capsys, tmp_path, name, data,
                                    message, command):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, command[0], "--input", str(path),
                             *command[1:])
        assert (code, out, err) == (1, "", f"gainslift: {path}: {message}\n")
