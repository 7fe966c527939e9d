import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gainslift import (BudgetExhaustedError, ClassifierRun, DominanceVerdict,
                       Metric, RankedTestSet, ScoredRecord, SwapSpec, TiePolicy,
                       ValidationError, accuracy_at, apply_swaps, auc_pairs,
                       compare_at, cum_gains, dominance, find_disagreement,
                       lift, parse_metric, rank_records)
from gainslift import compare
from gainslift.compare import (DisagreementReport, _combinations_at,
                               _count_table, _numerators, evaluate_metric,
                               ranked_from_labels)

from helpers import (disagreement_oracle, label_evaluator, lift_above,
                     random_instance, records_from_labels)


class TestApplySwaps:
    def test_swap_positions(self, example24, perturbed24):
        labels = perturbed24.labels
        assert labels[5] == 0 and labels[7] == 1
        assert labels[11] == 1 and labels[15] == 0
        untouched = [i for i in range(24) if i not in (5, 7, 11, 15)]
        for i in untouched:
            assert labels[i] == example24.labels[i]

    def test_scores_and_order_unchanged(self, example24, perturbed24):
        assert perturbed24.scores == example24.scores
        assert [r.id for r in perturbed24.records] == \
            [r.id for r in example24.records]

    def test_empty_swap_is_identity(self, example24):
        same = apply_swaps(example24, SwapSpec(pairs=()))
        assert same.labels == example24.labels

    def test_involution(self, example24):
        swaps = SwapSpec(pairs=((6, 8), (12, 16)))
        back = apply_swaps(apply_swaps(example24, swaps), swaps)
        assert back.labels == example24.labels

    def test_preserves_class_counts(self, example24, perturbed24, flipped_pairs24):
        for ranked in (perturbed24, flipped_pairs24):
            assert ranked.n_pos == example24.n_pos
            assert ranked.n_neg == example24.n_neg

    def test_rank_out_of_range(self, example24):
        with pytest.raises(ValidationError, match="out of range"):
            apply_swaps(example24, SwapSpec(pairs=((1, 25),)))

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            SwapSpec(pairs=((6, 8), (8, 16)))


class TestCompareAt:
    def test_original_wins_early(self, example24, perturbed24):
        table = compare_at(
            [ClassifierRun("original", example24),
             ClassifierRun("perturbed", perturbed24)], [6])
        assert table.winner_at(6) == ("original",)
        gains = {e.run: e.cum_gains for e in table.entries if e.n == 6}
        assert gains == {"original": 6, "perturbed": 5}

    def test_perturbed_wins_later(self, example24, perturbed24):
        table = compare_at(
            [ClassifierRun("original", example24),
             ClassifierRun("perturbed", perturbed24)], [14])
        assert table.winner_at(14) == ("perturbed",)
        gains = {e.run: e.cum_gains for e in table.entries if e.n == 14}
        assert gains == {"original": 11, "perturbed": 12}

    def test_identical_runs_tie_everywhere(self, example24):
        runs = [ClassifierRun("a", example24), ClassifierRun("b", example24)]
        table = compare_at(runs, list(range(1, 25)))
        for n in range(1, 25):
            assert table.winner_at(n) == ("a", "b")

    def test_label_multiset_mismatch(self, example24):
        other = rank_records(records_from_labels([1] * 23 + [0]))
        with pytest.raises(ValidationError, match="label multiset"):
            compare_at([ClassifierRun("a", example24),
                        ClassifierRun("b", other)], [5])

    def test_empty_targets(self, example24):
        runs = [ClassifierRun("a", example24), ClassifierRun("b", example24)]
        with pytest.raises(ValidationError, match="target"):
            compare_at(runs, [])

    def test_one_run_rejected(self, example24):
        with pytest.raises(ValidationError, match="at least two runs"):
            compare_at([ClassifierRun("a", example24)], [5])

    def test_duplicate_run_names_rejected(self, example24, perturbed24):
        runs = [ClassifierRun("a", example24), ClassifierRun("a", perturbed24)]
        with pytest.raises(ValidationError,
                           match=r"duplicate run names: \['a', 'a'\]"):
            compare_at(runs, [5])

    @pytest.mark.parametrize("target", [0, 25])
    def test_target_out_of_range(self, example24, target):
        runs = [ClassifierRun("a", example24), ClassifierRun("b", example24)]
        with pytest.raises(ValidationError,
                           match=rf"target n={target} out of range \[1, 24\]"):
            compare_at(runs, [6, target])

    def test_repeated_target_rejected(self, example24):
        runs = [ClassifierRun("a", example24), ClassifierRun("b", example24)]
        with pytest.raises(ValidationError, match=r"^repeated target n=6$"):
            compare_at(runs, [6, 3, 6])

    def test_numpy_targets(self, example24, perturbed24):
        runs = [ClassifierRun("original", example24),
                ClassifierRun("perturbed", perturbed24)]
        want = compare_at(runs, [6, 14])
        for targets in (np.array([6, 14]), [np.int64(6), np.uint8(14)]):
            table = compare_at(runs, targets)
            assert table == want
            assert [type(n) for n in table.targets] == [int, int]
            assert {type(e.n) for e in table.entries} == {int}
            assert [type(n) for n in table.winners] == [int, int]

    @pytest.mark.parametrize("targets,message", [
        (np.array([], dtype=np.int64), r"^no target cutoffs given$"),
        (np.array([6, 0]), r"^target n=0 out of range \[1, 24\]$"),
        ([np.int64(25)], r"^target n=25 out of range \[1, 24\]$"),
        (np.array([6, 3, 6]), r"^repeated target n=6$"),
        ([np.int64(6), 6], r"^repeated target n=6$"),
        ([6, True], r"^cutoff n must be an integer, got True$"),
        ([6.0], r"^cutoff n must be an integer, got 6\.0$"),
        # a numpy scalar's repr differs between numpy versions
        ([np.bool_(True)], r"^cutoff n must be an integer, got "),
        (np.array([6.0]), r"^cutoff n must be an integer, got "),
    ])
    def test_bad_numpy_targets_keep_their_messages(self, example24, targets,
                                                   message):
        runs = [ClassifierRun("a", example24), ClassifierRun("b", example24)]
        with pytest.raises(ValidationError, match=message):
            compare_at(runs, targets)

    def test_winners_depend_only_on_prefix(self, example24):
        rng = np.random.default_rng(5)
        labels = list(example24.labels)
        tail = labels[10:]
        rng.shuffle(tail)
        shuffled = rank_records(
            records_from_labels(labels[:10] + tail,
                                [r.score for r in example24.records]))
        runs_a = [ClassifierRun("x", example24), ClassifierRun("y", shuffled)]
        table = compare_at(runs_a, list(range(1, 11)))
        for n in range(1, 11):
            assert table.winner_at(n) == ("x", "y")


class TestAccuracyAt:
    def test_example24_cutoff12(self, example24):
        assert accuracy_at(example24, 12) == Fraction(20, 24)

    def test_perfect_ranking_at_positive_count(self):
        ranked = rank_records(records_from_labels([1, 1, 1, 0, 0, 0]))
        assert accuracy_at(ranked, 3) == 1

    def test_full_cutoff_equals_base_rate(self, example24):
        assert accuracy_at(example24, 24) == Fraction(12, 24)


class TestDominance:
    def test_perturbation_crosses(self, example24, perturbed24):
        report = dominance(ClassifierRun("original", example24),
                           ClassifierRun("perturbed", perturbed24))
        assert report.verdict is DominanceVerdict.CROSSING
        assert report.a_above == ((6, 7),)
        assert report.b_above == ((12, 15),)

    def test_self_comparison_is_empty_crossing(self, example24):
        report = dominance(ClassifierRun("a", example24),
                           ClassifierRun("b", example24))
        assert report.verdict is DominanceVerdict.CROSSING
        assert report.is_tie

    def test_flipped_pairs_vs_original(self, example24, flipped_pairs24):
        for n in range(1, 16):
            assert lift(flipped_pairs24, n) >= lift(example24, n)
        assert lift(flipped_pairs24, 16) < lift(example24, 16)
        report = dominance(ClassifierRun("flipped", flipped_pairs24),
                           ClassifierRun("original", example24))
        assert report.verdict is DominanceVerdict.CROSSING
        assert report.a_above == ((8, 8),)
        assert report.b_above == ((16, 18),)

    def test_strict_dominance(self):
        better = rank_records(records_from_labels([1, 1, 1, 0, 0, 0]))
        worse = rank_records(records_from_labels([0, 1, 1, 1, 0, 0]))
        report = dominance(ClassifierRun("better", better),
                           ClassifierRun("worse", worse))
        assert report.verdict is DominanceVerdict.A_DOMINATES


class TestMetricParsing:
    def test_parse_forms(self):
        assert str(parse_metric("auc")) == "auc"
        assert str(parse_metric("lift@6")) == "lift@6"
        assert str(parse_metric("accuracy@5")) == "accuracy@5"

    def test_bad_metric(self):
        for bad in ("gini", "lift", "lift@x", "auc@3"):
            with pytest.raises(ValidationError):
                parse_metric(bad)

    def test_label_evaluators_match_library_path(self):
        rng = np.random.default_rng(21)
        metrics = [parse_metric(s) for s in ("auc", "lift@3", "accuracy@4")]
        for _ in range(25):
            n = int(rng.integers(5, 15))
            n_pos = int(rng.integers(1, n))
            labels = [1] * n_pos + [0] * (n - n_pos)
            rng.shuffle(labels)
            labels = tuple(labels)
            ranked = ranked_from_labels(labels)
            for metric in metrics:
                fast = label_evaluator(metric, n, n_pos)(labels)
                assert fast == evaluate_metric(metric, ranked)


class TestFindDisagreement:
    def test_metric_against_itself_never_disagrees(self):
        assert find_disagreement("auc", "auc", 8, 4) is None
        assert find_disagreement("lift@1", "lift@1", 6, 3) is None

    def test_accuracy_vs_lift_witness(self):
        report = find_disagreement("accuracy@5", "lift@2", 10, 5)
        assert report is not None
        assert report.exhaustive
        assert report.certify()
        assert report.a_prefers_x != report.b_prefers_x

    def test_auc_vs_lift_witness(self):
        report = find_disagreement("auc", "lift@6", 10, 5)
        assert report is not None
        assert report.certify()

    def test_certify_rejects_a_tampered_value(self):
        report = find_disagreement("auc", "lift@6", 10, 5)
        # one metric's two values moved alike: still a disagreement
        for fields in (("value_a_x", "value_a_y"), ("value_b_x", "value_b_y")):
            tampered = dataclasses.replace(report, **{
                name: getattr(report, name) + Fraction(1, 7)
                for name in fields})
            assert not tampered.certify()

    def test_report_needs_opposite_preferences(self):
        with pytest.raises(ValidationError) as info:
            DisagreementReport(Metric("auc"), Metric("lift", 1), (1, 0),
                               (0, 1), Fraction(1), Fraction(0), Fraction(2),
                               Fraction(0), True)
        assert str(info.value) == (
            "not a disagreement: both metrics prefer the same ranking")

    def test_evaluate_metric_rejects_an_unknown_kind(self, example24):
        with pytest.raises(ValidationError) as info:
            evaluate_metric(Metric("gini", 3), example24)
        assert str(info.value) == "unknown metric kind 'gini'"

    def test_example24_pair_is_a_disagreement(self, example24, perturbed24):
        # higher AUC yet lower lift at n=6: exactly the certified pattern
        assert auc_pairs(perturbed24) > auc_pairs(example24)
        assert lift(perturbed24, 6) < lift(example24, 6)
        assert lift(perturbed24, 6) == Fraction(5, 3)
        assert lift(example24, 6) == 2

    def test_sampled_mode_budget_exhaustion(self):
        # a metric cannot disagree with itself; the sampled search must say
        # "budget exhausted", never "none exists"
        with pytest.raises(BudgetExhaustedError):
            find_disagreement("auc", "auc", 40, 20, budget=50, seed=3)

    def test_sampled_mode_finds_easy_disagreements(self):
        report = find_disagreement("auc", "lift@2", 40, 20, budget=500, seed=3)
        assert report is not None
        assert not report.exhaustive
        assert report.certify()

    def test_sampled_search_rejects_a_negative_seed(self):
        with pytest.raises(ValidationError) as info:
            find_disagreement("auc", "lift@6", 40, 20, budget=5, seed=-1)
        assert str(info.value) == "seed must be >= 0, got -1"

    def test_exhaustive_search_ignores_the_seed(self):
        # the exhaustive route draws nothing, so no seed is wrong for it
        assert (find_disagreement("auc", "lift@6", 10, 5, seed=-1)
                == find_disagreement("auc", "lift@6", 10, 5, seed=0))

    @pytest.mark.parametrize("metric_a,metric_b,n_total,n_pos,message", [
        (Metric("gini"), "auc", 6, 3, "metric gini needs a cutoff in [1, 6]"),
        (Metric("gini", 3), "auc", 6, 3, "unknown metric kind 'gini'"),
        (Metric("lift"), "auc", 6, 3, "metric lift needs a cutoff in [1, 6]"),
        ("auc", "lift@7", 6, 3, "metric lift@7 needs a cutoff in [1, 6]"),
        ("accuracy@0", "auc", 6, 3,
         "metric accuracy@0 needs a cutoff in [1, 6]"),
        # metric_a is checked before metric_b
        ("lift@9", Metric("gini", 2), 6, 3,
         "metric lift@9 needs a cutoff in [1, 6]"),
        (Metric("gini", 2), "lift@9", 6, 3, "unknown metric kind 'gini'"),
        # the dimensions are checked before either metric
        (Metric("gini"), "lift@9", 6, 6,
         "need n_total >= 2 and 1 <= n_pos < n_total, got n_total=6, n_pos=6"),
    ])
    def test_bad_metric_messages(self, metric_a, metric_b, n_total, n_pos,
                                 message):
        with pytest.raises(ValidationError) as info:
            find_disagreement(metric_a, metric_b, n_total, n_pos)
        assert str(info.value) == message

    def test_budget_is_checked_before_the_metrics(self):
        with pytest.raises(ValidationError) as info:
            find_disagreement(Metric("gini"), "auc", 6, 3, budget=1)
        assert str(info.value) == "budget must allow at least two arrangements"

    def test_a_small_exhaustive_space_is_scanned_once(self, monkeypatch):
        """Up to LEX_REFINE_LIMIT arrangements, the lexicographic scan alone
        finds the witness, and alone certifies that none exists."""
        def refused(a, b):
            raise AssertionError("_first_inversion scanned the space")

        monkeypatch.setattr(compare, "_first_inversion", refused)
        report = find_disagreement("auc", "lift@6", 10, 5)
        assert report.exhaustive and report.certify()
        assert find_disagreement("auc", "auc", 8, 4) is None

    def test_invalid_dimensions(self):
        with pytest.raises(ValidationError):
            find_disagreement("auc", "lift@2", 4, 0)
        with pytest.raises(ValidationError):
            find_disagreement("auc", "lift@9", 4, 2)


class TestReconstructedThirdClassifier:
    def test_swap_16_18_keeps_early_gains_and_drops_auc(self, example24):
        third = apply_swaps(example24, SwapSpec(pairs=((16, 18),)))
        for n in list(range(1, 16)) + list(range(18, 25)):
            assert cum_gains(third, n) == cum_gains(example24, n)
        assert auc_pairs(third) == Fraction(133, 144)
        assert auc_pairs(third) < auc_pairs(example24)


def _ranks(intervals):
    return [n for lo, hi in intervals for n in range(lo, hi + 1)]


class TestDominanceAgainstOracle:
    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_random_tied_runs(self, policy):
        rng = np.random.default_rng(303)
        verdicts = set()
        for _ in range(60):
            records = random_instance(rng, max_n=80, tie_prob=0.5)
            # the same records under a second, coarser scorer: heavy ties
            other = [ScoredRecord(r.id, float(rng.integers(0, 6)), r.label)
                     for r in records]
            a, b = rank_records(records, policy), rank_records(other, policy)
            report = dominance(ClassifierRun("a", a), ClassifierRun("b", b))
            a_above, b_above = lift_above(a, b)
            assert _ranks(report.a_above) == a_above
            assert _ranks(report.b_above) == b_above
            for lo, hi in report.a_above + report.b_above:
                assert isinstance(lo, int) and isinstance(hi, int)
            verdicts.add(report.verdict)
        assert DominanceVerdict.CROSSING in verdicts

    def test_no_positives_rejected(self):
        ranked = rank_records(records_from_labels([0, 0, 0]))
        with pytest.raises(ValidationError, match="no positives"):
            dominance(ClassifierRun("a", ranked), ClassifierRun("b", ranked))

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_cross_products_past_int64_are_exact(self, monkeypatch, policy,
                                                 example24):
        # every numerator and denominator times k: the same rationals, and
        # each cross-product of nonzero remainders, which only ties under the
        # expected policy leave, is past 2**63
        k = 3**25
        a = rank_records(example24.records, policy)
        b = apply_swaps(a, SwapSpec(pairs=((6, 8), (12, 16))))
        # the same records in tie groups of five ranks
        tied = rank_records([ScoredRecord(r.id, -float(i // 5), r.label)
                             for i, r in enumerate(a.records)], policy)

        def reports():
            return [dominance(ClassifierRun("x", x), ClassifierRun("y", y))
                    for x, y in ((a, b), (a, tied), (tied, b))]

        want = reports()
        gains_at, product = RankedTestSet._gains_at, compare._product
        dtypes = []

        def scaled(ranked, cutoffs):
            num, den = gains_at(ranked, cutoffs)
            return num * k, den * k

        def spy(x, y):
            out = product(x, y)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(RankedTestSet, "_gains_at", scaled)
        monkeypatch.setattr(compare, "_product", spy)
        assert reports() == want
        # the exact route is taken where, and only where, remainders remain
        assert (object in dtypes) is (policy is TiePolicy.EXPECTED_VALUE)


# reports computed by the Fraction search before the integer kernels
GOLDEN_DISAGREEMENTS = [
    (("auc", "lift@6", 16, 8), {},
     "0000001100111111", "0000010001111111",
     (Fraction(1, 16), Fraction(3, 64), 0, Fraction(1, 3)), True),
    (("accuracy@5", "lift@2", 10, 5), {},
     "0001100111", "0100001111",
     (Fraction(2, 5), Fraction(1, 5), 0, 1), True),
    (("auc", "lift@2", 40, 20), {"budget": 500, "seed": 3},
     "0010011000000100001011111111110000111110",
     "0100000110000101001101111001010111010111",
     (Fraction(121, 400), Fraction(59, 200), 0, 1), False),
]


def _labels(text):
    return tuple(int(c) for c in text)


class TestDisagreementGolden:
    @pytest.mark.parametrize("args, kwargs, x, y, values, exhaustive",
                             GOLDEN_DISAGREEMENTS)
    def test_pinned_report(self, args, kwargs, x, y, values, exhaustive):
        report = find_disagreement(*args, **kwargs)
        assert report.labels_x == _labels(x)
        assert report.labels_y == _labels(y)
        assert (report.value_a_x, report.value_a_y,
                report.value_b_x, report.value_b_y) == values
        assert report.exhaustive is exhaustive
        assert report.certify()

    def test_exhaustive_search_memory_is_bounded(self):
        # C(20, 10) = 184,756 arrangements; the Fraction search held every
        # label tuple at once and peaked near 85 MB
        tracemalloc.start()
        try:
            report = find_disagreement("auc", "lift@10", 20, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert report.labels_x == _labels("00000100000111111111")
        assert report.labels_y == _labels("00000000110011111111")
        assert (report.value_a_x, report.value_a_y,
                report.value_b_x, report.value_b_y) == \
            (Fraction(1, 20), Fraction(1, 25), Fraction(1, 5), Fraction(2, 5))
        assert report.exhaustive


# shapes at both ends of the class balance, each searched exhaustively
CHARACTERISED_DISAGREEMENTS = [
    (("auc", "lift@3", 300, 2), ((3, 297), (2, 299)),
     (Fraction(297, 596), Fraction(74, 149), 0, 50)),
    (("auc", "accuracy@5", 22, 6),
     ("0000010000000001001111", "0000100000000000011111"),
     (Fraction(13, 96), Fraction(1, 8), Fraction(1, 2), Fraction(13, 22))),
    (("auc", "lift@3", 22, 11),
     ("0001000000100111111111", "0010000000001111111111"),
     (Fraction(10, 121), Fraction(9, 121), 0, Fraction(2, 3))),
    (("auc", "lift@1", 2000, 1999), None, None),
    (("auc", "lift@1", 2000, 1), None, None),
]


def _arrangement(form, n_total):
    """A label tuple from its text, or from the positions of its ones."""
    if isinstance(form, str):
        return _labels(form)
    return tuple(int(i in form) for i in range(n_total))


class TestDisagreementCharacterised:
    @pytest.mark.parametrize("args, pair, values", CHARACTERISED_DISAGREEMENTS)
    def test_report(self, args, pair, values):
        report = find_disagreement(*args, budget=10**6)
        if pair is None:
            assert report is None
            return
        n_total = args[2]
        assert report == DisagreementReport(
            metric_a=parse_metric(args[0]), metric_b=parse_metric(args[1]),
            labels_x=_arrangement(pair[0], n_total),
            labels_y=_arrangement(pair[1], n_total),
            value_a_x=values[0], value_a_y=values[1],
            value_b_x=values[2], value_b_y=values[3], exhaustive=True)
        assert report.certify()


class TestSearchKernels:
    @pytest.mark.parametrize("n_total", range(2, 13))
    def test_unranker_is_lexicographic_and_complements_reverse(self, n_total):
        for k in range(1, n_total):
            want = list(itertools.combinations(range(n_total), k))
            got = _combinations_at(np.arange(len(want)),
                                   _count_table(n_total, k))
            assert got.tolist() == [list(c) for c in want], k
            # subset i's complement is the other size's subset C - 1 - i
            others = _combinations_at(np.arange(len(want))[::-1],
                                      _count_table(n_total, n_total - k))
            for subset, other in zip(want, others.tolist()):
                assert sorted(set(range(n_total)) - set(subset)) == other

    def test_numerators_from_either_class_match_the_evaluator(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n_total = int(rng.integers(2, 40))
            n_pos = int(rng.integers(1, n_total))
            metric = parse_metric(_random_metric(rng, n_total))
            den = (n_pos * (n_total - n_pos) if metric.kind == "auc"
                   else n_total if metric.kind == "accuracy"
                   else metric.at * n_pos)
            rows = np.array([rng.permutation(n_total) < n_pos
                             for _ in range(5)], dtype=int)
            evaluate = label_evaluator(metric, n_total, n_pos)
            want = [evaluate(tuple(row)) for row in rows.tolist()]
            for positives in (True, False):
                positions = np.array([np.flatnonzero(row == positives)
                                      for row in rows])
                got = _numerators(metric, positions, n_total, n_pos,
                                  positives)
                assert [Fraction(int(g), den)
                        for g in got] == want, (metric, positives)

    @pytest.mark.parametrize("n_total, n_pos", [(20000, 1), (2000, 1999)])
    def test_scoring_calls_follow_the_smaller_class(self, monkeypatch,
                                                    n_total, n_pos):
        calls = []

        def spy(*args):
            calls.append(args[1].shape)
            return _numerators(*args)

        monkeypatch.setattr(compare, "_numerators", spy)
        assert find_disagreement("auc", "lift@1", n_total, n_pos) is None
        space, k = math.comb(n_total, n_pos), min(n_pos, n_total - n_pos)
        assert len(calls) <= 2 * -(-space * k // compare.CHUNK_CELLS)
        assert sum(rows for rows, _ in calls) == 2 * space


def _random_metric(rng, n_total):
    kind = ("auc", "lift", "accuracy")[int(rng.integers(0, 3))]
    if kind == "auc":
        return kind
    return f"{kind}@{int(rng.integers(1, n_total + 1))}"


class TestDisagreementAgainstOracle:
    def test_exhaustive(self):
        rng = np.random.default_rng(404)
        found = 0
        for _ in range(80):
            n_total = int(rng.integers(2, 15))
            n_pos = int(rng.integers(1, n_total))
            a, b = _random_metric(rng, n_total), _random_metric(rng, n_total)
            got = find_disagreement(a, b, n_total, n_pos)
            assert got == disagreement_oracle(a, b, n_total, n_pos), (a, b, n_total, n_pos)
            found += got is not None
        assert found >= 20

    def test_exhaustive_above_the_lex_refinement_limit(self):
        # C(14, 7) = 3432 arrangements: the reported pair comes from the scan
        for a, b in (("auc", "lift@3"), ("lift@5", "accuracy@9"),
                     ("accuracy@4", "auc")):
            got = find_disagreement(a, b, 14, 7)
            assert got == disagreement_oracle(a, b, 14, 7)

    def test_sampled(self):
        rng = np.random.default_rng(505)
        outcomes = set()
        for trial in range(30):
            n_total = int(rng.integers(16, 30))
            n_pos = int(rng.integers(1, n_total))
            a, b = _random_metric(rng, n_total), _random_metric(rng, n_total)
            budget = int(rng.integers(2, 60))
            try:
                want = disagreement_oracle(a, b, n_total, n_pos,
                                           budget=budget, seed=trial)
            except BudgetExhaustedError:
                with pytest.raises(BudgetExhaustedError):
                    find_disagreement(a, b, n_total, n_pos,
                                      budget=budget, seed=trial)
                outcomes.add("exhausted")
                continue
            if want is None:  # the space fit the budget
                assert find_disagreement(a, b, n_total, n_pos,
                                         budget=budget, seed=trial) is None
                continue
            got = find_disagreement(a, b, n_total, n_pos,
                                    budget=budget, seed=trial)
            assert got == want, (a, b, n_total, n_pos, budget, trial)
            outcomes.add("sampled" if not got.exhaustive else "exhaustive")
        assert {"exhausted", "sampled"} <= outcomes
