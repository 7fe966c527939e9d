from fractions import Fraction

import numpy as np
import pytest

from gainslift import (CostSpec, CurveSeries, ScoredRecord, TiePolicy,
                       ValidationError, XKind, cum_benefit, cum_gains,
                       decile_lift, emit_curves, gains_series, lift,
                       lift_series, n_confusion_matrix, p_cum_gains,
                       random_targeting_rate, rank_records, render_decimal,
                       render_exact, roc_points)
from gainslift.metrics import _lowest_terms, _product, cutoff_for

from helpers import (curves_csv_oracle, curves_json_oracle,
                     gains_series_oracle, lift_series_oracle, prefix_gains,
                     random_instance, records_from_labels, roc_points_oracle)

# the 24-record example: cumulative gains by cutoff, 12 positives total
EXPECTED_GAINS_24 = (1, 2, 3, 4, 5, 6, 7, 7, 8, 9, 10, 10,
                     11, 11, 11, 12, 12, 12, 12, 12, 12, 12, 12, 12)


class TestCumGains:
    def test_example24_column(self, example24):
        assert tuple(cum_gains(example24, n) for n in range(1, 25)) == EXPECTED_GAINS_24

    def test_zero_prefix(self, example24):
        assert cum_gains(example24, 0) == 0

    def test_full_prefix_equals_positive_count(self, example24):
        assert cum_gains(example24, 24) == 12

    def test_out_of_range(self, example24):
        with pytest.raises(ValidationError):
            cum_gains(example24, 25)
        with pytest.raises(ValidationError):
            cum_gains(example24, -1)

    def test_matches_prefix_oracle_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            records = random_instance(rng, max_n=60)
            ranked = rank_records(records)
            labels = ranked.labels
            for n in range(ranked.n_total + 1):
                assert cum_gains(ranked, n) == prefix_gains(labels, n)

    def test_monotone_with_unit_steps(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            ranked = rank_records(random_instance(rng, max_n=80))
            values = [cum_gains(ranked, n) for n in range(ranked.n_total + 1)]
            steps = {b - a for a, b in zip(values, values[1:])}
            assert steps <= {0, 1}


class TestPCumGains:
    def test_example24_values(self, example24):
        assert p_cum_gains(example24, 12) == Fraction(5, 6)
        assert p_cum_gains(example24, 1) == Fraction(1, 12)
        assert render_decimal(p_cum_gains(example24, 12)) == "0.83333"
        assert render_decimal(p_cum_gains(example24, 1)) == "0.08333"

    def test_terminal_value_is_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            ranked = rank_records(random_instance(rng, max_n=40))
            assert p_cum_gains(ranked, ranked.n_total) == 1

    def test_no_positives_rejected(self):
        ranked = rank_records(records_from_labels([0, 0, 0]))
        with pytest.raises(ValidationError, match="no positives"):
            p_cum_gains(ranked, 1)

    def test_rejects_n_zero(self, example24):
        with pytest.raises(ValidationError):
            p_cum_gains(example24, 0)

    def test_equals_cutoff_sensitivity(self):
        # predicting the top n positive gives sensitivity tp_n / n_pos
        rng = np.random.default_rng(14)
        for _ in range(25):
            ranked = rank_records(random_instance(rng, max_n=50))
            for n in range(1, ranked.n_total + 1):
                tp = cum_gains(ranked, n)
                sensitivity = Fraction(tp, ranked.n_pos)
                assert p_cum_gains(ranked, n) == sensitivity


class TestLift:
    def test_example24_values(self, example24):
        assert lift(example24, 12) == Fraction(5, 3)
        assert render_decimal(lift(example24, 12)) == "1.66667"
        assert lift(example24, 1) == 2

    def test_terminal_lift_is_one(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            ranked = rank_records(random_instance(rng, max_n=40))
            assert lift(ranked, ranked.n_total) == 1

    def test_rejects_n_zero(self, example24):
        with pytest.raises(ValidationError):
            lift(example24, 0)

    def test_ratio_identity(self):
        # lift(n) = p_cum_gains(n) / (n/N), exactly
        rng = np.random.default_rng(16)
        for _ in range(25):
            ranked = rank_records(random_instance(rng, max_n=50))
            n_total = ranked.n_total
            for n in range(1, n_total + 1):
                assert lift(ranked, n) == p_cum_gains(ranked, n) / Fraction(n, n_total)

    def test_perfect_classifier_lift(self):
        labels = [1] * 4 + [0] * 8
        ranked = rank_records(records_from_labels(labels))
        for n in range(1, 5):
            assert lift(ranked, n) == Fraction(12, 4)
        assert p_cum_gains(ranked, 4) == 1


class TestDecileLift:
    def test_example24_deciles(self, example24):
        values = decile_lift(example24)
        assert values[0] == 2          # ceil(2.4) = 3 records, all positive... gains 3
        assert values[-1] == 1
        assert [render_decimal(v) for v in values] == [
            "2.00000", "2.00000", "1.75000", "1.80000", "1.66667",
            "1.46667", "1.41176", "1.20000", "1.09091", "1.00000"]

    def test_all_positive_set(self):
        ranked = rank_records(records_from_labels([1] * 20))
        assert decile_lift(ranked) == [1] * 10

    def test_cutoffs_are_ceilings(self):
        ranked = rank_records(records_from_labels([1, 0] * 12))
        # N=24: decile k targets ceil(2.4k) records
        values = decile_lift(ranked)
        assert values[0] == lift(ranked, 3)
        assert values[4] == lift(ranked, 12)


class TestCumBenefit:
    def test_example24_value(self, example24):
        assert cum_benefit(example24, 8, CostSpec(q_tp=10, q_fp=-1)) == 69

    def test_reduces_to_gains(self, example24):
        costs = CostSpec(q_tp=1, q_fp=0)
        for n in range(25):
            assert cum_benefit(example24, n, costs) == cum_gains(example24, n)

    def test_zero_prefix(self, example24):
        assert cum_benefit(example24, 0, CostSpec(5.0, -2.0)) == 0

    def test_rejects_non_finite_costs(self):
        with pytest.raises(ValidationError):
            CostSpec(q_tp=float("nan"), q_fp=0.0)


class TestNConfusion:
    def test_example24_cutoff8(self, example24):
        m = n_confusion_matrix(example24, 8)
        assert (m.tp, m.fp, m.fn, m.tn) == (7, 1, 0, 0)

    def test_single_record_prefix(self, example24):
        m = n_confusion_matrix(example24, 1)
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 0, 0, 0)

    def test_full_set(self, example24):
        m = n_confusion_matrix(example24, 24)
        assert (m.tp, m.fp) == (12, 12)

    def test_row_sum_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            ranked = rank_records(random_instance(rng, max_n=50))
            for n in range(1, ranked.n_total + 1):
                m = n_confusion_matrix(ranked, n)
                assert m.tp + m.fp == n
                assert m.fn == 0 and m.tn == 0


class TestTailPermutation:
    def test_tail_shuffle_leaves_prefix_measures_alone(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            ranked = rank_records(random_instance(rng, max_n=40))
            n_cut = int(rng.integers(1, ranked.n_total))
            labels = list(ranked.labels)
            tail = labels[n_cut:]
            rng.shuffle(tail)
            shuffled = rank_records(
                records_from_labels(labels[:n_cut] + tail,
                                    [r.score for r in ranked.records]))
            for m in range(1, n_cut + 1):
                assert cum_gains(shuffled, m) == cum_gains(ranked, m)
                assert p_cum_gains(shuffled, m) == p_cum_gains(ranked, m)
                assert lift(shuffled, m) == lift(ranked, m)


class TestExpectedValuePolicy:
    def test_fractional_gains_inside_ties(self):
        records = records_from_labels([1, 0, 1, 0], [3.0, 2.0, 2.0, 2.0])
        ranked = rank_records(records, TiePolicy.EXPECTED_VALUE)
        assert cum_gains(ranked, 2) == 1 + Fraction(1, 3)
        assert lift(ranked, 2) == Fraction(4, 3) * Fraction(4, 2 * 2)

    def test_series_carry_fractions(self):
        records = records_from_labels([1, 0, 1, 0], [3.0, 2.0, 2.0, 2.0])
        ranked = rank_records(records, TiePolicy.EXPECTED_VALUE)
        series = gains_series(ranked)
        assert series.points[1][1] == Fraction(4, 3)


class TestSeries:
    def test_gains_series_shapes(self, example24):
        count = gains_series(example24)
        frac = gains_series(example24, fraction=True)
        assert len(count.points) == 24
        assert count.points[7] == (8, 7)
        assert frac.points[11] == (Fraction(1, 2), Fraction(5, 6))

    def test_lift_series_terminal(self, example24):
        series = lift_series(example24)
        assert series.points[-1] == (1, 1)

    def test_baseline_rate(self, example24):
        assert random_targeting_rate(example24) == Fraction(1, 2)


class TestRendering:
    @pytest.mark.parametrize("value,places,expected", [
        (Fraction(5, 6), 5, "0.83333"),
        (Fraction(1, 12), 5, "0.08333"),
        (Fraction(135, 144), 5, "0.93750"),
        (Fraction(135, 144), 3, "0.938"),
        (Fraction(137, 144), 3, "0.951"),
        (Fraction(5, 3), 5, "1.66667"),
        (Fraction(-1, 8), 2, "-0.13"),
        (Fraction(1, 2), 0, "1"),
        (7, 5, "7.00000"),
        (0.25, 2, "0.25"),
    ])
    def test_half_up_rendering(self, value, places, expected):
        assert render_decimal(value, places) == expected

    def test_negative_places_rejected(self):
        with pytest.raises(ValidationError, match="places must be >= 0"):
            render_decimal(Fraction(1, 3), -1)

    def test_exact_rendering(self):
        assert render_exact(Fraction(135, 144)) == "15/16"
        assert render_exact(Fraction(7, 1)) == "7"
        assert render_exact(3) == "3"


class TestSeriesKernelsAgainstOracles:
    """The array kernels against the per-cutoff `Fraction` routes they
    replaced: equal points, and equal bytes once serialized."""

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_random_tied_inputs(self, policy):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            ranked = rank_records(random_instance(rng, max_n=80, tie_prob=0.5),
                                  policy)
            pairs = [
                (gains_series(ranked), gains_series_oracle(ranked)),
                (gains_series(ranked, fraction=True),
                 gains_series_oracle(ranked, fraction=True)),
                (lift_series(ranked), lift_series_oracle(ranked)),
                (lift_series(ranked, fraction=False),
                 lift_series_oracle(ranked, fraction=False)),
                (roc_points(ranked), roc_points_oracle(ranked)),
            ]
            for fast, slow in pairs:
                assert fast.points == slow.points
                assert all(type(v) is Fraction for p in fast.points for v in p)
                assert (emit_curves([fast], format="json")
                        == curves_json_oracle([slow]))
                assert (emit_curves([fast], format="csv")
                        == curves_csv_oracle([slow]))

    def test_expected_lift_beyond_float_precision(self):
        # 180,001 untied positives ahead of one tie group of 180,007 (a
        # prime) records: inside the group the exact lift has numerators
        # and denominators above 2**53, where one float64 division of the
        # two would round twice
        head, size = 180_001, 180_007
        scores = np.concatenate([np.arange(head, 0, -1) + 1.0, np.zeros(size)])
        labels = np.concatenate([np.ones(head, dtype=int),
                                 (np.arange(size) % 7 == 0).astype(int)])
        records = list(map(ScoredRecord, map(str, range(head + size)),
                           scores.tolist(), labels.tolist()))
        ranked = rank_records(records, TiePolicy.EXPECTED_VALUE)
        series = lift_series(ranked)
        num, den = series.y.num, series.y.den
        wide = np.flatnonzero((num > 2**53) | (den > 2**53))
        floats = series.y.floats()
        rounded_twice = wide[num[wide] / den[wide] != floats[wide]]
        assert wide.size > 10_000 and rounded_twice.size > 1_000
        texts = series.y.texts()
        for i in np.concatenate([rounded_twice[::50], wide[::500]]).tolist():
            exact = lift(ranked, i + 1)
            assert floats[i] == float(exact)
            assert texts[i] == f"{exact.numerator}/{exact.denominator}"

    def test_products_past_int64_never_wrap(self):
        big = np.array([2**40, 3, 2**62], dtype=np.int64)
        product = _product(big, np.array([2**30, 5, 2], dtype=np.int64))
        assert product.tolist() == [2**70, 15, 2**63]
        assert _product(big, 2**21).tolist() == [2**61, 3 * 2**21, 2**83]
        assert _product(big[:2], 4).dtype == np.int64
        num, den = _lowest_terms(product, np.array([2**35, 10, 3], dtype=np.int64))
        assert num.tolist() == [2**35, 3, 2**63]
        assert den.tolist() == [1, 2, 3]

    def test_series_of_huge_rationals_serialize_exactly(self):
        points = ((Fraction(1), Fraction(2**80 + 1, 3)),
                  (Fraction(2), Fraction(3, 2**70 + 7)),
                  (Fraction(3), Fraction(-(2**64), 2**66 + 1)),
                  (Fraction(4), Fraction(5, 7)))
        series = CurveSeries(name="huge", x_kind=XKind.COUNT, points=points)
        assert series.y.num.dtype == object
        assert emit_curves([series], format="json") == curves_json_oracle([series])
        assert emit_curves([series], format="csv") == curves_csv_oracle([series])

    def test_points_built_on_first_access(self, example24):
        series = lift_series(example24)
        assert series._points is None
        assert series.points is series.points
        assert len(series) == 24

    def test_no_positives_rejected(self):
        ranked = rank_records(records_from_labels([0, 0, 0]))
        with pytest.raises(ValidationError, match="no positives"):
            lift_series(ranked)
        with pytest.raises(ValidationError, match="no positives"):
            gains_series(ranked, fraction=True)


class TestCutoffType:
    @pytest.mark.parametrize("n", [2.0, "3", True, None])
    @pytest.mark.parametrize("measure", [cum_gains, lift])
    def test_non_integer_cutoff_rejected(self, example24, measure, n):
        with pytest.raises(ValidationError,
                           match=f"cutoff n must be an integer, got {n!r}"):
            measure(example24, n)


class TestCutoffFor:
    @pytest.mark.parametrize("share,n_total,expected", [
        (Fraction("0.07"), 20_000, 1_400),  # 0.07 * 20000 is 1400.0000000000002
        (Fraction("0.07"), 100, 7),
        (Fraction(1, 10), 24, 3),
        (Fraction(1, 3), 9, 3),
        (Fraction(1, 3), 10, 4),
        (Fraction(1), 7, 7),
    ])
    def test_exact_ceiling(self, share, n_total, expected):
        assert cutoff_for(share, n_total) == expected
