from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from gainslift import (ClassifierRun, CostSpec, CurveSeries, RankedTestSet,
                       ScoredRecord, TiePolicy, ValidationError, XKind,
                       accuracy_at, benefit_series, compare_at, cum_benefit,
                       cum_gains, decile_lift, decile_series, emit_curves,
                       example24_records, gains_series, lift, lift_series,
                       n_confusion_matrix, p_cum_gains, random_targeting_rate,
                       random_targeting_series, rank_records,
                       records, render_decimal, render_exact, roc_points)
from gainslift.metrics import (MAX_PLACES, _int_column, _lowest_terms,
                               _product, _sum, cutoff_for)

from helpers import (benefit_series_oracle, curves_csv_oracle,
                     curves_json_oracle, edge_records, gains_series_oracle,
                     lift_series_oracle, prefix_gains, random_instance,
                     records_from_labels, roc_points_oracle)

# the 24-record example: cumulative gains by cutoff, 12 positives total
EXPECTED_GAINS_24 = (1, 2, 3, 4, 5, 6, 7, 7, 8, 9, 10, 10,
                     11, 11, 11, 12, 12, 12, 12, 12, 12, 12, 12, 12)


def _benefit(ranked, n):
    return cum_benefit(ranked, n, CostSpec(q_tp=2, q_fp=-1))


# every single-cutoff measure, with the least cutoff it takes
CUTOFF_MEASURES = [
    (cum_gains, 0), (lambda ranked, n: ranked.positives_in_prefix(n), 0),
    (_benefit, 0), (p_cum_gains, 1), (lift, 1), (n_confusion_matrix, 1),
    (accuracy_at, 1)]
CUTOFF_MEASURE_IDS = ["cum_gains", "positives_in_prefix", "cum_benefit",
                      "p_cum_gains", "lift", "n_confusion_matrix",
                      "accuracy_at"]


def _message(call) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


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

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_series_list_and_single_cutoffs_agree(self, policy):
        """On random tied sets, N = 1..12 (under 10 the cutoffs repeat)
        then larger: the series' y, the list and one `lift` per decile."""
        rng = np.random.default_rng(3110)
        sizes = chain(range(1, 13), rng.integers(13, 120, size=25).tolist())
        for n_total in sizes:
            labels = rng.integers(0, 2, size=n_total)
            labels[rng.integers(0, n_total)] = 1
            scores = rng.integers(0, max(2, n_total // 4), size=n_total)
            ranked = rank_records(records_from_labels(labels, scores), policy)
            want = [lift(ranked, cutoff_for(Fraction(k, 10), n_total))
                    for k in range(1, 11)]
            series = decile_series(ranked)
            assert series.y.fractions() == decile_lift(ranked) == want
            assert series.x.fractions() == list(range(1, 11))


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


class TestNumpyIntegerCutoffs:
    """A cutoff taken from a numpy array is an exact integer: each
    single-cutoff measure gives for it what it gives for the Python int, of
    the same Python type."""

    @staticmethod
    def _measures(ranked, n):
        matrix = n_confusion_matrix(ranked, n)
        return [cum_gains(ranked, n), p_cum_gains(ranked, n), lift(ranked, n),
                accuracy_at(ranked, n),
                cum_benefit(ranked, n, CostSpec(q_tp=2, q_fp=-1)),
                matrix.n, matrix.tp, matrix.fp, ranked.positives_in_prefix(n)]

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_same_values_and_types_as_a_python_int(self, policy, dtype):
        ranked = rank_records(records_from_labels(
            [1, 0, 1, 1, 0, 0, 1, 0], [0.9, 0.5, 0.5, 0.5, 0.2, 0.2, 0.1, 0.0]),
            policy)
        for n in range(1, ranked.n_total + 1):
            want = self._measures(ranked, n)
            got = self._measures(ranked, dtype(n))
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert {type(v) for v in got} <= {int, Fraction}
        for measure, _ in CUTOFF_MEASURES[:3]:
            assert measure(ranked, dtype(0)) == measure(ranked, 0) == 0

    @pytest.mark.parametrize("n", [True, np.bool_(True), 3.0, np.float64(3),
                                   "3", Fraction(3)])
    def test_non_integers_rejected(self, example24, n):
        with pytest.raises(ValidationError,
                           match="cutoff n must be an integer"):
            cum_gains(example24, n)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("measure,minimum", CUTOFF_MEASURES,
                             ids=CUTOFF_MEASURE_IDS)
    @pytest.mark.parametrize("n", [True, np.bool_(True), np.float64(3),
                                   Fraction(3)])
    def test_non_integers_rejected_by_every_measure(self, measure, minimum,
                                                    policy, n):
        ranked = rank_records(example24_records(), policy)
        assert _message(lambda: measure(ranked, n)) == (
            ValidationError, f"cutoff n must be an integer, got {n!r}")

    def test_numpy_cutoff_out_of_range_names_a_plain_int(self, example24):
        with pytest.raises(ValidationError,
                           match=r"^cutoff n=25 out of range \[1, 24\]$"):
            lift(example24, np.int64(25))

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("measure,minimum", CUTOFF_MEASURES,
                             ids=CUTOFF_MEASURE_IDS)
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_numpy_cutoffs_out_of_range_by_every_measure(
            self, measure, minimum, policy, dtype):
        ranked = rank_records(example24_records(), policy)
        for n in (minimum - 1, 25):
            assert _message(lambda: measure(ranked, dtype(n))) == (
                ValidationError,
                f"cutoff n={n} out of range [{minimum}, 24]")


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

    def test_random_targeting_series(self, example24):
        count = random_targeting_series(example24, XKind.COUNT)
        frac = random_targeting_series(example24, XKind.FRACTION)
        assert (count.x_kind, frac.x_kind) == (XKind.COUNT, XKind.FRACTION)
        assert count.points == ((0, 0), (24, 12))
        assert frac.points == ((0, 0), (1, 1))

    @pytest.mark.parametrize("kind", list(XKind))
    def test_random_targeting_series_keeps_its_points(self, kind):
        rng = np.random.default_rng(3111)
        draws = (random_instance(rng, max_n=60) for _ in range(10))
        for records in chain(edge_records(), draws):
            ranked = rank_records(records)
            end = ((ranked.n_total, ranked.n_pos) if kind is XKind.COUNT
                   else (1, 1))
            series = random_targeting_series(ranked, kind, name="r")
            assert series == CurveSeries("r", kind, [(0, 0), end])
            assert series.points == ((0, 0), end)
            assert all(type(v) is Fraction for p in series.points for v in p)

    @pytest.mark.parametrize("text", [k.value for k in XKind])
    def test_an_x_kind_value_text_is_not_an_x_kind(self, example24, text):
        message = f"series 'n': unknown x kind {text!r}"
        with pytest.raises(ValidationError, match=message):
            CurveSeries("n", text, [(1, 1), (2, 3)])
        with pytest.raises(ValidationError, match=message):
            CurveSeries.from_columns("n", text, (np.array([1, 2]), 1),
                                     (np.array([1, 3]), 1))
        with pytest.raises(ValidationError, match=message):
            random_targeting_series(example24, text, name="n")

    def test_points_are_fractions_of_the_columns(self):
        series = CurveSeries("a", XKind.COUNT, [(1, 0.5), (2, 0.1)])
        assert series.points == ((1, Fraction(1, 2)), (2, Fraction(0.1)))
        assert all(type(v) is Fraction for p in series.points for v in p)


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

    def test_places_capped(self):
        # the largest benefit of float costs, at the most places allowed
        value = Fraction(2.0**1023) * 10**9
        assert render_decimal(value, MAX_PLACES) == f"{int(value)}.{'0' * 1000}"
        with pytest.raises(ValidationError, match="places must be <= 1000"):
            render_decimal(Fraction(1, 3), MAX_PLACES + 1)

    def test_exact_rendering(self):
        assert render_exact(Fraction(135, 144)) == "15/16"
        assert render_exact(Fraction(7, 1)) == "7"
        assert render_exact(3) == "3"


class TestSeriesKernelsAgainstOracles:
    """The array kernels against the per-cutoff `Fraction` routes they
    replaced: equal points, and equal bytes once serialized."""

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_random_tied_inputs(self, policy):
        """Random tied sets, after the fixed `EDGE_SETS`; each kernel runs
        where its measure is defined (lift needs a positive, ROC both
        classes)."""
        rng = np.random.default_rng(2024)
        draws = (random_instance(rng, max_n=80, tie_prob=0.5)
                 for _ in range(60))
        for records in chain(edge_records(), draws):
            ranked = rank_records(records, policy)
            pairs = [(gains_series(ranked), gains_series_oracle(ranked))]
            if ranked.n_pos:
                pairs += [
                    (gains_series(ranked, fraction=True),
                     gains_series_oracle(ranked, fraction=True)),
                    (lift_series(ranked), lift_series_oracle(ranked)),
                    (lift_series(ranked, fraction=False),
                     lift_series_oracle(ranked, fraction=False))]
            if ranked.n_pos and ranked.n_neg:
                pairs.append((roc_points(ranked), roc_points_oracle(ranked)))
            for fast, slow in pairs:
                assert fast.points == slow.points
                assert all(type(v) is Fraction for p in fast.points for v in p)
                assert (emit_curves([fast], format="json")
                        == curves_json_oracle([slow]))
                assert (emit_curves([fast], format="csv")
                        == curves_csv_oracle([slow]))

    # costs whose exact ratios pass int64 (1e-300 has a 2**1049 denominator,
    # 1e300 a 997-bit numerator, 5e-324 a 2**1074 one, so that the
    # denominator b*d is a Python int past int64; 2**-63, and 2**-40 with
    # 2**-23, make b*d exactly 2**63, which numpy reads as uint64), zero
    # costs, and the usual float and integer ones
    BENEFIT_COSTS = [(10, -1), (0.1, -0.3), (1, -0.2), (5.0, -1.0),
                     (1e-300, -7.5), (1e300, 3), (0, 0), (-2.5, 0.125),
                     (5e-324, -1e308), (1e308, -1e308),
                     (2**-63, 0), (0, 2**-63), (2**-40, 2**-23)]

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_benefit_random_tied_inputs(self, policy):
        rng = np.random.default_rng(2025)
        draws = (random_instance(rng, max_n=60, tie_prob=0.5)
                 for _ in range(40))
        for records in chain(edge_records(), draws):
            ranked = rank_records(records, policy)
            for q_tp, q_fp in self.BENEFIT_COSTS:
                costs = CostSpec(q_tp=q_tp, q_fp=q_fp)
                fast = benefit_series(ranked, costs)
                slow = benefit_series_oracle(ranked, costs)
                assert fast == slow
                assert fast.points == slow.points
                for format, oracle in (("json", curves_json_oracle),
                                       ("csv", curves_csv_oracle)):
                    try:
                        want = oracle([slow])
                    except OverflowError:  # a value past the float range
                        with pytest.raises(ValidationError,
                                           match="beyond the float range"):
                            emit_curves([fast], format=format)
                    else:
                        assert emit_curves([fast], format=format) == want

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
        # a scalar past int64 times a column that fits, even a zero one
        assert _product(np.zeros(3, np.int64), 2**70).tolist() == [0, 0, 0]
        assert _product(2**70, big[:2]).tolist() == [2**110, 3 * 2**70]
        assert _sum(big, 2**62).tolist() == [2**62 + 2**40, 2**62 + 3, 2**63]
        assert _sum(big[:2], 2**62).dtype == np.int64
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

    # factors that leave each pair out of lowest terms; times 3**25 some
    # values, and times 3**50 all, pass int64 and take the Python-int route
    UNREDUCED_BY = (1, 6, 3**25, 3**50)

    def test_from_columns_reduces_raw_pairs(self):
        rng = np.random.default_rng(3112)
        for length in (1, 2, 7, 40):
            x = sorted({Fraction(int(v), 97)
                        for v in rng.integers(1, 10**4, size=length)})
            y = [Fraction(int(a), int(b)) for a, b in zip(
                rng.integers(-10**8, 10**8, size=len(x)),
                rng.integers(1, 10**8, size=len(x)))]
            want = CurveSeries("s", XKind.FRACTION, zip(x, y))
            for k in self.UNREDUCED_BY:
                x_pairs, y_pairs = (
                    tuple(_int_column([getattr(v, part) * k for v in values])
                          for part in ("numerator", "denominator"))
                    for values in (x, y))
                got = CurveSeries.from_columns("s", XKind.FRACTION,
                                               x_pairs, y_pairs)
                assert got == want and got.points == want.points
                assert emit_curves([got]) == emit_curves([want])
                assert (emit_curves([got], format="json")
                        == emit_curves([want], format="json"))

    def test_from_columns_takes_one_denominator_for_all(self):
        counts = range(1, 31)
        whole = [-(3**40), 0, 2**62, 5] * 7 + [1, 2]
        want = CurveSeries("s", XKind.FRACTION,
                           zip((Fraction(c, 30) for c in counts), whole))
        for k in self.UNREDUCED_BY:
            got = CurveSeries.from_columns(
                "s", XKind.FRACTION,
                (_int_column([c * k for c in counts]), 30 * k),
                (_int_column([v * k for v in whole]), k))
            assert got == want and got.points == want.points
            assert emit_curves([got]) == emit_curves([want])

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_kernels_reduce_unreduced_gains(self, monkeypatch, policy):
        """Every column-built series and list of lifts is the same when the
        gains kernel hands out each num/den times 3**25."""
        rng = np.random.default_rng(3113)
        sets = [rank_records(r, policy) for r in chain(
            edge_records(), (random_instance(rng, max_n=40, tie_prob=0.5)
                             for _ in range(10)))]
        sets = [r for r in sets if r.n_pos]
        costs = CostSpec(q_tp=0.1, q_fp=-0.3)

        def outputs(ranked):
            return [gains_series(ranked), gains_series(ranked, fraction=True),
                    lift_series(ranked), lift_series(ranked, fraction=False),
                    benefit_series(ranked, costs), decile_series(ranked),
                    decile_lift(ranked)] + ([roc_points(ranked)]
                                            if ranked.n_neg else [])

        want = [outputs(r) for r in sets]
        tables = [compare_at([ClassifierRun("a", r), ClassifierRun("b", r)],
                             range(1, r.n_total + 1)) for r in sets]
        gains_at = RankedTestSet._gains_at

        def unreduced(ranked, cutoffs):
            num, den = gains_at(ranked, cutoffs)
            return num * 3**25, den * 3**25

        monkeypatch.setattr(RankedTestSet, "_gains_at", unreduced)
        assert [outputs(r) for r in sets] == want
        assert [compare_at([ClassifierRun("a", r), ClassifierRun("b", r)],
                           range(1, r.n_total + 1)) for r in sets] == tables

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
    @pytest.mark.parametrize("measure", [
        cum_gains, lift, lambda ranked, n: ranked.positives_in_prefix(n),
        p_cum_gains, n_confusion_matrix, _benefit, accuracy_at])
    def test_non_integer_cutoff_rejected(self, example24, measure, n):
        with pytest.raises(ValidationError,
                           match=f"cutoff n must be an integer, got {n!r}"):
            measure(example24, n)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("measure,minimum", CUTOFF_MEASURES,
                             ids=CUTOFF_MEASURE_IDS)
    def test_exact_messages(self, measure, minimum, policy):
        """The class and exact text of each rejection, a numpy cutoff's
        named as a plain int."""
        ranked = rank_records(example24_records(), policy)
        span = f"[{minimum}, 24]"
        cases = [(True, "cutoff n must be an integer, got True"),
                 (2.0, "cutoff n must be an integer, got 2.0"),
                 ("3", "cutoff n must be an integer, got '3'"),
                 (None, "cutoff n must be an integer, got None"),
                 (-1, f"cutoff n=-1 out of range {span}"),
                 (25, f"cutoff n=25 out of range {span}"),
                 (np.int64(25), f"cutoff n=25 out of range {span}")]
        if minimum:
            cases.append((0, f"cutoff n=0 out of range {span}"))
        for n, message in cases:
            assert _message(lambda: measure(ranked, n)) == (
                ValidationError, message)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("measure,minimum", CUTOFF_MEASURES,
                             ids=CUTOFF_MEASURE_IDS)
    def test_no_positives(self, measure, minimum, policy):
        """On a set with no positives the ratios name the missing
        positives, but only once the cutoff has passed its check."""
        ranked = rank_records(records_from_labels(
            [0] * 6, [0.9, 0.5, 0.5, 0.5, 0.2, 0.1]), policy)
        undefined = {p_cum_gains: "p_cum_gains", lift: "lift"}.get(measure)
        for n in range(minimum, 7):
            if undefined:
                assert _message(lambda: measure(ranked, n)) == (
                    ValidationError,
                    f"{undefined} undefined: the set has no positives")
            else:
                measure(ranked, n)
        for n, message in [
                (minimum - 1, f"cutoff n={minimum - 1} out of range "
                              f"[{minimum}, 6]"),
                (7, f"cutoff n=7 out of range [{minimum}, 6]"),
                ("3", "cutoff n must be an integer, got '3'")]:
            assert _message(lambda: measure(ranked, n)) == (
                ValidationError, message)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_compare_at_no_positives_after_its_target_checks(self, policy):
        ranked = rank_records(records_from_labels([0] * 5), policy)
        runs = [ClassifierRun("a", ranked), ClassifierRun("b", ranked)]
        for targets, message in [
                ([], "no target cutoffs given"),
                ([2, 0], "target n=0 out of range [1, 5]"),
                ([6], "target n=6 out of range [1, 5]"),
                ([2, "3"], "cutoff n must be an integer, got '3'"),
                ([3, 1, 3], "repeated target n=3"),
                ([3, 1], "lift undefined: the set has no positives")]:
            assert _message(lambda: compare_at(runs, targets)) == (
                ValidationError, message)
        assert _message(lambda: decile_lift(ranked)) == (
            ValidationError, "decile lift undefined: the set has no positives")


class TestMultiCutoffMeasures:
    """`decile_lift` and `compare_at` give at each cutoff what `lift` and
    `cum_gains` give there, value and Python type alike."""

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_random_tied_sets_match_single_cutoffs(self, policy):
        rng = np.random.default_rng(2323)
        for _ in range(60):
            records = random_instance(rng, max_n=40, tie_prob=0.6)
            ranked = rank_records(records, policy)
            n_total = ranked.n_total
            deciles = decile_lift(ranked)
            want = [lift(ranked, cutoff_for(Fraction(k, 10), n_total))
                    for k in range(1, 11)]
            assert deciles == want
            assert [type(v) for v in deciles] == [type(v) for v in want]
            # a second run: the same labels under other scores
            scores = [r.score for r in records]
            rng.shuffle(scores)
            other = rank_records([ScoredRecord(r.id, s, r.label)
                                  for r, s in zip(records, scores)], policy)
            runs = [ClassifierRun("a", ranked), ClassifierRun("b", other)]
            targets = rng.permutation(np.arange(1, n_total + 1))[
                :int(rng.integers(1, n_total + 1))]
            table = compare_at(runs, targets)
            assert [(e.run, e.n) for e in table.entries] == [
                (run.name, n) for n in targets.tolist() for run in runs]
            for entry, run in zip(table.entries, runs * len(targets)):
                gains = cum_gains(run.ranked, entry.n)
                value = lift(run.ranked, entry.n)
                assert (entry.cum_gains, entry.lift) == (gains, value)
                assert type(entry.cum_gains) is type(gains)
                assert type(entry.n) is int and type(entry.lift) is Fraction


class TestOneReadPerCutoff:
    """A single-cutoff measure checks its cutoff once; `decile_lift` and
    `compare_at` read all their cutoffs in one kernel call per ranked set."""

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("measure,minimum", CUTOFF_MEASURES,
                             ids=CUTOFF_MEASURE_IDS)
    def test_each_cutoff_checked_once(self, monkeypatch, measure, minimum,
                                      policy):
        checked = []
        real = records._integer_cutoff

        def spy(n):
            checked.append(n)
            return real(n)

        monkeypatch.setattr(records, "_integer_cutoff", spy)
        ranked = rank_records(example24_records(), policy)
        for n in (1, 12, np.int64(24)):
            checked.clear()
            measure(ranked, n)
            assert checked == [n]

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_one_kernel_call_per_ranked_set(self, monkeypatch, policy):
        reads = []
        real = RankedTestSet._gains_at

        def spy(ranked, cutoffs):
            reads.append(ranked)
            return real(ranked, cutoffs)

        monkeypatch.setattr(RankedTestSet, "_gains_at", spy)
        a = rank_records(example24_records(), policy)
        b = rank_records(example24_records()[::-1], policy)
        decile_lift(a)
        assert reads == [a]
        reads.clear()
        compare_at([ClassifierRun("a", a), ClassifierRun("b", b)], [3, 12, 6])
        assert reads == [a, b]


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
