import dataclasses
import hashlib

import numpy as np
import pytest

from gainslift import (InfeasibleError, RegularityOutcome, ResamplePlan,
                       ScoredRecord, ValidationError, auc_pairs, rank_records,
                       regularity_check, run_plan, stratified_sample,
                       summary_to_json, synthetic_scorer)
from gainslift import resample
from gainslift.resample import SEPARATION_AUC_090, _positives_for

from helpers import records_from_labels, run_plan_oracle


@pytest.fixture(scope="module")
def small_pool():
    # 12% positives, clearly better than random
    return synthetic_scorer(1200, 8800, separation=SEPARATION_AUC_090, seed=99)


class TestStratifiedSample:
    def test_exact_composition(self):
        pool = records_from_labels([1] * 50 + [0] * 50)
        sample = stratified_sample(pool, rate=0.2, size=50, seed=1)
        assert len(sample) == 50
        assert sum(r.label for r in sample) == 10

    def test_half_up_positive_count(self):
        assert _positives_for(0.05, 5000) == 250
        assert _positives_for(0.117, 5000) == 585
        assert _positives_for(0.25, 10) == 3  # 2.5 rounds up
        assert _positives_for(0.5, 5) == 3    # 2.5 rounds up

    def test_boundary_rate_rejected(self):
        pool = records_from_labels([1] * 50 + [0] * 50)
        for rate in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                stratified_sample(pool, rate=rate, size=10, seed=1)

    def test_determinism(self):
        pool = records_from_labels([i % 3 == 0 for i in range(300)])
        first = stratified_sample(pool, rate=0.3, size=40, seed=11)
        second = stratified_sample(pool, rate=0.3, size=40, seed=11)
        other = stratified_sample(pool, rate=0.3, size=40, seed=12)
        assert [r.id for r in first] == [r.id for r in second]
        assert [r.id for r in first] != [r.id for r in other]
        assert sum(r.label for r in other) == sum(r.label for r in first) == 12

    def test_no_duplicates_within_sample(self):
        pool = records_from_labels([1] * 30 + [0] * 30)
        sample = stratified_sample(pool, rate=0.5, size=40, seed=5)
        ids = [r.id for r in sample]
        assert len(set(ids)) == len(ids)

    def test_infeasible_pool(self):
        pool = records_from_labels([1] * 3 + [0] * 50)
        with pytest.raises(InfeasibleError, match="positives"):
            stratified_sample(pool, rate=0.5, size=20, seed=1)


class TestPlanValidation:
    def test_rejects_empty_rates(self):
        with pytest.raises(ValidationError):
            ResamplePlan(target_rates=(), replicate_count=5,
                         sample_size=100, seed=0)

    def test_rejects_boundary_rate(self):
        with pytest.raises(ValidationError):
            ResamplePlan(target_rates=(1.0,), replicate_count=5,
                         sample_size=100, seed=0)

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValidationError):
            ResamplePlan(target_rates=(0.2,), replicate_count=5,
                         sample_size=9, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            ResamplePlan(target_rates=(0.2,), replicate_count=5,
                         sample_size=100, seed=-1)


class TestRunPlan:
    def test_band_shape_and_ordering(self, small_pool):
        plan = ResamplePlan(target_rates=(0.05, 0.2), replicate_count=5,
                            sample_size=500, seed=21)
        summary = run_plan(small_pool, plan)
        assert len(summary.grid) == 100
        assert summary.grid[-1] == 1.0
        for band in summary.bands:
            for stats in (band.p_cum_gains, band.lift):
                assert len(stats.mean) == 100
                for lo, mid, hi in zip(stats.min, stats.mean, stats.max):
                    assert lo <= mid + 1e-12 and mid <= hi + 1e-12

    def test_single_replicate_collapses_bands(self, small_pool):
        plan = ResamplePlan(target_rates=(0.1,), replicate_count=1,
                            sample_size=200, seed=3)
        summary = run_plan(small_pool, plan)
        band = summary.bands[0]
        assert band.lift.min == band.lift.mean == band.lift.max

    def test_terminal_lift_exactly_one(self, small_pool):
        plan = ResamplePlan(target_rates=(0.1, 0.2), replicate_count=4,
                            sample_size=300, seed=4)
        summary = run_plan(small_pool, plan)
        for band in summary.bands:
            assert band.lift.min[-1] == 1.0
            assert band.lift.max[-1] == 1.0
            assert band.p_cum_gains.min[-1] == 1.0

    def test_determinism_across_runs(self, small_pool):
        plan = ResamplePlan(target_rates=(0.08, 0.15), replicate_count=3,
                            sample_size=250, seed=77)
        first = run_plan(small_pool, plan)
        second = run_plan(small_pool, plan)
        assert first == second

    def test_infeasible_rate_names_offender(self, small_pool):
        plan = ResamplePlan(target_rates=(0.05, 0.9), replicate_count=2,
                            sample_size=5000, seed=0)
        with pytest.raises(InfeasibleError, match="0.9"):
            run_plan(small_pool, plan)

    def test_huge_size_is_infeasible_before_the_grid(self):
        pool = records_from_labels([1] * 12 + [0] * 12)
        plan = ResamplePlan(target_rates=(0.3,), replicate_count=1,
                            sample_size=10**20, seed=0)
        with pytest.raises(InfeasibleError) as info:
            run_plan(pool, plan)
        want = _positives_for(0.3, 10**20)  # 0.3 as its exact binary value
        assert str(info.value) == (
            f"rate 0.3 at size {10**20} needs {want} positives and "
            f"{10**20 - want} negatives; pool has 12/12")

    @pytest.mark.parametrize("rates, message", [
        ((0.9, 0.01), "rate 0.9 at size 10 needs 9 positives"),
        ((0.01, 0.9), "rate 0.01 at size 10 leaves no records"),
        ((0.2, 0.9), "rate 0.9 at size 10 needs 9 positives"),
    ])
    def test_rates_checked_in_order_before_any_draw(self, monkeypatch,
                                                    rates, message):
        pool = records_from_labels([1] * 3 + [0] * 50)
        plan = ResamplePlan(target_rates=rates, replicate_count=2,
                            sample_size=10, seed=0)
        draws = []
        monkeypatch.setattr(resample, "_draw",
                            lambda *args: draws.append(args))
        with pytest.raises(InfeasibleError, match=message):
            run_plan(pool, plan)
        assert draws == []

    def test_realized_rate_reported(self, small_pool):
        plan = ResamplePlan(target_rates=(0.117,), replicate_count=2,
                            sample_size=400, seed=9)
        band = run_plan(small_pool, plan).bands[0]
        assert band.n_pos == _positives_for(0.117, 400)
        assert band.realized_rate == band.n_pos / 400

    def test_mean_band_stabilizes_with_more_replicates(self, small_pool):
        # two independent runs of the same plan differ less in their mean
        # curves when each uses more replicates (majority vote over 3 trials,
        # differences averaged across the early grid points)
        shrank = 0
        for trial in range(3):
            diffs = {}
            for reps in (5, 80):
                means = []
                for seed in (1000 + trial, 2000 + trial):
                    plan = ResamplePlan(target_rates=(0.1,),
                                        replicate_count=reps,
                                        sample_size=300, seed=seed)
                    band = run_plan(small_pool, plan).bands[0]
                    means.append(np.array(band.lift.mean[1:20]))
                diffs[reps] = float(np.mean(np.abs(means[0] - means[1])))
            if diffs[80] < diffs[5]:
                shrank += 1
        assert shrank >= 2


class TestRegularity:
    def test_ordering_on_good_scorer(self, small_pool):
        plan = ResamplePlan(target_rates=(0.05, 0.117, 0.2),
                            replicate_count=20, sample_size=1000, seed=55)
        summary = run_plan(small_pool, plan)
        verdict = regularity_check(summary, small_fraction=0.05)
        assert verdict.outcome is RegularityOutcome.HOLDS
        assert verdict.lift_means[0] > verdict.lift_means[1] > verdict.lift_means[2]
        assert all(a > 0.85 for a in verdict.auc_means)

    def test_ordering_across_small_fractions(self, small_pool):
        plan = ResamplePlan(target_rates=(0.05, 0.117, 0.2),
                            replicate_count=20, sample_size=1000, seed=56)
        summary = run_plan(small_pool, plan)
        for k in range(1, 11):  # fractions 0.01 .. 0.10
            verdict = regularity_check(summary, small_fraction=k / 100)
            assert verdict.outcome is RegularityOutcome.HOLDS

    def test_random_scorer_not_applicable(self):
        pool = synthetic_scorer(1500, 8500, separation=0.0, seed=7)
        plan = ResamplePlan(target_rates=(0.05, 0.15), replicate_count=10,
                            sample_size=600, seed=8)
        verdict = regularity_check(run_plan(pool, plan))
        assert verdict.outcome is RegularityOutcome.NOT_APPLICABLE

    def test_rising_lift_violates(self, small_pool):
        plan = ResamplePlan(target_rates=(0.05, 0.117, 0.2),
                            replicate_count=20, sample_size=1000, seed=55)
        summary = run_plan(small_pool, plan)
        # hand the rarest rate the commonest rate's lift band and back
        lifts = [band.lift for band in summary.bands][::-1]
        bands = tuple(dataclasses.replace(band, lift=lift)
                      for band, lift in zip(summary.bands, lifts))
        verdict = regularity_check(dataclasses.replace(summary, bands=bands))
        assert verdict.outcome is RegularityOutcome.VIOLATED
        assert verdict.lift_means[0] < verdict.lift_means[2]

    def test_single_rate_rejected(self, small_pool):
        plan = ResamplePlan(target_rates=(0.1,), replicate_count=2,
                            sample_size=200, seed=1)
        with pytest.raises(ValidationError, match="two rates"):
            regularity_check(run_plan(small_pool, plan))

    def test_missing_grid_point(self, small_pool):
        plan = ResamplePlan(target_rates=(0.05, 0.2), replicate_count=2,
                            sample_size=200, seed=1)
        with pytest.raises(ValidationError, match="grid point"):
            regularity_check(run_plan(small_pool, plan), small_fraction=0.123)


class TestBandFor:
    def test_found_and_missing(self, small_pool):
        plan = ResamplePlan(target_rates=(0.05, 0.2), replicate_count=2,
                            sample_size=200, seed=1)
        summary = run_plan(small_pool, plan)
        assert summary.band_for(0.2) is summary.bands[1]
        assert summary.band_for(0.05).n_pos == 10
        with pytest.raises(ValidationError, match="no band for rate 0.1"):
            summary.band_for(0.1)


class TestSyntheticScorer:
    def test_random_scorer_near_half(self):
        records = synthetic_scorer(3000, 3000, separation=0.0, seed=101)
        value = float(auc_pairs(rank_records(records)))
        assert abs(value - 0.5) < 0.02

    def test_extreme_separation_near_one(self):
        records = synthetic_scorer(500, 500, separation=10.0, seed=102)
        assert float(auc_pairs(rank_records(records))) > 0.999

    def test_pinned_separation_hits_090(self):
        records = synthetic_scorer(5000, 5000, separation=SEPARATION_AUC_090,
                                   seed=103)
        value = float(auc_pairs(rank_records(records)))
        assert abs(value - 0.9) < 0.01

    def test_auc_monotone_in_separation(self):
        values = []
        for sep in (0.0, 0.8, 1.8, 4.0):
            records = synthetic_scorer(2000, 2000, separation=sep, seed=104)
            values.append(float(auc_pairs(rank_records(records))))
        assert values == sorted(values)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            synthetic_scorer(0, 10, separation=1.0, seed=1)
        with pytest.raises(ValidationError):
            synthetic_scorer(10, 10, separation=-1.0, seed=1)


# The acceptance suite's desk-scale pool and plan. The digests were taken
# from the record-by-record implementation (one `rank_records` per
# replicate), once on the pool as drawn and once with scores rounded to one
# decimal, which leaves a few dozen large tie groups.
DESK_PLAN = ResamplePlan(target_rates=(0.05, 0.117, 0.20),
                         replicate_count=50, sample_size=5000,
                         seed=20240504)
DESK_SHA256 = "c8c4766ecbc71ca8a851006c183254b23fe11b1624669e31195d9b067c332878"
DESK_TIED_SHA256 = "b494b2bbb29a2538f5101e6a48bdfa5b2bbcc14eb0a9b4f4aadcb915ad3c9a8e"


class TestRunPlanGolden:
    @pytest.fixture(scope="class")
    def desk_pool(self):
        return synthetic_scorer(11700, 88300, separation=SEPARATION_AUC_090,
                                seed=20240503)

    def test_desk_summary_digest(self, desk_pool):
        text = summary_to_json(run_plan(desk_pool, DESK_PLAN))
        assert hashlib.sha256(text.encode()).hexdigest() == DESK_SHA256

    def test_desk_summary_digest_with_ties(self, desk_pool):
        tied = [ScoredRecord(r.id, round(r.score, 1), r.label)
                for r in desk_pool]
        text = summary_to_json(run_plan(tied, DESK_PLAN))
        assert hashlib.sha256(text.encode()).hexdigest() == DESK_TIED_SHA256


def _tied_pool(rng, n_pos, n_neg, step):
    labels = [1] * n_pos + [0] * n_neg
    latent = rng.normal(size=n_pos + n_neg) + 1.2 * np.array(labels)
    scores = np.round(latent / step) * step
    order = rng.permutation(n_pos + n_neg)
    return [ScoredRecord(f"x{i:05d}", float(scores[i]), labels[i])
            for i in order]


def _pool_for_checks():
    return records_from_labels([1] * 20 + [0] * 40,
                               [float(i % 7) for i in range(60)])


def _assert_raises_as_rank_records(pool) -> str:
    """Every seed's `run_plan`, `stratified_sample` and oracle run raises
    what `rank_records(pool)` raises, with its message; return that."""
    with pytest.raises(ValidationError) as expected:
        rank_records(pool)
    message = str(expected.value)
    for seed in range(24):
        plan = ResamplePlan(target_rates=(0.2,), replicate_count=3,
                            sample_size=10, seed=seed)
        for call in (lambda: run_plan(pool, plan),
                     lambda: stratified_sample(pool, 0.2, 10, seed),
                     lambda: run_plan_oracle(pool, plan)):
            with pytest.raises(ValidationError) as got:
                call()
            assert str(got.value) == message
    return message


class TestRunPlanAgainstOracle:
    @pytest.mark.parametrize("step", [0.5, 0.05, 0.0])
    def test_tied_pools(self, step):
        rng = np.random.default_rng(606)
        pool = (_tied_pool(rng, 300, 1700, step) if step
                else synthetic_scorer(300, 1700, separation=1.0, seed=607))
        plan = ResamplePlan(target_rates=(0.04, 0.15, 0.3),
                            replicate_count=6, sample_size=250, seed=608)
        got = run_plan(pool, plan)
        assert got == run_plan_oracle(pool, plan)
        assert summary_to_json(got) == summary_to_json(run_plan_oracle(pool, plan))

    @pytest.mark.parametrize("row, score", [
        (3, float("nan")), (3, float("inf")), (45, float("-inf")),
        (59, float("nan"))])
    def test_non_finite_score_raises_for_every_seed(self, row, score):
        pool = _pool_for_checks()
        pool[row] = ScoredRecord(pool[row].id, score, pool[row].label)
        _assert_raises_as_rank_records(pool)

    @pytest.mark.parametrize("row, source", [(40, 41), (5, 50), (0, 19)])
    def test_duplicate_id_raises_for_every_seed(self, row, source):
        pool = _pool_for_checks()
        pool[row] = ScoredRecord(pool[source].id, pool[row].score,
                                 pool[row].label)
        _assert_raises_as_rank_records(pool)

    @pytest.mark.parametrize("label", [2, -1, 0.5, None, "1", "0"])
    @pytest.mark.parametrize("row", [7, 33])
    def test_bad_label_raises_for_every_seed(self, label, row):
        pool = _pool_for_checks()
        pool[row] = ScoredRecord(pool[row].id, pool[row].score, label)
        _assert_raises_as_rank_records(pool)

    def test_first_fault_in_pool_order_is_named(self):
        pool = _pool_for_checks()
        pool[50] = ScoredRecord(pool[50].id, float("nan"), 0)
        pool[9] = ScoredRecord(pool[9].id, pool[9].score, 2)
        pool[30] = ScoredRecord(pool[29].id, pool[30].score, 0)
        message = _assert_raises_as_rank_records(pool)
        assert message == f"record {pool[9].id!r}: label must be 0 or 1, got 2"

    def test_empty_pool_is_infeasible(self):
        plan = ResamplePlan(target_rates=(0.2,), replicate_count=2,
                            sample_size=10, seed=0)
        for call in (lambda: run_plan([], plan),
                     lambda: stratified_sample([], 0.2, 10, 0),
                     lambda: run_plan_oracle([], plan)):
            with pytest.raises(InfeasibleError, match="pool has 0/0"):
                call()

    @pytest.mark.parametrize("as_label", [bool, float, np.int64, np.float64])
    def test_equal_labels_of_other_types_give_the_same_summary(self, as_label):
        rng = np.random.default_rng(31)
        pool = _tied_pool(rng, 40, 160, 0.25)
        other = [ScoredRecord(r.id, r.score, as_label(r.label)) for r in pool]
        plan = ResamplePlan(target_rates=(0.1, 0.3), replicate_count=4,
                            sample_size=50, seed=32)
        assert run_plan(other, plan) == run_plan(pool, plan)
        for seed in range(4):
            assert ([r.id for r in stratified_sample(other, 0.3, 50, seed)]
                    == [r.id for r in stratified_sample(pool, 0.3, 50, seed)])

    def test_distinct_ids_sharing_a_hash_pass(self):
        # hash(-1) == hash(-2) in CPython, so the hash pass cannot prove the
        # ids distinct and the pool is checked record by record
        assert hash(-1) == hash(-2)
        pool = _pool_for_checks()
        numbered = [ScoredRecord(-1 - i, r.score, r.label)
                    for i, r in enumerate(pool)]
        rank_records(numbered)
        plan = ResamplePlan(target_rates=(0.2, 0.5), replicate_count=3,
                            sample_size=10, seed=5)
        assert run_plan(numbered, plan) == run_plan(pool, plan)
        assert run_plan(numbered, plan) == run_plan_oracle(numbered, plan)

    def test_infeasible_pool_matches(self):
        pool = records_from_labels([1] * 3 + [0] * 50)
        plan = ResamplePlan(target_rates=(0.5,), replicate_count=2,
                            sample_size=20, seed=1)
        with pytest.raises(InfeasibleError, match="positives"):
            run_plan(pool, plan)
