import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from gainslift import (TiePolicy, ValidationError, auc_pairs, auc_wilcoxon,
                       rank_records, roc_points)

from helpers import (auc_pairs_matrix, brute_force_auc, edge_records,
                     random_instance, records_from_labels, tie_groups_oracle)


class TestAucGolden:
    def test_example24(self, example24):
        assert auc_pairs(example24) == Fraction(135, 144)
        assert auc_wilcoxon(example24) == Fraction(135, 144)

    def test_perturbed_is_higher(self, perturbed24):
        assert auc_pairs(perturbed24) == Fraction(137, 144)
        assert auc_wilcoxon(perturbed24) == Fraction(137, 144)

    def test_flipped_pairs_is_lower(self, flipped_pairs24):
        assert auc_pairs(flipped_pairs24) == Fraction(133, 144)

    def test_two_records_concordant(self):
        ranked = rank_records(records_from_labels([1, 0]))
        assert auc_wilcoxon(ranked) == 1

    def test_all_ties_is_half(self):
        records = records_from_labels([1, 0, 1, 0, 0], [1.0] * 5)
        ranked = rank_records(records)
        assert auc_pairs(ranked) == Fraction(1, 2)
        assert auc_wilcoxon(ranked) == Fraction(1, 2)

    def test_perfect_ranking(self):
        ranked = rank_records(records_from_labels([1, 1, 1, 0, 0]))
        assert auc_pairs(ranked) == 1


class TestAucAgreement:
    def test_formulas_agree_against_oracle(self):
        """Random sets, after the fixed `EDGE_SETS`, under every policy:
        the tie groups, which the rank-sum kernel reads, and, where both
        classes are present, both AUC names against every pair counted."""
        rng = np.random.default_rng(42)
        draws = (random_instance(rng, max_n=60) for _ in range(100))
        for records in chain(edge_records(), draws):
            for policy in TiePolicy:
                ranked = rank_records(records, policy)
                assert list(ranked.tie_groups()) == tie_groups_oracle(ranked)
                if ranked.n_pos and ranked.n_neg:
                    expected = brute_force_auc(ranked)
                    assert auc_pairs(ranked) == expected
                    assert auc_wilcoxon(ranked) == expected

    def test_value_ignores_tie_policy(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            records = random_instance(rng, max_n=40)
            values = {auc_pairs(rank_records(records, policy))
                      for policy in TiePolicy}
            assert len(values) == 1

    def test_single_class_rejected(self):
        ranked = rank_records(records_from_labels([1, 1, 1]))
        for fn in (auc_pairs, auc_wilcoxon):
            with pytest.raises(ValidationError, match="single-class"):
                fn(ranked)


class TestRocPoints:
    def test_starts_at_origin_ends_at_one_one(self, example24):
        series = roc_points(example24)
        assert series.points[0] == (0, 0)
        assert series.points[-1] == (1, 1)

    def test_example24_contains_cutoff8_point(self, example24):
        series = roc_points(example24)
        assert (Fraction(1, 12), Fraction(7, 12)) in series.points

    def test_perfect_ranking_passes_through_corner(self):
        ranked = rank_records(records_from_labels([1, 1, 0, 0]))
        series = roc_points(ranked)
        assert (Fraction(0), Fraction(1)) in series.points

    def test_all_ties_two_points(self):
        records = records_from_labels([1, 0, 1, 0], [2.0] * 4)
        series = roc_points(rank_records(records))
        assert series.points == ((0, 0), (1, 1))

    def test_tie_groups_step_once(self):
        records = records_from_labels([1, 0, 0, 1, 0],
                                      [3.0, 2.0, 2.0, 2.0, 1.0])
        series = roc_points(rank_records(records))
        # cutoffs: after score 3 group, after score 2 group, after score 1
        assert series.points == (
            (0, 0),
            (Fraction(0), Fraction(1, 2)),
            (Fraction(2, 3), Fraction(1)),
            (Fraction(1), Fraction(1)),
        )

    def test_single_class_rejected(self):
        ranked = rank_records(records_from_labels([0, 0]))
        with pytest.raises(ValidationError):
            roc_points(ranked)

    def test_trapezoid_area_matches_auc(self):
        # the staircase under the tie-aware ROC encloses exactly the AUC
        rng = np.random.default_rng(44)
        for _ in range(30):
            ranked = rank_records(random_instance(rng, max_n=50))
            pts = roc_points(ranked).points
            area = Fraction(0)
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                area += (x1 - x0) * (y0 + y1) / 2
            assert area == auc_pairs(ranked)


class TestAucPairsCounting:
    """Both AUC names read the one rank-sum kernel over the tie-group
    bounds; the P x N comparison matrices count the pairs themselves and
    are the oracle."""

    def test_random_tied_inputs(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            records = random_instance(rng, max_n=120, tie_prob=0.6)
            ranked = rank_records(records)
            assert auc_pairs(ranked) == auc_pairs_matrix(ranked)

    def test_signed_zero_scores_tie(self):
        rng = np.random.default_rng(4243)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            scores = rng.choice([0.0, -0.0, 1.0, -1.0], size=n).tolist()
            labels = [int(v) for v in rng.integers(0, 2, size=n)]
            labels[0], labels[-1] = 1, 0
            ranked = rank_records(records_from_labels(labels, scores))
            assert auc_pairs(ranked) == auc_pairs_matrix(ranked)
            assert auc_pairs(ranked) == brute_force_auc(ranked)

    def test_memory_grows_with_records_not_pairs(self):
        # 3,000 x 30,000 pairs: each comparison matrix would take 90 MB; the
        # 10^5 distinct scores make a group per row, and the kernel may hold
        # two int64 columns of group counts (16 bytes a row) at once
        rng = np.random.default_rng(4244)
        labels = [1] * 3_000 + [0] * 30_000
        scores = np.round(rng.normal(size=len(labels)), 2).tolist()
        tied = rank_records(records_from_labels(labels, scores))
        n = 100_000
        untied = rank_records(records_from_labels(
            rng.integers(0, 2, size=n).tolist(), rng.permutation(n).tolist()))
        for fn in (auc_pairs, auc_wilcoxon):
            for ranked, limit in ((tied, 4 * 2**20), (untied, 20 * n)):
                tracemalloc.start()
                try:
                    fn(ranked)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < limit
