import itertools
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gainslift import (EXAMPLE24_LABELS, ClassifierRun, CostSpec,
                       NConfusionMatrix, RankedTestSet,
                       ResamplePlan, ScoredRecord, SwapSpec, TiePolicy,
                       ValidationError, XKind, accuracy_at, apply_swaps,
                       auc_pairs, auc_wilcoxon, benefit_series, compare_at,
                       decile_lift, decile_series, dominance,
                       emit_curves, example24_records, gains_series, lift,
                       lift_series, load_scored,
                       n_confusion_matrix, p_cum_gains, rank_records,
                       roc_points, run_plan)
import gainslift.io as gio
from gainslift.io import _load_columns
from gainslift.records import (_columns, _first_fault, _rank_columns,
                               _rank_order, _rows_by_id)

from helpers import (block_id_form_oracle, brute_force_auc,
                     curves_csv_oracle, curves_json_oracle, gains_oracle,
                     lift_above, random_instance,
                     rank_order_oracle, records_from_labels,
                     roc_points_oracle, stable_order_oracle, tie_groups_oracle)


def make(scores, labels):
    return [ScoredRecord(id=f"r{i}", score=s, label=y)
            for i, (s, y) in enumerate(zip(scores, labels))]


def kernel_dens(ranked):
    """The denominator `_gains_at` gives at each cutoff n = 0..N, from
    `tie_groups_oracle`: under the expected policy the size of the tie group
    holding rank n (the first group's for n = 0), unreduced; else 1."""
    if ranked.tie_policy is not TiePolicy.EXPECTED_VALUE:
        return [1] * (ranked.n_total + 1)
    sizes = [end - start for start, end, _ in tie_groups_oracle(ranked)
             for _ in range(start, end)]
    return sizes[:1] + sizes


class TestRanking:
    def test_sorts_by_descending_score(self):
        ranked = rank_records(make([0.9, 0.1, 0.5], [1, 0, 1]))
        assert ranked.scores == (0.9, 0.5, 0.1)
        assert ranked.labels == (1, 1, 0)

    def test_counts(self):
        ranked = rank_records(make([0.9, 0.1, 0.5], [1, 0, 1]))
        assert (ranked.n_total, ranked.n_pos, ranked.n_neg) == (3, 2, 1)

    def test_example24_label_sequence(self, example24):
        assert example24.labels == EXAMPLE24_LABELS

    def test_input_order_keeps_tied_rows_stable(self):
        records = make([0.5, 0.5, 0.5], [0, 1, 0])
        ranked = rank_records(records, TiePolicy.INPUT_ORDER)
        assert [r.id for r in ranked.records] == ["r0", "r1", "r2"]

    def test_id_order_sorts_ties_by_id(self):
        records = [ScoredRecord("b", 0.5, 1), ScoredRecord("a", 0.5, 0),
                   ScoredRecord("c", 0.5, 1)]
        ranked = rank_records(records, TiePolicy.ID_ORDER)
        assert [r.id for r in ranked.records] == ["a", "b", "c"]

    def test_id_order_is_shuffle_invariant(self):
        rng = np.random.default_rng(7)
        scores = [float(s) for s in rng.integers(0, 5, size=40)]
        records = records_from_labels([i % 2 for i in range(40)], scores)
        baseline = rank_records(records, TiePolicy.ID_ORDER)
        for _ in range(5):
            shuffled = list(records)
            rng.shuffle(shuffled)
            again = rank_records(shuffled, TiePolicy.ID_ORDER)
            assert [r.id for r in again.records] == [r.id for r in baseline.records]

    def test_rerank_is_idempotent(self):
        records = make([0.5, 0.9, 0.5, 0.1], [1, 0, 0, 1])
        once = rank_records(records, TiePolicy.ID_ORDER)
        twice = rank_records(list(once.records), TiePolicy.ID_ORDER)
        assert [r.id for r in twice.records] == [r.id for r in once.records]


class TestValidation:
    def test_empty_input(self):
        with pytest.raises(ValidationError, match="empty"):
            rank_records([])

    def test_non_binary_label(self):
        with pytest.raises(ValidationError, match="label must be 0 or 1"):
            rank_records(make([0.5, 0.4], [1, 2]))

    def test_duplicate_id(self):
        records = [ScoredRecord("x", 0.5, 1), ScoredRecord("x", 0.4, 0)]
        with pytest.raises(ValidationError, match="duplicate record id"):
            rank_records(records)

    def test_non_finite_score(self):
        with pytest.raises(ValidationError, match="finite"):
            rank_records(make([float("nan"), 0.4], [1, 0]))
        with pytest.raises(ValidationError, match="finite"):
            rank_records(make([float("inf"), 0.4], [1, 0]))

    @pytest.mark.parametrize("score", ["0.5", None, 1j])
    def test_non_numeric_score(self, score):
        records = [ScoredRecord("a", 0.5, 1), ScoredRecord("b", score, 0)]
        with pytest.raises(ValidationError, match=(
                f"record 'b': score must be a number, got {score!r}")):
            rank_records(records)

    def test_ids_the_id_policy_cannot_order(self):
        tied = [ScoredRecord(1, 0.5, 1), ScoredRecord("a", 0.5, 0)]
        with pytest.raises(ValidationError) as info:
            rank_records(tied, TiePolicy.ID_ORDER)
        assert str(info.value) == (
            "the id tie policy cannot order these ids: '<' not supported "
            "between instances of 'str' and 'int'")
        # the other policies, and untied scores, never compare ids
        for policy in (TiePolicy.INPUT_ORDER, TiePolicy.EXPECTED_VALUE):
            assert rank_records(tied, policy).ids.tolist() == [1, "a"]
        untied = [ScoredRecord(1, 0.4, 1), ScoredRecord("a", 0.5, 0)]
        assert rank_records(untied, TiePolicy.ID_ORDER).ids.tolist() == [
            "a", 1]


class TestExpectedValuePrefix:
    def test_boundary_cutoffs_stay_integral(self):
        records = make([0.9, 0.5, 0.5, 0.5, 0.5, 0.1], [1, 1, 0, 1, 0, 0])
        ranked = rank_records(records, TiePolicy.EXPECTED_VALUE)
        assert ranked.positives_in_prefix(1) == 1
        assert ranked.positives_in_prefix(5) == 3
        assert ranked.positives_in_prefix(6) == 3

    def test_cutoff_inside_tie_group_is_fractional(self):
        records = make([0.9, 0.5, 0.5, 0.5, 0.5, 0.1], [1, 1, 0, 1, 0, 0])
        ranked = rank_records(records, TiePolicy.EXPECTED_VALUE)
        # group of four ties holds 2 positives: each slot counts 1/2
        assert ranked.positives_in_prefix(2) == 1 + Fraction(1, 2)
        assert ranked.positives_in_prefix(3) == 2
        assert ranked.positives_in_prefix(4) == 1 + Fraction(3, 2)

    def test_discrete_policy_never_fractional(self):
        records = make([0.5] * 4, [1, 0, 1, 0])
        ranked = rank_records(records, TiePolicy.INPUT_ORDER)
        assert [ranked.positives_in_prefix(n) for n in range(5)] == [0, 1, 1, 2, 2]


class TestGainsKernel:
    """`_gains_at` and `positives_in_prefix` against the plain-Python
    `gains_oracle`, never against each other."""

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_random_tied_inputs_match_oracle(self, policy):
        rng = np.random.default_rng(4711)
        for _ in range(80):
            ranked = rank_records(random_instance(rng, max_n=50, tie_prob=0.6),
                                  policy)
            n_total = ranked.n_total
            want = [gains_oracle(ranked, n) for n in range(n_total + 1)]
            # every cutoff, 0 and N twice more, some more again, shuffled
            cutoffs = np.concatenate((np.arange(n_total + 1), [0, n_total] * 2,
                                      rng.integers(0, n_total + 1, size=20)))
            rng.shuffle(cutoffs)
            dens = kernel_dens(ranked)
            num, den = ranked._gains_at(cutoffs)
            if policy is TiePolicy.EXPECTED_VALUE:
                assert den.dtype == np.int64
                assert den.tolist() == [dens[n] for n in cutoffs]
            else:  # the prefix counts, with no denominator column
                assert type(den) is int and den == 1
            den = np.broadcast_to(den, num.shape)
            assert num.dtype == np.int64
            assert [Fraction(int(a), int(b)) for a, b in zip(num, den)] == [
                want[n] for n in cutoffs]
            # one cutoff, a Python or a numpy int, gives numpy integers
            for n in cutoffs[:12].tolist():
                for cutoff in (n, np.int64(n)):
                    num, den = ranked._gains_at(cutoff)
                    assert np.ndim(num) == np.ndim(den) == 0
                    assert den == dens[n]
                    assert Fraction(int(num), int(den)) == want[n]
            got = [ranked.positives_in_prefix(n) for n in range(n_total + 1)]
            assert got == want
            assert [type(g) for g in got] == [type(g) for g in want]

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_positives_in_prefix_checks_its_cutoff(self, policy):
        ranked = rank_records(example24_records(), policy)
        for bad in (-1, ranked.n_total + 1, True, 2.0, "3"):
            with pytest.raises(ValidationError, match="cutoff n"):
                ranked.positives_in_prefix(bad)
        assert ranked.positives_in_prefix(np.int64(3)) == gains_oracle(ranked, 3)


class TestGainsAtEveryCutoff:
    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_matches_positives_in_prefix(self, policy):
        rng = np.random.default_rng(808)
        for _ in range(100):
            ranked = rank_records(random_instance(rng, max_n=60, tie_prob=0.6),
                                  policy)
            num, den = ranked._gains_at(np.arange(ranked.n_total + 1))
            den = np.broadcast_to(den, num.shape)
            assert num.dtype == den.dtype == np.int64
            assert num.shape == (ranked.n_total + 1,)
            for n in range(ranked.n_total + 1):
                assert Fraction(int(num[n]), int(den[n])) == \
                    ranked.positives_in_prefix(n)
            assert den.tolist() == kernel_dens(ranked)

    def test_denominator_is_group_size_inside_expected_ties(self):
        records = make([0.9, 0.5, 0.5, 0.5, 0.5, 0.1], [1, 1, 0, 1, 0, 0])
        num, den = rank_records(records, TiePolicy.EXPECTED_VALUE)._gains_at(
            np.arange(7))
        # unreduced: 8/4 and 12/4 keep the group size, whole or not
        assert num.tolist() == [0, 1, 6, 8, 10, 12, 3]
        assert den.tolist() == [1, 1, 4, 4, 4, 4, 1]


class TestSmallWorld:
    """Every label sequence of N <= MAX_N records and every split of its
    ranks into consecutive tie groups, under every policy, against the
    plain oracles. The ids descend with the row, so the id policy reverses
    each group's input order. Dominance is checked against the set with its
    first and last ranks exchanged, where their labels differ, and
    `compare_at` against that swapped set at every target. Every single-cutoff
    ratio is checked at every n >= 1; the whole-curve kernels only for
    N <= SERIES_N, and the csv and json that `emit_curves` writes of them
    only for N <= WRITERS_N, which keeps the test's time down. The curves
    but ROC are built from the labels and gains alone, so their texts are
    checked once per pair, as the measures are; ROC's once per curve."""

    MAX_N = 6
    SERIES_N = 5
    WRITERS_N = 4
    COSTS = CostSpec(q_tp=10, q_fp=-0.3)

    @staticmethod
    def _worlds():
        for n in range(1, TestSmallWorld.MAX_N + 1):
            for cuts in itertools.product((False, True), repeat=n - 1):
                # a tie group ends after rank i + 1 wherever cuts[i] holds
                group = list(itertools.accumulate((0,) + cuts))
                sizes = [group.count(g) for g in range(group[-1] + 1)]
                for labels in itertools.product((0, 1), repeat=n):
                    yield labels, group, sizes

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_every_small_set(self, policy):
        checked = set()  # the sets whose measures are checked
        rocs = set()  # the ROC points whose texts are checked
        for labels, group, sizes in self._worlds():
            n = len(labels)
            records = [ScoredRecord(f"r{n - i}", float(-g), y)
                       for i, (g, y) in enumerate(zip(group, labels))]
            want = list(labels)
            if policy is TiePolicy.ID_ORDER:
                start = 0
                for size in sizes:
                    want[start:start + size] = want[start:start + size][::-1]
                    start += size
            want = tuple(want)
            ranked = rank_records(records, policy)
            assert ranked.labels == want
            assert tuple(r.label for r in ranked.records) == want
            assert list(ranked.tie_groups()) == tie_groups_oracle(ranked)
            gains = [gains_oracle(ranked, k) for k in range(n + 1)]
            num, den = ranked._gains_at(np.arange(n + 1))
            den = np.broadcast_to(den, num.shape)
            assert [Fraction(int(a), int(b)) for a, b in zip(num, den)] == gains
            assert [ranked.positives_in_prefix(k)
                    for k in range(n + 1)] == gains
            # the ratios and curves are built on the labels and gains just
            # checked, so sets that share both are checked once: under input
            # and id, one set per label sequence
            key = (want, tuple(gains))
            measures = key not in checked
            checked.add(key)
            if measures:
                lifts = self._check_cutoffs(ranked, gains)
            if measures and n <= self.SERIES_N:
                self._check_series(ranked, gains, lifts)
            if measures and n <= self.WRITERS_N:
                self._check_writers(ranked)
            if 0 < ranked.n_pos < n:
                auc = brute_force_auc(ranked)
                assert auc_pairs(ranked) == auc_wilcoxon(ranked) == auc
                roc = roc_points(ranked)
                assert roc.points == roc_points_oracle(ranked).points
                # the one curve of the tie groups; equal points, equal texts
                if n <= self.WRITERS_N and roc.points not in rocs:
                    rocs.add(roc.points)
                    self._check_texts([roc])
            if n > 1:
                swapped = apply_swaps(ranked, SwapSpec(pairs=((1, n),)))
                assert swapped.labels == (want[-1],) + want[1:-1] + (want[0],)
                assert list(swapped.tie_groups()) == tie_groups_oracle(swapped)
                if want[0] != want[-1]:  # else swapped is ranked itself
                    report = dominance(ClassifierRun("a", ranked),
                                       ClassifierRun("b", swapped))
                    ranks = [[k for lo, hi in above for k in range(lo, hi + 1)]
                             for above in (report.a_above, report.b_above)]
                    assert tuple(ranks) == lift_above(ranked, swapped)
                if measures and n <= self.SERIES_N:
                    self._check_compare(ranked, gains, lifts, swapped)

    @staticmethod
    def _no_positives(call, what):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"{what} undefined: the set has no positives"

    def _check_cutoffs(self, ranked, gains):
        """The ratios at each cutoff n >= 1 against gains g: the top-n
        matrix (g, n - g), accuracy (g + N - n - (P - g)) / N, g / P and
        the lift g * N / (n * P); the lifts, or None without positives."""
        n_total, n_pos = ranked.n_total, ranked.n_pos
        for k, g in enumerate(gains[1:], 1):
            assert n_confusion_matrix(ranked, k) == NConfusionMatrix(
                n=k, tp=g, fp=k - g)
            assert accuracy_at(ranked, k) == Fraction(
                n_total - k - n_pos + 2 * g, n_total)
            if not n_pos:
                self._no_positives(lambda: lift(ranked, k), "lift")
                self._no_positives(lambda: p_cum_gains(ranked, k),
                                   "p_cum_gains")
                continue
            assert p_cum_gains(ranked, k) == Fraction(g) / n_pos
        if not n_pos:
            return None
        lifts = [None] + [Fraction(g) * n_total / (k * n_pos)
                          for k, g in enumerate(gains[1:], 1)]
        assert [lift(ranked, k) for k in range(1, n_total + 1)] == lifts[1:]
        return lifts

    def _check_series(self, ranked, gains, lifts):
        """Each curve's name, x kind and exact points against its values
        from the gains, as the series oracles in `helpers` make them."""
        n_total, n_pos = ranked.n_total, ranked.n_pos
        counts = range(1, n_total + 1)
        shares = [Fraction(k, n_total) for k in counts]
        q_tp, q_fp = map(Fraction, (self.COSTS.q_tp, self.COSTS.q_fp))
        for series, name, kind, y in (
                (gains_series(ranked), "gains", XKind.COUNT, gains[1:]),
                (benefit_series(ranked, self.COSTS), "benefit", XKind.COUNT,
                 [g * q_tp + (k - g) * q_fp for k, g in zip(counts,
                                                            gains[1:])])):
            assert (series.name, series.x_kind, series.points) == (
                name, kind, tuple(zip(map(Fraction, counts), y)))
        if lifts is None:
            with pytest.raises(ValidationError) as info:
                gains_series(ranked, fraction=True)
            assert str(info.value) == "fractional gains undefined: no positives"
            self._no_positives(lambda: lift_series(ranked), "lift")
            self._no_positives(lambda: decile_lift(ranked), "decile lift")
            return
        for series, name, kind, x, y in (
                (gains_series(ranked, fraction=True), "gains", XKind.FRACTION,
                 shares, [Fraction(g) / n_pos for g in gains[1:]]),
                (lift_series(ranked, fraction=False), "lift", XKind.COUNT,
                 map(Fraction, counts), lifts[1:]),
                (lift_series(ranked), "lift", XKind.FRACTION, shares,
                 lifts[1:])):
            assert (series.name, series.x_kind, series.points) == (
                name, kind, tuple(zip(x, y)))
        assert decile_lift(ranked) == [lifts[-(-j * n_total // 10)]
                                       for j in range(1, 11)]

    def _check_writers(self, ranked):
        """The texts of the curves built from the labels and gains alone,
        all in one; those that need positives are left out where the set
        has none."""
        series = [gains_series(ranked), benefit_series(ranked, self.COSTS)]
        if ranked.n_pos:
            series += [gains_series(ranked, fraction=True),
                       lift_series(ranked, fraction=False),
                       lift_series(ranked), decile_series(ranked)]
        self._check_texts(series)

    @staticmethod
    def _check_texts(series):
        """The csv and json `emit_curves` writes of the series against the
        writer oracles."""
        assert emit_curves(series, "csv") == curves_csv_oracle(series)
        assert emit_curves(series, "json") == curves_json_oracle(series)

    def _check_compare(self, ranked, gains, lifts, swapped):
        """`compare_at` of the set and its swapped copy at every target,
        against each one's gains and lift; the winners have the most gains."""
        n_total = ranked.n_total
        runs = [ClassifierRun("a", ranked), ClassifierRun("b", swapped)]
        targets = range(1, n_total + 1)
        if lifts is None:
            self._no_positives(lambda: compare_at(runs, targets), "lift")
            return
        table = compare_at(runs, targets)
        swapped_gains = [gains_oracle(swapped, k) for k in targets]
        want = []
        for k, ga, gb in zip(targets, gains[1:], swapped_gains):
            want += [("a", k, ga, type(ga), lifts[k]),
                     ("b", k, gb, type(gb),
                      Fraction(gb) * n_total / (k * ranked.n_pos))]
            assert table.winner_at(k) == (("a", "b") if ga == gb else
                                          ("a",) if ga > gb else ("b",))
        assert [(e.run, e.n, e.cum_gains, type(e.cum_gains), e.lift)
                for e in table.entries] == want


class TestColumnarRankedSet:
    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_order_matches_python_sort(self, policy):
        rng = np.random.default_rng(9090)
        for _ in range(100):
            records = random_instance(rng, max_n=80, tie_prob=0.6)
            ids = [r.id for r in records]
            rng.shuffle(ids)
            # signed zeros compare equal and belong to one tie group
            records = [ScoredRecord(rid, -0.0 if r.score < 0.2 else r.score,
                                    r.label) if i % 2 else
                       ScoredRecord(rid, 0.0 if r.score < 0.2 else r.score,
                                    r.label)
                       for i, (rid, r) in enumerate(zip(ids, records))]
            ranked = rank_records(records, policy)
            assert list(ranked.ids) == rank_order_oracle(records, policy)
            assert [r.id for r in ranked.records] == list(ranked.ids)

    def test_id_order_is_python_string_order(self):
        # numpy's fixed-width unicode arrays would drop the trailing NUL and
        # call the first two ids equal
        ids = ["a\x00", "a", "b", "A", "é", "e", "a\x00\x00", "10", "9"]
        records = [ScoredRecord(rid, 0.5, i % 2) for i, rid in enumerate(ids)]
        ranked = rank_records(records, TiePolicy.ID_ORDER)
        assert list(ranked.ids) == sorted(ids)

    def test_results_are_python_numbers(self):
        records = make([0.9, 0.5, 0.5, 0.5, 0.1], [1, 1, 0, 0, 1])
        for policy in TiePolicy:
            ranked = rank_records(records, policy)
            assert type(ranked.n_pos) is int and type(ranked.n_neg) is int
            assert all(type(y) is int for y in ranked.labels)
            assert all(type(s) is float for s in ranked.scores)
            for n in range(ranked.n_total + 1):
                assert type(ranked.positives_in_prefix(n)) in (int, Fraction)
            for group in ranked.tie_groups():
                assert all(type(v) is int for v in group)
            rec = ranked.records[0]
            assert type(rec.score) is float and type(rec.label) is int

    def test_columns_are_read_only(self):
        ranked = rank_records(make([0.9, 0.5, 0.1], [1, 0, 1]))
        with pytest.raises(ValueError):
            ranked._prefix_pos[1] = 5
        with pytest.raises(ValueError):
            ranked.ids[0] = "x"

    @pytest.mark.parametrize("faults,message", [
        # (index, kind) per fault; the first faulty record is reported, its
        # label before its score before its id
        ([(3, "label"), (1, "score")], "record 'r1': score must be finite"),
        ([(2, "label"), (2, "score")], "record 'r2': label must be 0 or 1"),
        ([(2, "dup"), (4, "label")], "duplicate record id 'r0'"),
        ([(4, "dup"), (1, "label")], "record 'r1': label must be 0 or 1"),
        ([(3, "score"), (3, "dup")], "record 'r0': score must be finite"),
        ([(2, "unhashable")], "record 'r2': label must be 0 or 1"),
        ([(3, "unhashable id"), (4, "dup")],
         "record ['r3']: id must be hashable"),
    ])
    def test_first_fault_is_named(self, faults, message):
        records = make([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0, 1])
        for i, kind in faults:
            rec = records[i]
            if kind == "label":
                records[i] = ScoredRecord(rec.id, rec.score, 2)
            elif kind == "unhashable":
                records[i] = ScoredRecord(rec.id, rec.score, [1])
            elif kind == "unhashable id":
                records[i] = ScoredRecord([rec.id], rec.score, rec.label)
            elif kind == "score":
                records[i] = ScoredRecord(rec.id, float("nan"), rec.label)
            else:
                records[i] = ScoredRecord("r0", rec.score, rec.label)
        with pytest.raises(ValidationError) as info:
            rank_records(records)
        assert str(info.value).startswith(message)


# faults injected into the pools of TestSharedCheck: a value for one field
_FAULTS = ([("label", v) for v in (2, "1", None, [1])]
           + [("score", v) for v in (float("nan"), float("inf"), "0.5", None,
                                     10**400, Decimal("sNaN"))]
           + [("id", v) for v in ("repeat", ["x"], "shared hash")])


class TestSharedCheck:
    """`_columns`, the whole-column check that `rank_records`, `run_plan`
    and `stratified_sample` share, against `_first_fault`, the check that
    reads one record at a time."""

    def test_seeded_pools_with_faults(self):
        rng = np.random.default_rng(1313)
        for _ in range(300):
            n = int(rng.integers(1, 61))
            as_label = (int, bool, float, np.int64)[rng.integers(0, 4)]
            pool = make(np.round(rng.normal(size=n), 1).tolist(),
                        map(as_label, rng.integers(0, 2, size=n).tolist()))
            for k in rng.integers(0, len(_FAULTS), size=rng.integers(0, 4)):
                field, value = _FAULTS[k]
                i = int(rng.integers(0, n))
                rec = pool[i]
                if field == "label":
                    pool[i] = ScoredRecord(rec.id, rec.score, value)
                elif field == "score":
                    pool[i] = ScoredRecord(rec.id, value, rec.label)
                elif value == "repeat":
                    source = pool[int(rng.integers(0, n))]
                    pool[i] = ScoredRecord(source.id, rec.score, rec.label)
                elif value == "shared hash":  # hash(-1) == hash(-2)
                    j = int(rng.integers(0, n))
                    pool[i] = ScoredRecord(-1, rec.score, rec.label)
                    pool[j] = ScoredRecord(-2, pool[j].score, pool[j].label)
                else:
                    pool[i] = ScoredRecord(value, rec.score, rec.label)
            try:
                _first_fault(pool)
            except Exception as fault:
                with pytest.raises(Exception) as info:
                    _columns(pool)
                assert type(info.value) is type(fault)
                assert str(info.value) == str(fault)
                continue
            scores, labels = _columns(pool)
            assert scores.dtype == np.float64 and labels.dtype == np.int64
            assert scores.tolist() == [float(r.score) for r in pool]
            assert labels.tolist() == [int(r.label) for r in pool]


_LABEL_FORMS = {"int": int, "bool": bool, "np.int64": np.int64,
                "np.uint8": np.uint8, "np.bool_": np.bool_, "float": float,
                "Fraction": Fraction, "Decimal": Decimal}


class TestLabelForms:
    """`_columns`, `rank_records` and `run_plan` give the same int64 labels
    whatever numeric type holds a 0 or 1 label, and the same error, type
    and text, for every other label."""

    PLAN = ResamplePlan(target_rates=(0.2,), replicate_count=2,
                        sample_size=40, seed=5)

    @staticmethod
    def _pool(labels):
        rng = np.random.default_rng(len(labels))
        return make(rng.normal(size=len(labels)).tolist(), labels)

    def _same_as_ints(self, pool):
        plain = [ScoredRecord(r.id, r.score, int(r.label)) for r in pool]
        scores, labels = _columns(pool)
        assert labels.dtype == np.int64
        assert labels.tolist() == [r.label for r in plain]
        assert scores.tolist() == [r.score for r in plain]
        for policy in TiePolicy:
            got = rank_records(pool, policy)
            want = rank_records(plain, policy)
            assert got._prefix_pos.dtype == np.int64
            assert got.labels == want.labels
            assert np.array_equal(got._prefix_pos, want._prefix_pos)
            assert list(got.ids) == list(want.ids)
        assert run_plan(pool, self.PLAN) == run_plan(plain, self.PLAN)

    @pytest.mark.parametrize("form", _LABEL_FORMS.values(),
                             ids=_LABEL_FORMS.keys())
    def test_each_form(self, form):
        ones = np.random.default_rng(8).integers(0, 2, 200).tolist()
        self._same_as_ints(self._pool([form(y) for y in ones]))

    def test_mixed_forms(self):
        rng = np.random.default_rng(9)
        forms = list(_LABEL_FORMS.values())
        for _ in range(20):
            self._same_as_ints(self._pool([
                forms[i](y) for i, y in zip(rng.integers(0, len(forms), 200),
                                            rng.integers(0, 2, 200).tolist())]))

    @pytest.mark.parametrize("bad", [2, 255, 256, -1, 2**70, 1.5, "1", None,
                                     [1]],
                             ids=["2", "255", "256", "-1", "2**70", "1.5",
                                  "str", "None", "list"])
    @pytest.mark.parametrize("where", ["first", "late", "every"])
    @pytest.mark.parametrize("rest", ["int", "bool", "float"])
    def test_faulty_label(self, bad, where, rest):
        labels = [_LABEL_FORMS[rest](i % 2) for i in range(200)]
        if where == "every":
            labels = [bad] * 200
        else:
            labels[0 if where == "first" else 150] = bad
        pool = self._pool(labels)
        with pytest.raises(ValidationError) as fault:
            _first_fault(pool)
        assert f"label must be 0 or 1, got {bad!r}" in str(fault.value)
        for call in (_columns, rank_records, lambda p: run_plan(p, self.PLAN)):
            with pytest.raises(Exception) as info:
                call(pool)
            assert type(info.value) is ValidationError
            assert str(info.value) == str(fault.value)


def _kernel_case(rng: np.random.Generator, shape: str, n: int):
    """Seeded id, score and label columns of n rows; the ids are shuffled so
    that id order differs from row order."""
    ids = np.empty(n, dtype=object)
    ids[:] = [f"r{i}" for i in rng.permutation(n)]
    labels = rng.integers(0, 2, size=n)
    if shape == "untied":
        scores = rng.normal(size=n)
    elif shape == "levels":
        levels = int(rng.integers(2, 65))
        scores = (rng.integers(0, levels, size=n) - levels // 2) / 8
    elif shape == "equal":
        scores = np.full(n, rng.normal())
    elif shape == "long-run":
        scores = rng.normal(size=n)
        start = int(rng.integers(0, n))
        scores[start:start + max(1, n // 2)] = rng.normal()
    elif shape == "signed-zeros":
        scores = rng.choice([0.0, -0.0, 0.0, -0.0, 1.5, -2.0], size=n)
    else:  # "zeros": one tie group whose members differ in sign bit
        scores = rng.choice([0.0, -0.0], size=n)
    return ids, scores, labels


# characters of 1 to 4 UTF-8 bytes on each side of every width's edge (from
# the lowest but NUL), lone surrogates (3 bytes with `surrogatepass`) and the
# largest code points
_WIDE_CHARS = ["\x01", "a", "\x7f", "\x80", "\xe9", "\u07ff", "\u0800",
               "\ud7ff", "\ud800", "\udbff", "\udc00", "\udfff", "\ue000",
               "\uffff", "\U00010000", "\U0010ffff"]


def _text(rng: np.random.Generator, chars, size: int) -> str:
    """`size` seeded draws from `chars`; `rng.choice` would make them a numpy
    str array, which reads "\\0" as the empty string."""
    return "".join([chars[i] for i in rng.integers(0, len(chars), size)])


def _id_case(rng: np.random.Generator, shape: str, n: int):
    """n distinct ids of one shape in a seeded order, with scores at three
    levels (or all equal for n below 4) so that most rows tie. Only the
    `nul` and `newline` shapes hold the bytes that send a column to
    `sorted`; a byte below `a` stands in for NUL in the others."""
    prefix = _text(rng, "ab", 24)
    ids: set[str] = set()
    while len(ids) < n:
        size = int(rng.integers(0, 13))
        if shape == "lengths":  # 0 to 40 bytes
            text = _text(rng, "ab", int(rng.integers(0, 41)))
        elif shape.startswith("prefix-"):  # 8, 16 or 24 shared bytes
            text = prefix[:int(shape[7:])] + _text(rng, "ab\x01", size)
        elif shape == "nul":  # at the start, in the middle and at the end
            text = _text(rng, "ab", size)
            cut = int(rng.integers(0, size + 1))
            text = ("\0" * int(rng.integers(0, 3)) + text[:cut]
                    + "\0" * int(rng.integers(0, 3)) + text[cut:]
                    + "\0" * int(rng.integers(0, 3)))
        elif shape == "wide":  # non-ASCII, astral and lone surrogates
            text = _text(rng, _WIDE_CHARS, size)
        else:  # "newline": ids that hold the byte that joins them
            text = _text(rng, "a\n\0", size)
        ids.add(text)
    column = np.empty(n, dtype=object)
    texts = sorted(ids)  # a numpy str array would drop trailing NULs
    column[:] = [texts[i] for i in rng.permutation(n)]
    levels = 1 if n < 4 else 3
    scores = rng.integers(0, levels, size=n) / 2
    return column, scores, rng.integers(0, 2, size=n)


# the characters of `_WIDE_CHARS` that a delimited line can carry
_LINE_CHARS = [c for c in _WIDE_CHARS if not "\ud800" <= c <= "\udfff"]


def _line_ids(rng: np.random.Generator, shape: str, n: int) -> list[str]:
    """n distinct ids in a seeded order, drawn as `_id_case` draws the ids
    of its `lengths`, `prefix-*` and `wide` shapes but with what no line of
    the loader's block route holds left out: empty ids and lone
    surrogates. The `short` shape's ids have 1 to 8 UTF-8 bytes; the
    `mixed` shape's ids are short ones, then, in the last rows, longer
    ones."""
    if shape == "mixed":
        # `short` ids, then, from row n - n // 8, an eight-byte id that no
        # short one starts with and the same id with one more byte, then
        # ids of 9 bytes, then of 10 to 24
        tail = n // 8
        ids = _line_ids(rng, "short", n - tail)
        if tail:
            ids[0] = "c" + _text(rng, "ab", 7)
            longer = {ids[0] + "a"}
            while len(longer) < tail:
                size = (9 if 2 * len(longer) < tail
                        else int(rng.integers(10, 25)))
                longer.add(_text(rng, "ab", size))
            longer.remove(ids[0] + "a")
            ids += [ids[0] + "a"] + sorted(
                longer, key=lambda text: (len(text), text))
        return ids
    prefix = _text(rng, "ab", 24)
    ids: set[str] = set()
    while len(ids) < n:
        size = int(rng.integers(1, 13))
        if shape == "lengths":  # 1 to 40 bytes
            text = _text(rng, "ab", int(rng.integers(1, 41)))
        elif shape.startswith("prefix-"):  # 8, 16 or 24 shared bytes
            text = prefix[:int(shape[7:])] + _text(rng, "ab\x01", size - 1)
        elif shape == "short":  # 1 to 8 bytes, many of exactly 8
            text = _text(rng, "ab" if size % 2 else _LINE_CHARS,
                         min(size, 8))
            while len(text.encode("utf-8")) > 8:
                text = text[:-1]
        else:  # "wide": non-ASCII and astral
            text = _text(rng, _LINE_CHARS, size)
        ids.add(text)
    texts = sorted(ids)
    return [texts[i] for i in rng.permutation(n)]


_COLUMNS = ("ids", "_scores", "_prefix_pos", "_group_bounds")


class TestRankKernel:
    """`_rank_columns` against numpy's stable merge sort and lexsort."""

    SHAPES = ["untied", "levels", "equal", "long-run", "signed-zeros", "zeros"]

    def _check(self, ids, scores, labels, policy):
        inputs = [column.copy() for column in (ids, scores, labels)]
        ranked = _rank_columns(ids, scores, labels, policy)
        order = stable_order_oracle(ids, scores, policy)
        want = RankedTestSet(ids[order], scores[order], labels[order], policy)
        for name in _COLUMNS:
            got, expected = getattr(ranked, name), getattr(want, name)
            assert got.dtype == expected.dtype, name
            assert not got.flags.writeable, name
            if got.dtype == np.float64:  # the sign of every zero too
                got, expected = got.view(np.int64), expected.view(np.int64)
            assert np.array_equal(got, expected), name
        for before, after in zip(inputs, (ids, scores, labels)):
            assert np.array_equal(before, after) and after.flags.writeable

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sizes_up_to_200k(self, shape):
        rng = np.random.default_rng([2024, self.SHAPES.index(shape)])
        for n in (1, 2, 3, 17, 1_000, 4_097, 200_000):
            case = _kernel_case(rng, shape, n)
            for policy in TiePolicy:
                self._check(*case, policy)

    def test_random_small_sets(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            shape = self.SHAPES[int(rng.integers(0, len(self.SHAPES)))]
            case = _kernel_case(rng, shape, int(rng.integers(1, 300)))
            for policy in TiePolicy:
                self._check(*case, policy)

    ID_SHAPES = ["lengths", "prefix-8", "prefix-16", "prefix-24", "nul",
                 "wide", "newline"]

    @pytest.mark.parametrize("shape", ID_SHAPES)
    def test_id_shapes(self, shape):
        rng = np.random.default_rng([2026, self.ID_SHAPES.index(shape)])
        for n in (1, 2, 3, 17, 300, 4_097):
            self._check(*_id_case(rng, shape, n), TiePolicy.ID_ORDER)

    def test_random_id_sets(self):
        rng = np.random.default_rng(78)
        for _ in range(300):
            shape = self.ID_SHAPES[int(rng.integers(0, len(self.ID_SHAPES)))]
            case = _id_case(rng, shape, int(rng.integers(1, 60)))
            self._check(*case, TiePolicy.ID_ORDER)

    LINE_SHAPES = ["lengths", "prefix-8", "prefix-16", "prefix-24", "wide",
                   "short", "mixed"]

    @pytest.mark.parametrize("shape", LINE_SHAPES)
    def test_block_route_bytes_order_as_their_texts(self, tmp_path,
                                                    monkeypatch, shape):
        """The ids the loader's block route hands over for the id policy,
        as words where every id has at most eight bytes and else as bytes,
        hold the ids' texts and give their order, and the id policy's rank
        order is Python's."""
        monkeypatch.setattr(gio, "_BLOCK_BYTES", 256)  # ids cross blocks
        rng = np.random.default_rng([2027, self.LINE_SHAPES.index(shape)])
        path = tmp_path / "ids.csv"
        for n in (1, 2, 3, 17, 300, 4_097):
            texts = _line_ids(rng, shape, n)
            path.write_text("id,score,label\n" + "".join(
                f"{text},{int(rng.integers(0, 3)) / 2!r},"
                f"{int(rng.integers(0, 2))}\n" for text in texts),
                encoding="utf-8")
            blob, scores, labels = _load_columns(path, id_form="bytes")
            ids = _load_columns(path)[0]
            assert ids.tolist() == texts
            assert (blob if isinstance(blob, bytes) else blob.tolist()) \
                == block_id_form_oracle(texts)
            want = sorted(range(n), key=texts.__getitem__)
            assert _rows_by_id(blob).tolist() == _rows_by_id(ids).tolist() \
                == want
            order = _rank_order(blob, scores, TiePolicy.ID_ORDER)
            assert ids[order].tolist() == rank_order_oracle(
                load_scored(path), TiePolicy.ID_ORDER)

    @pytest.mark.parametrize("shape", LINE_SHAPES)
    def test_equal_ids_end_adjacent(self, shape):
        """Equal ids, which only a direct caller passes, come back in
        order with each id's rows adjacent, from texts and from bytes."""
        rng = np.random.default_rng([2028, self.LINE_SHAPES.index(shape)])
        for n in (1, 2, 17, 300):
            distinct = _line_ids(rng, shape, n)
            texts = [distinct[i] for i in rng.integers(0, n, size=2 * n)]
            ids = np.empty(len(texts), dtype=object)
            ids[:] = texts
            blob = "".join(text + "\n" for text in texts).encode("utf-8")
            for given in (ids, blob):
                rows = _rows_by_id(given).tolist()
                assert sorted(rows) == list(range(len(texts)))
                assert [texts[row] for row in rows] == sorted(texts)

    def test_neighbouring_runs_stay_apart(self):
        # the last id of one run of equal first words and the first id of
        # the next share their second word; only their first word orders them
        texts = ["aaaaaaabbbbbbbbba", "aaaaaaaabbbbbbbbz", "aaaaaaabc",
                 "aaaaaaaaa"]
        ids = np.empty(len(texts), dtype=object)
        ids[:] = texts
        blob = "".join(text + "\n" for text in texts).encode("utf-8")
        for given in (ids, blob):
            assert [texts[row] for row in _rows_by_id(given)] == sorted(texts)

    def test_one_long_id_among_short_ones(self):
        # a fixed-width array would hold 10**4 copies of the long id's width;
        # the long id ties with `id000000` on its first eight bytes
        rng = np.random.default_rng(79)
        texts = [f"id{i:06d}" for i in range(10_000)]
        texts.append("id000000" + "x" * (1 << 20))
        ids = np.empty(len(texts), dtype=object)
        ids[:] = [texts[i] for i in rng.permutation(len(texts))]
        tracemalloc.start()
        try:
            rows = _rows_by_id(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids[rows].tolist() == sorted(texts)
        assert peak < 4 * sum(map(len, texts))
        labels = rng.integers(0, 2, size=len(ids))
        self._check(ids, np.zeros(len(ids)), labels, TiePolicy.ID_ORDER)

    def test_int_ids_keep_python_order(self):
        rng = np.random.default_rng(80)
        for n in (1, 5, 300):
            ids = np.empty(n, dtype=object)
            ids[:] = [int(v) for v in rng.permutation(n) * 7 - 3 * n]
            self._check(ids, rng.integers(0, 3, size=n) / 2,
                        rng.integers(0, 2, size=n), TiePolicy.ID_ORDER)
            ranked = _rank_columns(ids, np.zeros(n), np.zeros(n, np.int64),
                                   TiePolicy.ID_ORDER)
            assert ranked.ids.tolist() == sorted(ids.tolist())
