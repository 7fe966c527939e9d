"""Multi-classifier comparison and metric-disagreement search.

Comparisons assume one shared ground truth: every run scores the same test
set, so the runs carry the same label multiset in different orders. The
disagreement search works on bare label sequences (an implicit strictly
decreasing score vector), exhaustively when the arrangement space is small
and by seeded sampling otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExhaustedError, ValidationError
from .metrics import auc_pairs, cum_gains, lift
from .records import RankedTestSet, ScoredRecord, rank_records

EXHAUSTIVE_LIMIT = 1_000_000
LEX_REFINE_LIMIT = 2_000  # full lex-order pair scan only below this many arrangements
CHUNK_CELLS = 1 << 16  # label-matrix cells scored at a time by the search


@dataclass(frozen=True, slots=True)
class ClassifierRun:
    """A named ranking of the shared test set."""

    name: str
    ranked: RankedTestSet


@dataclass(frozen=True)
class SwapSpec:
    """Rank-position pairs whose labels get exchanged; positions must be
    pairwise disjoint so the swap set is an involution."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        flat = [r for pair in self.pairs for r in pair]
        if len(set(flat)) != len(flat):
            raise ValidationError(f"swap ranks overlap: {self.pairs}")


def apply_swaps(ranked: RankedTestSet, swaps: SwapSpec) -> RankedTestSet:
    """Exchange labels at the given rank positions; order and scores stay."""
    labels = ranked._labels.copy()
    for a, b in swaps.pairs:
        for r in (a, b):
            if not 1 <= r <= ranked.n_total:
                raise ValidationError(
                    f"swap rank {r} out of range [1, {ranked.n_total}]")
        labels[[a - 1, b - 1]] = labels[[b - 1, a - 1]]
    return RankedTestSet(ranked.ids, ranked._scores, labels, ranked.tie_policy)


def _check_shared_labels(runs: Sequence[ClassifierRun]) -> None:
    # labels are 0/1, so the multiset is fixed by the record and positive counts
    reference = runs[0].ranked
    for run in runs[1:]:
        if (run.ranked.n_total, run.ranked.n_pos) != (reference.n_total,
                                                       reference.n_pos):
            raise ValidationError(
                f"run {run.name!r} has a different label multiset than "
                f"{runs[0].name!r}; comparisons need the same ground truth")


def accuracy_at(ranked: RankedTestSet, n: int) -> Fraction:
    """Whole-set accuracy of the classifier that predicts the top-n positive.

    Unlike the top-n confusion matrix this counts true negatives below the
    cutoff: (tp_n + tn_n_full) / N.
    """
    n = ranked.check_cutoff(n, minimum=1)
    tp = ranked.positives_in_prefix(n)
    tn = ranked.n_total - n - (ranked.n_pos - tp)
    return Fraction(Fraction(tp + tn), ranked.n_total)


@dataclass(frozen=True)
class CompareEntry:
    run: str
    n: int
    cum_gains: Fraction | int
    lift: Fraction


@dataclass(frozen=True)
class CompareTable:
    """Per-target gains/lift for each run plus the winner(s) at each target.

    Winners are never spliced across targets: each target is judged on its
    own, and combining "best run per n" into one curve is not meaningful.
    """

    targets: tuple[int, ...]
    entries: tuple[CompareEntry, ...]
    winners: dict[int, tuple[str, ...]] = field(compare=False)

    def winner_at(self, n: int) -> tuple[str, ...]:
        return self.winners[n]


def compare_at(runs: Sequence[ClassifierRun],
               targets: Sequence[int]) -> CompareTable:
    """Evaluate gains and lift for every run at every target cutoff."""
    if len(runs) < 2:
        raise ValidationError("comparison needs at least two runs")
    names = [r.name for r in runs]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate run names: {names}")
    _check_shared_labels(runs)
    if not targets:
        raise ValidationError("no target cutoffs given")
    n_total = runs[0].ranked.n_total
    seen: set[int] = set()
    for n in targets:
        if not 1 <= n <= n_total:
            raise ValidationError(f"target n={n} out of range [1, {n_total}]")
        if n in seen:
            raise ValidationError(f"repeated target n={n}")
        seen.add(n)

    entries = []
    winners: dict[int, tuple[str, ...]] = {}
    for n in targets:
        best: Optional[Fraction] = None
        gains_by_run = []
        for run in runs:
            g = cum_gains(run.ranked, n)
            gains_by_run.append((run.name, g))
            entries.append(CompareEntry(run=run.name, n=n, cum_gains=g,
                                        lift=lift(run.ranked, n)))
            gf = Fraction(g)
            best = gf if best is None or gf > best else best
        winners[n] = tuple(name for name, g in gains_by_run
                           if Fraction(g) == best)
    return CompareTable(targets=tuple(targets), entries=tuple(entries),
                        winners=winners)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

class DominanceVerdict(Enum):
    A_DOMINATES = "a-dominates"
    B_DOMINATES = "b-dominates"
    CROSSING = "crossing"


@dataclass(frozen=True)
class DominanceReport:
    """Where each run's lift curve sits above the other's, in rank units.

    Equal curves report CROSSING with both interval lists empty.
    """

    verdict: DominanceVerdict
    a_above: tuple[tuple[int, int], ...]
    b_above: tuple[tuple[int, int], ...]

    @property
    def is_tie(self) -> bool:
        return not self.a_above and not self.b_above


def _runs_to_intervals(ranks: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Maximal runs of consecutive ranks as (first, last) pairs."""
    if ranks.size == 0:
        return ()
    breaks = np.flatnonzero(np.diff(ranks) != 1)
    firsts = ranks[np.concatenate(([0], breaks + 1))]
    lasts = ranks[np.concatenate((breaks, [ranks.size - 1]))]
    return tuple(zip(firsts.tolist(), lasts.tolist()))


def dominance(run_a: ClassifierRun, run_b: ClassifierRun) -> DominanceReport:
    """Compare two lift curves pointwise over every cutoff.

    The runs share one label multiset, so at every cutoff n their lifts
    share the factor N / (n * positives) and lift_a > lift_b exactly when
    gains_a > gains_b. The exact gains of both runs are compared as integer
    arrays by cross-multiplying numerators and denominators.
    """
    _check_shared_labels([run_a, run_b])
    if run_a.ranked.n_pos == 0:
        raise ValidationError("lift undefined: the set has no positives")
    num_a, den_a = run_a.ranked.gains_arrays()
    num_b, den_b = run_b.ranked.gains_arrays()
    lhs = (num_a * den_b)[1:]
    rhs = (num_b * den_a)[1:]
    a_above = np.flatnonzero(lhs > rhs) + 1
    b_above = np.flatnonzero(rhs > lhs) + 1
    if a_above.size and not b_above.size:
        verdict = DominanceVerdict.A_DOMINATES
    elif b_above.size and not a_above.size:
        verdict = DominanceVerdict.B_DOMINATES
    else:
        verdict = DominanceVerdict.CROSSING
    return DominanceReport(verdict=verdict,
                           a_above=_runs_to_intervals(a_above),
                           b_above=_runs_to_intervals(b_above))


# ---------------------------------------------------------------------------
# metric-disagreement search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    """A metric identifier: 'auc', 'lift@n', or 'accuracy@n'."""

    kind: str
    at: Optional[int] = None

    def __str__(self) -> str:
        return self.kind if self.at is None else f"{self.kind}@{self.at}"

def parse_metric(text: str) -> Metric:
    """Parse 'auc', 'lift@6', 'accuracy@5'."""
    text = text.strip().lower()
    if text == "auc":
        return Metric("auc")
    if "@" in text:
        kind, _, param = text.partition("@")
        if kind in ("lift", "accuracy"):
            try:
                return Metric(kind, int(param))
            except ValueError:
                pass
    raise ValidationError(
        f"unknown metric {text!r}: expected auc, lift@<n>, or accuracy@<n>")


@dataclass(frozen=True)
class DisagreementReport:
    """A certified counterexample: two rankings the metrics order oppositely.

    `prefers_x` is True when the metric ranks labels_x ahead of labels_y.
    The two preferences must differ, and `certify` re-derives every value
    through the public metric implementations.
    """

    metric_a: Metric
    metric_b: Metric
    labels_x: tuple[int, ...]
    labels_y: tuple[int, ...]
    value_a_x: Fraction
    value_a_y: Fraction
    value_b_x: Fraction
    value_b_y: Fraction
    exhaustive: bool

    def __post_init__(self) -> None:
        if self.a_prefers_x == self.b_prefers_x:
            raise ValidationError(
                "not a disagreement: both metrics prefer the same ranking")

    @property
    def a_prefers_x(self) -> bool:
        return self.value_a_x > self.value_a_y

    @property
    def b_prefers_x(self) -> bool:
        return self.value_b_x > self.value_b_y

    def certify(self) -> bool:
        """Recompute both metrics on both rankings via the library path."""
        for labels, va, vb in ((self.labels_x, self.value_a_x, self.value_b_x),
                               (self.labels_y, self.value_a_y, self.value_b_y)):
            ranked = ranked_from_labels(labels)
            if evaluate_metric(self.metric_a, ranked) != va:
                return False
            if evaluate_metric(self.metric_b, ranked) != vb:
                return False
        return self.a_prefers_x != self.b_prefers_x


def ranked_from_labels(labels: Sequence[int]) -> RankedTestSet:
    """A ranked set realizing a label sequence with strictly decreasing
    scores (rank r gets score N - r + 1)."""
    n = len(labels)
    records = [ScoredRecord(id=f"r{i+1:03d}", score=float(n - i), label=int(y))
               for i, y in enumerate(labels)]
    return rank_records(records)


def evaluate_metric(metric: Metric, ranked: RankedTestSet) -> Fraction:
    """Evaluate a parsed metric through the public single-run operations."""
    if metric.kind == "auc":
        return auc_pairs(ranked)
    if metric.kind == "lift":
        return lift(ranked, metric.at)
    if metric.kind == "accuracy":
        return accuracy_at(ranked, metric.at)
    raise ValidationError(f"unknown metric kind {metric.kind!r}")


def _check_metric(metric: Metric, n_total: int) -> None:
    """Reject a cutoff outside [1, n_total] (auc takes none), then an
    unknown kind."""
    if metric.kind == "auc":
        return
    if metric.at is None or not 1 <= metric.at <= n_total:
        raise ValidationError(
            f"metric {metric} needs a cutoff in [1, {n_total}]")
    if metric.kind not in ("lift", "accuracy"):
        raise ValidationError(f"unknown metric kind {metric.kind!r}")


def _numerators(metric: Metric, labels: np.ndarray, n_pos: int) -> np.ndarray:
    """The metric's exact numerator for every row of a 0/1 label matrix.

    Each metric has one denominator for all arrangements of n_pos positives
    among N ranks (auc: P*N-, lift@n: n*P, accuracy@n: N), so numerators
    order the rows exactly as the metric values do.
    """
    n_total = labels.shape[1]
    if metric.kind == "auc":
        # each positive is discordant with every negative ranked above it
        neg_above = np.cumsum(1 - labels, axis=1)
        discordant = (labels * neg_above).sum(axis=1)
        return n_pos * (n_total - n_pos) - discordant
    tp = labels[:, :metric.at].sum(axis=1, dtype=np.int64)
    if metric.kind == "lift":
        return tp * n_total
    return 2 * tp + (n_total - metric.at) - n_pos  # accuracy


def _label_matrix(positions: np.ndarray, n_total: int) -> np.ndarray:
    labels = np.zeros((len(positions), n_total), dtype=np.int8)
    np.put_along_axis(labels, positions, 1, axis=1)
    return labels


def _exhaustive_chunks(n_total: int, n_pos: int,
                       rows: int) -> Iterator[np.ndarray]:
    """Positive positions of every arrangement, in lexicographic order of the
    position tuples, `rows` arrangements at a time."""
    combos = combinations(range(n_total), n_pos)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(combos, rows)),
                           dtype=np.int64)
        if not flat.size:
            return
        yield flat.reshape(-1, n_pos)


def _combination_at(index: int, n_total: int, n_pos: int) -> list[int]:
    """The `index`-th n_pos-subset of range(n_total) in lexicographic order."""
    out = []
    x = 0
    for left in range(n_pos, 0, -1):
        while (count := math.comb(n_total - x - 1, left - 1)) <= index:
            index -= count
            x += 1
        out.append(x)
        x += 1
    return out


def _sampled_positions(n_total: int, n_pos: int, budget: int,
                       seed: int) -> np.ndarray:
    """Sorted positive positions of `budget` seeded draws, duplicates dropped
    and first occurrences kept in draw order."""
    rng = np.random.default_rng(seed)
    drawn = np.empty((budget, n_pos), dtype=np.int64)
    for row in drawn:
        row[:] = rng.choice(n_total, size=n_pos, replace=False)
    drawn.sort(axis=1)
    _, first = np.unique(drawn, axis=0, return_index=True)
    return drawn[np.sort(first)]


def _first_inversion(a: np.ndarray, b: np.ndarray) -> Optional[tuple[int, int]]:
    """Find i, j with a_i < a_j but b_i > b_j.

    Rows are taken in (a, b, index) order and split into groups of equal a.
    The reported j is the first row of the first group whose smallest b lies
    below the largest b of the groups before it; i is the first row, in the
    same order, that holds that largest b.
    """
    order = np.lexsort((b, a))
    a_sorted, b_sorted = a[order], b[order]
    starts = np.flatnonzero(np.diff(a_sorted, prepend=a_sorted[0] - 1))
    ends = np.append(starts[1:], len(order))
    best_before = np.maximum.accumulate(b_sorted[ends - 1])[:-1]
    hits = np.flatnonzero(b_sorted[starts[1:]] < best_before)
    if not hits.size:
        return None
    g = hits[0] + 1
    i = int(np.argmax(b_sorted[:starts[g]] == best_before[g - 1]))
    return int(order[i]), int(order[starts[g]])


def _lex_first_pair(a: np.ndarray, b: np.ndarray) -> Optional[tuple[int, int]]:
    """First disagreeing pair in lexicographic order of label tuples.

    Arrangement k+1 of the exhaustive enumeration moves a positive to a later
    rank than arrangement k, so its label tuple is lexicographically smaller:
    label order is the enumeration reversed.
    """
    for i in range(len(a) - 1, 0, -1):
        da = np.sign(a[i] - a[i - 1::-1])
        db = np.sign(b[i] - b[i - 1::-1])
        hit = np.flatnonzero(da * db < 0)
        if hit.size:
            return i, i - 1 - int(hit[0])
    return None


def find_disagreement(metric_a: Metric | str, metric_b: Metric | str,
                      n_total: int, n_pos: int, *,
                      budget: int = 200_000,
                      seed: int = 0) -> Optional[DisagreementReport]:
    """Search label arrangements for a pair the two metrics order oppositely.

    Enumerates the whole space when C(n_total, n_pos) fits the budget (then a
    None return certifies no disagreement exists); otherwise samples `budget`
    arrangements with the seeded generator and raises BudgetExhaustedError if
    nothing turns up, since absence is then not certified.

    Arrangements are scored as int8 label matrices of at most
    CHUNK_CELLS cells each, so memory stays bounded by two integer
    numerators per arrangement. Only the two reported arrangements are
    evaluated in `Fraction`s, through `evaluate_metric`.
    """
    if isinstance(metric_a, str):
        metric_a = parse_metric(metric_a)
    if isinstance(metric_b, str):
        metric_b = parse_metric(metric_b)
    if n_total < 2 or not 1 <= n_pos <= n_total - 1:
        raise ValidationError(
            f"need n_total >= 2 and 1 <= n_pos < n_total, got "
            f"n_total={n_total}, n_pos={n_pos}")
    if budget < 2:
        raise ValidationError("budget must allow at least two arrangements")
    _check_metric(metric_a, n_total)
    _check_metric(metric_b, n_total)

    space = math.comb(n_total, n_pos)
    exhaustive = space <= min(budget, EXHAUSTIVE_LIMIT)
    rows = max(1, CHUNK_CELLS // n_total)
    if exhaustive:
        count = space
        chunks = _exhaustive_chunks(n_total, n_pos, rows)
    else:
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        sampled = _sampled_positions(n_total, n_pos, budget, seed)
        count = len(sampled)
        chunks = (sampled[k:k + rows] for k in range(0, count, rows))

    num_a = np.empty(count, dtype=np.int64)
    num_b = np.empty(count, dtype=np.int64)
    done = 0
    for positions in chunks:
        labels = _label_matrix(positions, n_total)
        num_a[done:done + len(labels)] = _numerators(metric_a, labels, n_pos)
        num_b[done:done + len(labels)] = _numerators(metric_b, labels, n_pos)
        done += len(labels)

    hit = _first_inversion(num_a, num_b)
    if hit is None:
        if exhaustive:
            return None
        raise BudgetExhaustedError(
            f"no disagreement among {count} sampled arrangements "
            f"(space size {space}); absence is not certified")
    if exhaustive and count <= LEX_REFINE_LIMIT:
        hit = _lex_first_pair(num_a, num_b)

    def arrangement(index: int) -> tuple[int, ...]:
        positions = (_combination_at(index, n_total, n_pos) if exhaustive
                     else sampled[index])
        labels = [0] * n_total
        for p in positions:
            labels[p] = 1
        return tuple(labels)

    lx, ly = (arrangement(k) for k in hit)
    rx, ry = ranked_from_labels(lx), ranked_from_labels(ly)
    ax, ay = evaluate_metric(metric_a, rx), evaluate_metric(metric_a, ry)
    bx, by = evaluate_metric(metric_b, rx), evaluate_metric(metric_b, ry)
    if ax < ay:  # normalize so metric_a prefers x
        lx, ly, ax, ay, bx, by = ly, lx, ay, ax, by, bx
    return DisagreementReport(metric_a=metric_a, metric_b=metric_b,
                              labels_x=lx, labels_y=ly,
                              value_a_x=ax, value_a_y=ay,
                              value_b_x=bx, value_b_y=by,
                              exhaustive=exhaustive)
