"""Class-distribution sensitivity by stratified resampling.

A classifier trained once is often deployed on populations with a different
positive rate. `run_plan` draws repeated stratified subsamples at each target
rate, evaluates fractional gains and lift on a common grid, and aggregates
mean/min/max bands; `regularity_check` then tests the expected ordering: for
a better-than-random scorer, rarer positives mean higher lift at small
targeting fractions. The pool is checked whole by `records._columns`, the
same function `rank_records` checks a set with, whose score and label
columns `run_plan` then splits by class (the command line passes the
loader's columns instead). Each replicate is ranked into a `RankedTestSet`,
so its gains and AUC come from the same kernels as every other measure's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError
from .metrics import auc_wilcoxon, cutoff_for
from .records import ScoredRecord, TiePolicy, _columns, _rank_columns
from .records import rank_records  # noqa: F401  (perfbench wraps it here)

GRID_POINTS = 100
BETTER_THAN_RANDOM_MARGIN = 0.02


def _positives_for(rate: float, size: int) -> int:
    # half-up rounding, done in exact arithmetic to dodge float edge cases
    return int(math.floor(Fraction(rate) * size + Fraction(1, 2)))


@dataclass(frozen=True)
class ResamplePlan:
    """Target positive rates, replicate count, subsample size, and seed."""

    target_rates: tuple[float, ...]
    replicate_count: int
    sample_size: int
    seed: int

    def __post_init__(self) -> None:
        if not self.target_rates:
            raise ValidationError("plan needs at least one target rate")
        for rate in self.target_rates:
            if not 0.0 < rate < 1.0:
                raise ValidationError(
                    f"target rate {rate} must be strictly inside (0, 1)")
        if self.replicate_count < 1:
            raise ValidationError("replicate_count must be >= 1")
        if self.sample_size < 10:
            raise ValidationError("sample_size must be >= 10")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class BandStats:
    mean: tuple[float, ...]
    min: tuple[float, ...]
    max: tuple[float, ...]


@dataclass(frozen=True)
class RateBand:
    """Aggregated curves for one target rate."""

    target_rate: float
    realized_rate: float
    n_pos: int
    mean_auc: float
    p_cum_gains: BandStats
    lift: BandStats


@dataclass(frozen=True)
class ResampleSummary:
    grid: tuple[float, ...]
    sample_size: int
    replicate_count: int
    seed: int
    bands: tuple[RateBand, ...]

    def band_for(self, rate: float) -> RateBand:
        for band in self.bands:
            if band.target_rate == rate:
                return band
        raise ValidationError(f"no band for rate {rate}")


def _wanted(rate: float, size: int, n_pos: int, n_neg: int) -> int:
    """round(rate*size), once n_pos positives and n_neg negatives are known
    to hold that many positives and the complement of negatives."""
    if not 0.0 < rate < 1.0:
        raise ValidationError(f"rate {rate} must be strictly inside (0, 1)")
    if size < 1:
        raise ValidationError("sample size must be positive")
    want_pos = _positives_for(rate, size)
    if n_pos < want_pos or n_neg < size - want_pos:
        raise InfeasibleError(
            f"rate {rate} at size {size} needs {want_pos} positives and "
            f"{size - want_pos} negatives; pool has {n_pos}/{n_neg}")
    return want_pos


def _draw(want_pos: int, size: int, pos: np.ndarray, neg: np.ndarray,
          seed) -> np.ndarray:
    """want_pos entries of the positives' column, then size - want_pos of
    the negatives', uniformly without replacement within each class."""
    rng = np.random.default_rng(seed)
    picked_pos = pos[rng.choice(len(pos), want_pos, replace=False)]
    picked_neg = neg[rng.choice(len(neg), size - want_pos, replace=False)]
    return np.concatenate((picked_pos, picked_neg))


def stratified_sample(pool: Sequence[ScoredRecord], rate: float, size: int,
                      seed) -> list[ScoredRecord]:
    """Draw exactly round(rate*size) positives and the complement negatives,
    uniformly without replacement within each class; positives come first.

    `seed` may be an int or a numpy Generator; the same seed always yields
    the same sample, and the sample `run_plan` draws for the same seed. The
    pool is checked whole first, by `rank_records`' own check `_columns`.
    """
    labels = _columns(pool)[1]
    pos_rows, neg_rows = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    want_pos = _wanted(rate, size, len(pos_rows), len(neg_rows))
    rows = _draw(want_pos, size, pos_rows, neg_rows, seed)
    return [pool[i] for i in rows.tolist()]


def run_plan(pool: Sequence[ScoredRecord], plan: ResamplePlan) -> ResampleSummary:
    """Execute the plan: per rate, draw replicates, rank each, evaluate
    fractional gains/lift on the grid, and aggregate bands.

    Replicate r at rate index k is seeded from (plan.seed, k, r), so results
    are bit-identical across runs and independent of evaluation order. The
    pool is checked whole first, by `rank_records`' own check `_columns`, so
    it raises what `rank_records` raises for it.
    """
    return _run_columns(*_columns(pool), plan)


def _run_columns(scores: np.ndarray, labels: np.ndarray,
                 plan: ResamplePlan) -> ResampleSummary:
    """`run_plan` on a valid pool's float64 scores and 0/1 int64 labels in
    pool order, as `_columns` gives them. Every rate is checked feasible, in
    rate order, before any work. Each replicate draws the same indices
    `stratified_sample` would and is ranked as `rank_records` ranks it under
    the input-order policy."""
    pos_scores, neg_scores = scores[labels == 1], scores[labels == 0]
    size = plan.sample_size
    wanted = []
    for rate in plan.target_rates:
        if not 1 <= _positives_for(rate, size) < size:
            raise InfeasibleError(
                f"rate {rate} at size {size} leaves no records of one class")
        wanted.append(_wanted(rate, size, len(pos_scores), len(neg_scores)))
    cutoffs = np.array([cutoff_for(Fraction(k, GRID_POINTS), size)
                        for k in range(1, GRID_POINTS + 1)], dtype=np.int64)
    rows = np.arange(size)

    bands = []
    for k, (rate, want_pos) in enumerate(zip(plan.target_rates, wanted)):
        try:
            gains = np.empty((plan.replicate_count, GRID_POINTS),
                             dtype=np.int64)
        except ValueError:  # more cells than any array can index
            raise MemoryError(
                f"{plan.replicate_count} replicates do not fit in memory"
            ) from None
        aucs = []
        labels = (rows < want_pos).astype(np.int64)  # positives lead the sample
        for r in range(plan.replicate_count):
            sample = _draw(want_pos, size, pos_scores, neg_scores, [plan.seed, k, r])
            ranked = _rank_columns(None, sample, labels, TiePolicy.INPUT_ORDER)
            gains[r] = ranked._gains_at(cutoffs)[0]
            aucs.append(float(auc_wilcoxon(ranked)))
        bands.append(RateBand(
            target_rate=rate,
            realized_rate=want_pos / size,
            n_pos=want_pos,
            mean_auc=float(sum(aucs) / len(aucs)),
            p_cum_gains=_band(gains / want_pos),
            lift=_band(gains * size / (cutoffs * want_pos)),
        ))
    grid = tuple(k / GRID_POINTS for k in range(1, GRID_POINTS + 1))
    return ResampleSummary(grid=grid, sample_size=size,
                           replicate_count=plan.replicate_count,
                           seed=plan.seed, bands=tuple(bands))


def _band(rows: np.ndarray) -> BandStats:
    # summation order fixed by row order, which is fixed by replicate index
    return BandStats(mean=tuple(rows.mean(axis=0).tolist()),
                     min=tuple(rows.min(axis=0).tolist()),
                     max=tuple(rows.max(axis=0).tolist()))


class RegularityOutcome(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class RegularityVerdict:
    """Whether mean lift at a small targeting fraction strictly decreases as
    the positive rate grows. Not applicable when the scorer is not clearly
    better than random."""

    outcome: RegularityOutcome
    small_fraction: float
    rates: tuple[float, ...]
    lift_means: tuple[float, ...]
    auc_means: tuple[float, ...]


def regularity_check(summary: ResampleSummary,
                     small_fraction: float = 0.05,
                     margin: float = BETTER_THAN_RANDOM_MARGIN) -> RegularityVerdict:
    """Order the per-rate mean lift at `small_fraction` and test that it is
    strictly decreasing in the positive rate."""
    if len(summary.bands) < 2:
        raise ValidationError("regularity check needs at least two rates")
    try:
        idx = next(i for i, f in enumerate(summary.grid)
                   if abs(f - small_fraction) < 1e-12)
    except StopIteration:
        raise ValidationError(
            f"grid point {small_fraction} missing from summary grid") from None

    bands = sorted(summary.bands, key=lambda b: b.target_rate)
    rates = tuple(b.target_rate for b in bands)
    lift_means = tuple(b.lift.mean[idx] for b in bands)
    auc_means = tuple(b.mean_auc for b in bands)

    if any(a < 0.5 + margin for a in auc_means):
        outcome = RegularityOutcome.NOT_APPLICABLE
    elif all(earlier > later for earlier, later in zip(lift_means, lift_means[1:])):
        outcome = RegularityOutcome.HOLDS
    else:
        outcome = RegularityOutcome.VIOLATED
    return RegularityVerdict(outcome=outcome, small_fraction=small_fraction,
                             rates=rates, lift_means=lift_means,
                             auc_means=auc_means)


# separation between the unit-variance score distributions that lands the
# expected pair-ordering probability at 0.90: sqrt(2) * z_{0.90}
SEPARATION_AUC_090 = 1.8124


def synthetic_scorer(n_pos: int, n_neg: int, separation: float,
                     seed) -> list[ScoredRecord]:
    """A stand-in scorer: negatives score N(0,1), positives N(separation,1).

    separation=0 is a coin-flip ranker; expected ranking quality rises
    monotonically with separation.
    """
    if n_pos < 1 or n_neg < 1:
        raise ValidationError("both classes need at least one record")
    if separation < 0:
        raise ValidationError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    pos_scores = rng.normal(loc=separation, scale=1.0, size=n_pos)
    neg_scores = rng.normal(loc=0.0, scale=1.0, size=n_neg)
    records = [ScoredRecord(id=f"p{i+1:06d}", score=float(s), label=1)
               for i, s in enumerate(pos_scores)]
    records += [ScoredRecord(id=f"n{i+1:06d}", score=float(s), label=0)
                for i, s in enumerate(neg_scores)]
    return records
