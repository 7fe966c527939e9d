"""Class-distribution sensitivity by stratified resampling.

A classifier trained once is often deployed on populations with a different
positive rate. `run_plan` draws repeated stratified subsamples at each target
rate, evaluates fractional gains and lift on a common grid, and aggregates
mean/min/max bands; `regularity_check` then tests the expected ordering: for
a better-than-random scorer, rarer positives mean higher lift at small
targeting fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError
from .metrics import cutoff_for, doubled_mann_whitney_u
from .records import ScoredRecord, rank_records

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


def _draw(rate: float, size: int, n_pos: int, n_neg: int,
          seed) -> tuple[np.ndarray, np.ndarray]:
    """Indices of round(rate*size) of n_pos positives and of the complement
    of n_neg negatives, uniformly without replacement within each class."""
    if not 0.0 < rate < 1.0:
        raise ValidationError(f"rate {rate} must be strictly inside (0, 1)")
    if size < 1:
        raise ValidationError("sample size must be positive")
    want_pos = _positives_for(rate, size)
    want_neg = size - want_pos
    if n_pos < want_pos or n_neg < want_neg:
        raise InfeasibleError(
            f"rate {rate} at size {size} needs {want_pos} positives and "
            f"{want_neg} negatives; pool has {n_pos}/{n_neg}")
    rng = np.random.default_rng(seed)
    pos_idx = rng.choice(n_pos, size=want_pos, replace=False)
    neg_idx = rng.choice(n_neg, size=want_neg, replace=False)
    return pos_idx, neg_idx


def stratified_sample(pool: Sequence[ScoredRecord], rate: float, size: int,
                      seed) -> list[ScoredRecord]:
    """Draw exactly round(rate*size) positives and the complement negatives,
    uniformly without replacement within each class; positives come first.

    `seed` may be an int or a numpy Generator; the same seed always yields
    the same sample, and the sample `run_plan` draws for the same seed.
    """
    pos = [r for r in pool if r.label == 1]
    neg = [r for r in pool if r.label == 0]
    pos_idx, neg_idx = _draw(rate, size, len(pos), len(neg), seed)
    return [pos[i] for i in pos_idx] + [neg[i] for i in neg_idx]


def _default_grid() -> tuple[float, ...]:
    return tuple(k / GRID_POINTS for k in range(1, GRID_POINTS + 1))


def run_plan(pool: Sequence[ScoredRecord], plan: ResamplePlan) -> ResampleSummary:
    """Execute the plan: per rate, draw replicates, rank each, evaluate
    fractional gains/lift on the grid, and aggregate bands.

    Replicate r at rate index k is seeded from (plan.seed, k, r), so results
    are bit-identical across runs and independent of evaluation order.

    The pool is split into positive and negative score arrays once. Each
    replicate draws the same indices `stratified_sample` would, ranks the
    sample with a stable descending sort (the input-order tie policy),
    reads gains from an integer cumulative sum, and takes the midrank AUC
    from its tie groups. A sample raises what ranking it as records would:
    a non-finite score or a repeated id fails only the samples that hold it.
    """
    grid = _default_grid()
    size = plan.sample_size
    cutoffs = np.array([cutoff_for(Fraction(k, GRID_POINTS), size)
                        for k in range(1, GRID_POINTS + 1)], dtype=np.int64)

    # each whole-pool array is dropped once used, so the split's peak memory
    # stays near one array the size of the pool
    labels = np.array([r.label for r in pool])
    pos_rows = np.flatnonzero(labels == 1)
    neg_rows = np.flatnonzero(labels == 0)
    del labels
    scores = np.fromiter((r.score for r in pool), dtype=np.float64,
                         count=len(pool))
    pos_scores, neg_scores = scores[pos_rows], scores[neg_rows]
    del scores
    # distinct id hashes prove no sample can repeat an id; a repeated hash
    # sends every sample through the record-level check
    id_hashes = np.fromiter((hash(r.id) for r in pool), dtype=np.int64,
                            count=len(pool))
    id_hashes.sort()
    unique_ids = not np.any(id_hashes[1:] == id_hashes[:-1])
    del id_hashes

    bands = []
    for k, rate in enumerate(plan.target_rates):
        want_pos = _positives_for(rate, size)
        if want_pos < 1 or want_pos >= size:
            raise InfeasibleError(
                f"rate {rate} at size {size} leaves no records of one class")
        lift_rows = np.empty((plan.replicate_count, GRID_POINTS))
        pcg_rows = np.empty((plan.replicate_count, GRID_POINTS))
        aucs = []
        for r in range(plan.replicate_count):
            pos_idx, neg_idx = _draw(rate, size, len(pos_rows), len(neg_rows),
                                     [plan.seed, k, r])
            sample = np.concatenate((pos_scores[pos_idx], neg_scores[neg_idx]))
            if not (unique_ids and np.isfinite(sample).all()):
                # raises as before for a sample that holds a bad record
                rank_records([pool[i] for i in np.concatenate(
                    (pos_rows[pos_idx], neg_rows[neg_idx]))])
            order = np.argsort(-sample, kind="stable")
            ranked_scores = sample[order]
            prefix = np.cumsum(order < want_pos)  # positives lead the sample
            gains = prefix[cutoffs - 1]
            pcg_rows[r] = gains / want_pos
            lift_rows[r] = gains * size / (cutoffs * want_pos)
            ends = np.append(np.flatnonzero(ranked_scores[1:] != ranked_scores[:-1]) + 1,
                             size)
            group_pos = np.diff(prefix[ends - 1], prepend=0)
            aucs.append(doubled_mann_whitney_u(ends, group_pos, want_pos)
                        / (2 * want_pos * (size - want_pos)))
        bands.append(RateBand(
            target_rate=rate,
            realized_rate=want_pos / size,
            n_pos=want_pos,
            mean_auc=float(sum(aucs) / len(aucs)),
            p_cum_gains=_band(pcg_rows),
            lift=_band(lift_rows),
        ))
    return ResampleSummary(grid=grid, sample_size=size,
                           replicate_count=plan.replicate_count,
                           seed=plan.seed, bands=tuple(bands))


def _band(rows: np.ndarray) -> BandStats:
    # summation order fixed by row order, which is fixed by replicate index
    mean = rows.mean(axis=0)
    return BandStats(mean=tuple(float(v) for v in mean),
                     min=tuple(float(v) for v in rows.min(axis=0)),
                     max=tuple(float(v) for v in rows.max(axis=0)))


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
