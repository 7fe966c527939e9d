"""Scored records and deterministic ranking.

A test set is a list of :class:`ScoredRecord` (id, score, true label). All
downstream measures operate on a :class:`RankedTestSet`, which fixes the
descending-score order once, resolves ties according to a policy, and caches
the prefix positive counts so that every cutoff query is O(1);
`RankedTestSet.gains_arrays` gives the gains at every cutoff at once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError

Gain = Union[int, Fraction]


class TiePolicy(Enum):
    """How records with equal scores are ordered (or shared) at a cutoff.

    INPUT_ORDER   keep the input order within a tie group (default).
    ID_ORDER      sort tie groups ascending by id, so the ranking is
                  reproducible no matter how the input was shuffled.
    EXPECTED_VALUE keep input order for display, but let gains at a cutoff
                  inside a tie group count the group's positive fraction,
                  yielding fractional (statistically fair) gains.
    """

    INPUT_ORDER = "input"
    ID_ORDER = "id"
    EXPECTED_VALUE = "expected"


@dataclass(frozen=True, slots=True)
class ScoredRecord:
    """One test-set record: opaque id, ranking score, binary true label."""

    id: str
    score: float
    label: int


class RankedTestSet:
    """Records sorted by descending score with a tie policy applied.

    Instances are immutable after construction; they may be shared across
    threads freely. Build one with :func:`rank_records`.
    """

    __slots__ = ("records", "tie_policy", "n_total", "n_pos", "n_neg",
                 "_prefix_pos", "_group_ends", "_group_pos")

    def __init__(self, records: tuple[ScoredRecord, ...], tie_policy: TiePolicy):
        self.records = records
        self.tie_policy = tie_policy
        self.n_total = len(records)
        self.n_pos = sum(r.label for r in records)
        self.n_neg = self.n_total - self.n_pos

        prefix = [0] * (self.n_total + 1)
        for i, rec in enumerate(records):
            prefix[i + 1] = prefix[i] + rec.label
        self._prefix_pos = tuple(prefix)

        # Tie-group boundaries: end index (exclusive) and positives per group
        # of equal-score records, in rank order.
        ends: list[int] = []
        pos: list[int] = []
        i = 0
        while i < self.n_total:
            j = i
            while j < self.n_total and records[j].score == records[i].score:
                j += 1
            ends.append(j)
            pos.append(prefix[j] - prefix[i])
            i = j
        self._group_ends = tuple(ends)
        self._group_pos = tuple(pos)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(r.label for r in self.records)

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(r.score for r in self.records)

    def check_cutoff(self, n: int, minimum: int = 0) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValidationError(f"cutoff n must be an integer, got {n!r}")
        if n < minimum or n > self.n_total:
            raise ValidationError(
                f"cutoff n={n} out of range [{minimum}, {self.n_total}]")

    def positives_in_prefix(self, n: int) -> Gain:
        """Positive count among the top-n ranks, fractional under the
        expected-value tie policy when n falls inside a tie group."""
        if self.tie_policy is not TiePolicy.EXPECTED_VALUE or n == 0:
            return self._prefix_pos[n]
        # group owning rank n: first group whose exclusive end exceeds n-1
        g = bisect_right(self._group_ends, n - 1)
        start = self._group_ends[g - 1] if g > 0 else 0
        end = self._group_ends[g]
        if n == end:
            return self._prefix_pos[n]
        size = end - start
        inside = n - start
        value = self._prefix_pos[start] + Fraction(self._group_pos[g] * inside, size)
        return int(value) if value.denominator == 1 else value

    def gains_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact gains at every cutoff n = 0..N as int64 arrays `num`, `den`
        in lowest terms: num[n] / den[n] == positives_in_prefix(n).

        The denominator is 1 except at cutoffs inside a tie group under the
        expected-value policy.
        """
        prefix = np.array(self._prefix_pos, dtype=np.int64)
        den = np.ones_like(prefix)
        if self.tie_policy is not TiePolicy.EXPECTED_VALUE:
            return prefix, den
        ends = np.array(self._group_ends, dtype=np.int64)
        sizes = np.diff(ends, prepend=0)
        group = np.repeat(np.arange(len(ends)), sizes)  # group of rank n = 1..N
        start = (ends - sizes)[group]
        inside = np.arange(1, self.n_total + 1) - start
        # prefix[start] + group_pos * inside / size, over the group size
        num = prefix.copy()
        num[1:] = (prefix[start] * sizes[group]
                   + np.array(self._group_pos, dtype=np.int64)[group] * inside)
        den[1:] = sizes[group]
        common = np.gcd(num, den)
        return num // common, den // common

    def tie_groups(self) -> Iterable[tuple[int, int, int]]:
        """Yield (start, end, positives) per equal-score group, rank order."""
        start = 0
        for g, end in enumerate(self._group_ends):
            yield start, end, self._group_pos[g]
            start = end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RankedTestSet(n={self.n_total}, pos={self.n_pos}, "
                f"neg={self.n_neg}, tie_policy={self.tie_policy.value})")


def _validate(records: Sequence[ScoredRecord]) -> None:
    if not records:
        raise ValidationError("test set is empty: at least one record required")
    seen: set[str] = set()
    for rec in records:
        if rec.label not in (0, 1):
            raise ValidationError(
                f"record {rec.id!r}: label must be 0 or 1, got {rec.label!r}")
        if not math.isfinite(rec.score):
            raise ValidationError(
                f"record {rec.id!r}: score must be finite, got {rec.score!r}")
        if rec.id in seen:
            raise ValidationError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)


def rank_records(records: Sequence[ScoredRecord],
                 tie_policy: TiePolicy = TiePolicy.INPUT_ORDER) -> RankedTestSet:
    """Sort records by descending score into a RankedTestSet.

    Ties are resolved per `tie_policy`; the expected-value policy keeps the
    input order but marks tie groups so cutoff queries can average over them.
    Raises ValidationError for empty input, non-binary labels, non-finite
    scores, or duplicate ids (each with its own diagnostic).
    """
    _validate(records)
    if tie_policy is TiePolicy.ID_ORDER:
        ordered = sorted(records, key=lambda r: (-r.score, r.id))
    else:
        ordered = sorted(records, key=lambda r: -r.score)
    return RankedTestSet(tuple(ordered), tie_policy)


def reranked_copy(ranked: RankedTestSet,
                  labels: Sequence[int]) -> RankedTestSet:
    """A new set with the same ids/scores/order but replaced labels.

    Used for label perturbations where the ranking itself must not move.
    """
    if len(labels) != ranked.n_total:
        raise ValidationError(
            f"expected {ranked.n_total} labels, got {len(labels)}")
    replaced = []
    for rec, lab in zip(ranked.records, labels):
        if lab not in (0, 1):
            raise ValidationError(
                f"record {rec.id!r}: label must be 0 or 1, got {lab!r}")
        replaced.append(ScoredRecord(rec.id, rec.score, int(lab)))
    return RankedTestSet(tuple(replaced), ranked.tie_policy)
