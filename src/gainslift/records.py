"""Scored records and deterministic ranking.

A test set is a list of :class:`ScoredRecord` (id, score, true label). All
downstream measures operate on a :class:`RankedTestSet`, which fixes the
descending-score order once, resolves ties according to a policy, and holds
the set as columns (ids, scores, prefix positive counts, tie-group bounds). A
gains query at one cutoff, at several or at all is one `_gains_at` call: a
prefix read, or a tie-group search under the expected policy.
"""

from __future__ import annotations

import math
import operator
from array import array
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

    The expected value follows Fawcett (2006, "An introduction to ROC
    analysis", Pattern Recognition Letters 27(8)): equal scores are one
    step of the curve, and inside it the expected performance is the
    straight line across the step, whatever order the group is read in.
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

    The set is held as columns in rank order: `ids` (an object array of the
    record ids), float64 scores, the int64 prefix positive counts and the
    bounds of the equal-score groups (the rank where each starts, then N).
    The prefix counts are the one record of the labels: a record's label
    is the difference of two neighbouring counts, and a group's positives
    the difference across its bounds. A set built without its ids (the
    command line ranks most files so) refuses to give them out: `ids` and
    `records` raise.
    Instances are immutable after construction (every array is read-only);
    they may be shared across threads freely. Build one with
    :func:`rank_records`. Single-cutoff queries return Python ints and
    `Fraction`s, never numpy scalars.
    """

    __slots__ = ("_ids", "tie_policy", "n_total", "n_pos", "n_neg", "_scores",
                 "_prefix_pos", "_group_bounds", "_records")

    def __init__(self, ids: np.ndarray | None, scores: np.ndarray,
                 labels: np.ndarray, tie_policy: TiePolicy):
        prefix = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(labels, out=prefix[1:])
        # tie groups: a new group starts at rank 0 and wherever the score
        # changes; group k holds ranks bounds[k] to bounds[k + 1] - 1
        bounds = np.flatnonzero(np.concatenate(
            ([True], scores[1:] != scores[:-1], [True])))
        self._ids = ids
        self.tie_policy = tie_policy
        self.n_total = len(labels)
        self.n_pos = int(prefix[-1])
        self.n_neg = self.n_total - self.n_pos
        self._scores = scores
        self._prefix_pos = prefix
        self._group_bounds = bounds
        for column in (scores, prefix, bounds):
            column.flags.writeable = False
        if ids is not None:
            ids.flags.writeable = False
        self._records: tuple[ScoredRecord, ...] | None = None

    @property
    def ids(self) -> np.ndarray:
        """The record ids in rank order, an object array."""
        if self._ids is None:
            raise ValidationError("this ranked set was built without its ids")
        return self._ids

    @property
    def records(self) -> tuple[ScoredRecord, ...]:
        """The records in rank order, built from the columns on first use."""
        if self._records is None:
            self._records = tuple(map(ScoredRecord, self.ids,
                                      self._scores.tolist(),
                                      np.diff(self._prefix_pos).tolist()))
        return self._records

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(np.diff(self._prefix_pos).tolist())

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(self._scores.tolist())

    def positives_in_prefix(self, n: int) -> Gain:
        """Positive count among the top-n ranks, fractional under the
        expected-value tie policy when n falls inside a tie group; a cutoff
        outside [0, N] raises ValidationError. Like every single-cutoff
        measure, it checks n once and hands it to `_gains_at` as it is."""
        return self._checked_gains(n)[1]

    def _checked_gains(self, n: int, minimum: int = 0) -> tuple[int, Gain]:
        """The cutoff n as a Python int (see `_integer_cutoff`), once it is
        known to lie in [minimum, N], and its gains: one check, one kernel
        read."""
        n = _integer_cutoff(n)
        if n < minimum or n > self.n_total:
            raise ValidationError(
                f"cutoff n={n} out of range [{minimum}, {self.n_total}]")
        num, den = self._gains_at(n)
        if den != 1 and num % den:  # a cutoff inside an expected tie group
            return n, Fraction(int(num), int(den))
        return n, int(num) // int(den)

    def _gains_at(self, cutoffs: int | np.ndarray):
        """Exact gains at one cutoff or an int array of cutoffs in [0, N],
        in any order and with repeats, as unreduced int64 `num`, `den`
        (numpy integers for one cutoff): the one kernel of every gains query
        and, with `_group_bounds`, the one reader of how gains are laid out.
        They are the prefix counts over the int 1 (no column), except under
        the expected policy, where a cutoff n in the tie group of ranks
        s+1..s+g with q positives gets prefix[s] * g + q * (n - s) over g,
        whole or not. Both stay below N**2, far inside int64."""
        prefix = self._prefix_pos
        if self.tie_policy is not TiePolicy.EXPECTED_VALUE:
            return prefix[cutoffs], 1
        bounds = self._group_bounds
        # the group of rank n is the first to end at or past n (group 0 for
        # the cutoff 0)
        group = np.searchsorted(bounds[1:], cutoffs)
        start, end = bounds[group], bounds[group + 1]
        size = end - start
        return (prefix[start] * size
                + (prefix[end] - prefix[start]) * (cutoffs - start)), size

    def tie_groups(self) -> Iterable[tuple[int, int, int]]:
        """Yield (start, end, positives) per equal-score group, rank order."""
        bounds = self._group_bounds
        return zip(bounds[:-1].tolist(), bounds[1:].tolist(),
                   np.diff(self._prefix_pos[bounds]).tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RankedTestSet(n={self.n_total}, pos={self.n_pos}, "
                f"neg={self.n_neg}, tie_policy={self.tie_policy.value})")


def _integer_cutoff(n) -> int:
    """The cutoff n as a Python int, such as from a numpy integer; a bool is
    no cutoff."""
    try:
        if isinstance(n, bool):  # an int, but True is no cutoff
            raise TypeError
        return operator.index(n)
    except TypeError:
        raise ValidationError(
            f"cutoff n must be an integer, got {n!r}") from None


def _first_fault(records: Sequence[ScoredRecord]) -> None:
    """Raise the diagnostic for the first invalid record, checking each
    record's label, then its score, then whether its id repeats."""
    seen: set[str] = set()
    for rec in records:
        if rec.label not in (0, 1):
            raise ValidationError(
                f"record {rec.id!r}: label must be 0 or 1, got {rec.label!r}")
        try:
            finite = math.isfinite(rec.score)
        except TypeError:
            raise ValidationError(f"record {rec.id!r}: score must be a number, "
                                  f"got {rec.score!r}") from None
        except OverflowError:  # an int past the float range, maybe too long to repr
            raise ValidationError(
                f"record {rec.id!r}: score is beyond the float range") from None
        except ValueError:  # Decimal("sNaN") has no float
            finite = False
        if not finite:
            raise ValidationError(
                f"record {rec.id!r}: score must be finite, got {rec.score!r}")
        try:
            repeated = rec.id in seen
        except TypeError:
            raise ValidationError(
                f"record {rec.id!r}: id must be hashable") from None
        if repeated:
            raise ValidationError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)


def _columns(records: Sequence[ScoredRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The float64 score and int64 label columns of valid records, in input
    order: the one check of a record set, which `rank_records` and the
    resampler's `run_plan` and `stratified_sample` share.

    Each check is one pass over a whole column: the labels (read by
    `_label_column`, in one call where they are small ints), the scores (read
    by `array("d")`, which like `math.isfinite` and unlike numpy rejects
    strings), then, once both pass, the sorted hashes of the ids. When a
    pass fails, `_first_fault` names the first offending record; distinct
    ids that merely share a hash pass.
    """
    try:
        labels = _label_column([r.label for r in records])
        scores = np.frombuffer(array("d", [r.score for r in records]))
        # labels that are one-element sequences make a column of shape (n, 1)
        valid = (labels.shape == scores.shape and np.isfinite(scores).all()
                 and ((labels == 0) | (labels == 1)).all())
        if valid:
            valid = not _any_equal(np.fromiter(
                (hash(r.id) for r in records), np.int64, count=len(records)))
    except (TypeError, ValueError, OverflowError):  # a value no column holds
        _first_fault(records)
        raise
    if not valid:
        _first_fault(records)
    return scores, labels.astype(np.int64, copy=False)


def _label_column(labels: list) -> np.ndarray:
    """The labels as one array: read by `bytes` in one call where all are
    ints or bools in 0..255, else by `np.array`, which infers a dtype value
    by value (and may raise for a value no column holds)."""
    try:
        return np.frombuffer(bytes(labels), np.uint8)
    except (TypeError, ValueError):  # not all ints, or not all in 0..255
        return np.array(labels)


def _any_equal(keys: np.ndarray) -> bool:
    """Whether two of the keys are equal; sorts `keys` in place."""
    keys.sort()
    return bool((keys[1:] == keys[:-1]).any())


def rank_records(records: Sequence[ScoredRecord],
                 tie_policy: TiePolicy = TiePolicy.INPUT_ORDER) -> RankedTestSet:
    """Sort records by descending score into a RankedTestSet.

    Ties are resolved per `tie_policy`; the expected-value policy keeps the
    input order but marks tie groups so cutoff queries can average over them.
    Raises ValidationError for empty input, then whatever `_columns`, the
    check the resampler's pool goes through too, raises: for a non-binary
    label, a non-finite score or a duplicate id, each with its own diagnostic.
    """
    if not records:
        raise ValidationError("test set is empty: at least one record required")
    scores, labels = _columns(records)
    ids = np.fromiter((r.id for r in records), object, count=len(records))
    return _rank_columns(ids, scores, labels, tie_policy)


def _rank_columns(ids: np.ndarray | bytes | None, scores: np.ndarray,
                  labels: np.ndarray, tie_policy: TiePolicy) -> RankedTestSet:
    """Rank validated columns in input order: non-empty unique ids, finite
    float64 scores and 0/1 int64 labels. The ids are an object array; the
    loader's block-route form, which only the id policy reads (it does
    wherever scores tie): a uint64 column of the words (`_id_word`) of ids
    of at most eight bytes, or each id's UTF-8 bytes followed by a newline;
    or None where nothing reads them. The set holds them only from an object
    array, so that its `ids` raise for the other forms.

    The rank order is descending score; within equal scores (0.0 and -0.0
    are equal) it is ascending row index, or ascending id under the id
    policy: what a stable sort on (-score) or (-score, id) gives. One kernel
    serves every policy. The unstable `np.argsort` (a SIMD quicksort on CPUs
    that have one) orders the scores, and when no two are equal its order is
    the answer. Otherwise each equal-score group gets its number g in rank
    order, and one int64 sort of g * n + w, where w is the row index or the
    id's rank, puts every group back in order; subtracting g * n leaves w.
    The key stays below n**2 < 2**63, so the kernel is exact for
    n < 3.0e9 rows. The ids' ranks come from `_rows_by_id`, which sorts
    their UTF-8 bytes in numpy, eight at a time, into Python's string order,
    with memory that grows with the total id bytes; ids that are not all
    `str`, or where some id holds a NUL or a newline, it orders by `sorted`.
    """
    order = _rank_order(ids, scores, tie_policy)
    held = isinstance(ids, np.ndarray) and ids.dtype == object
    return RankedTestSet(ids[order] if held else None,
                         scores[order], labels[order], tie_policy)


def _rank_order(ids: np.ndarray | bytes | None, scores: np.ndarray,
                tie_policy: TiePolicy) -> np.ndarray:
    """The rows in the rank order of `_rank_columns`."""
    n = len(scores)
    # the id order is sorted only where some scores tie
    id_policy = tie_policy is TiePolicy.ID_ORDER
    order = np.argsort(-scores)
    ranked = scores[order]
    starts_group = ranked[1:] != ranked[:-1]
    if starts_group.all():
        return order
    base = np.zeros(n, dtype=np.int64)  # group number times n, rank order
    np.cumsum(starts_group, out=base[1:])
    base *= n
    within = order
    if id_policy:
        by_id = _rows_by_id(ids)
        id_rank = np.empty(n, dtype=np.intp)
        id_rank[by_id] = np.arange(n)
        within = id_rank[order]
    key = base + within
    key.sort()
    key -= base
    return by_id[key] if id_policy else key


# _PREFIX_MASK[k] keeps the first k bytes of a big-endian 64-bit word
_PREFIX_MASK = np.array([(-1 << 8 * (8 - k)) & ((1 << 64) - 1)
                         for k in range(9)], dtype=np.uint64)


def _id_word(blob: bytes, starts: np.ndarray, sizes: np.ndarray,
             offset: int) -> np.ndarray:
    """Bytes `offset` to `offset + 7` of each id of `sizes[k]` bytes at
    `starts[k]` in `blob` (which ends in seven bytes past every id), read
    big-endian with zeros past the id's end, as uint64."""
    end = len(blob) - 8
    words = np.ndarray((end + 1,), dtype="<u8", buffer=blob, strides=(1,))
    at = starts + offset
    np.minimum(at, end, out=at)
    key = words[at].byteswap(inplace=True)  # a little-endian gather is faster
    np.subtract(sizes, offset, out=at)
    np.minimum(at, 8, out=at)  # not np.clip, which is slower
    key &= _PREFIX_MASK[np.maximum(at, 0, out=at)]
    return key


def _rows_by_id(ids: np.ndarray | bytes) -> np.ndarray:
    """The rows in ascending Python-string (code point) order of their ids.

    The ids are ordered as their UTF-8 bytes (`surrogatepass`, so lone
    surrogates too), whose order is code-point order, in one form: each
    id's bytes followed by a newline. The loader's block route hands its ids
    over so (valid UTF-8, with no NUL or newline in an id) where one has
    more than eight bytes, and else as a uint64 column of their words
    (below), which one `np.argsort` orders. Texts are joined and encoded so
    once, here, unless they are not all `str` or some id holds a NUL or a
    newline. Those `sorted` orders, and ids it cannot compare raise
    ValidationError.

    An id's word at offset o is its bytes o to o + 7 read big-endian, with
    zeros past its end; as no id holds a NUL, the zeros read as an end that
    comes before every byte. One unstable `np.argsort` orders the first
    words; only the rows in runs of equal words go on to their next word,
    at each offset below the longest id. Where two distinct ids' words first
    differ, either both hold a byte there, or the one that has ended, a
    prefix of the other, reads a zero against a nonzero byte: the order is
    Python's. Ids of at most eight bytes, such as `r012345`, are ordered by
    the first sort alone; equal ids, which only a direct caller passes, end
    adjacent. Each further pass sorts its tied rows by one int64 key, run
    number times m plus the row's rank within its pass of m rows (below
    n**2 < 2**63). Memory is the joined text and its UTF-8 bytes, plus a
    few int64 columns of n: it grows with the total id bytes, never with
    the longest id times n.
    """
    if isinstance(ids, np.ndarray) and ids.dtype == np.uint64:
        return np.argsort(ids)  # the block route's words: each a whole id
    if isinstance(ids, bytes):  # the block route's text, as it is
        blob, texts = ids + bytes(7), None
    else:
        texts = ids.tolist()
        texts.append("\0" * 7)  # after the last id's newline: a whole word
        try:
            blob = "\n".join(texts).encode("utf-8", "surrogatepass")
        except TypeError:  # ids that are not all str
            blob = b""
        del texts[-1]
    data = np.frombuffer(blob, dtype=np.uint8)
    sizes = np.flatnonzero(data == 10)  # the newline after each id
    # a NUL or a newline in an id would read as its end or its start
    if texts is not None and (len(sizes) != len(texts)
                              or blob.find(0, 0, -7) >= 0):
        try:
            return np.array(sorted(range(len(texts)), key=texts.__getitem__),
                            dtype=np.intp)
        except TypeError as exc:
            raise ValidationError(
                f"the id tie policy cannot order these ids: {exc}") from None
    del texts
    starts = np.zeros(len(sizes), dtype=np.intp)
    np.add(sizes[:-1], 1, out=starts[1:])
    sizes -= starts
    key = _id_word(blob, starts, sizes, 0)
    order = np.argsort(key)
    key = key[order]
    pos = np.arange(len(order))  # the places in `order` of the rows refined
    same = key[1:] == key[:-1]
    for offset in range(8, int(sizes.max(initial=0)), 8):
        if not same.any():
            break
        # the ids of each run of equal words share every byte so far
        tied = np.zeros(len(pos), dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        run = np.zeros(len(pos), dtype=np.int64)
        np.cumsum(~same, out=run[1:])
        pos, run = pos[tied], run[tied]
        m = len(pos)
        rows = order[pos]
        key = _id_word(blob, starts[rows], sizes[rows], offset)
        by_value = np.argsort(key)
        rank = np.empty(m, dtype=np.int64)
        rank[by_value] = np.arange(m)
        run *= m  # runs hold their places: sort within each at once
        rank += run
        rank.sort()
        rank -= run
        within = by_value[rank]
        order[pos] = rows[within]
        key = key[within]
        same = (key[1:] == key[:-1]) & (run[1:] == run[:-1])
    return order
