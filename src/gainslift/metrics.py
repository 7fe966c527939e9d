"""Single-classifier measures on a ranked test set.

Everything here is exact: counts are integers, ratios are `Fraction`s.
Floating-point enters only when a caller asks for it (chart layout, text
rendering). `render_decimal` reproduces fixed-precision half-up rounding so
printed tables are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError
from .records import Gain, RankedTestSet

Number = Union[int, float, Fraction]


class XKind(Enum):
    COUNT = "count-n"
    FRACTION = "fraction-n-over-N"
    FPR = "fpr"


@dataclass(frozen=True, slots=True)
class CostSpec:
    """Per-record net benefits: q_tp for a true positive, q_fp (usually
    negative) for a false positive."""

    q_tp: float
    q_fp: float

    def __post_init__(self) -> None:
        for name, v in (("q_tp", self.q_tp), ("q_fp", self.q_fp)):
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True, slots=True)
class NConfusionMatrix:
    """Confusion matrix restricted to the top-n records.

    All n records count as predicted positive, so the predicted-negative
    column is identically zero. Under the expected-value tie policy tp/fp
    may be fractional.
    """

    n: int
    tp: Gain
    fp: Gain
    fn: int = 0
    tn: int = 0


# integer columns: exact products, lowest terms, floats and texts

_INT64_MAX = 2**63 - 1
_FLOAT_EXACT = 2**53  # every integer of at most this magnitude is a float64


def _magnitude(column) -> int:
    column = np.asarray(column)
    return max(-int(column.min()), int(column.max())) if column.size else 0


def _product(a, b) -> np.ndarray:
    """Exact elementwise a * b of integer columns (or ints): int64 when no
    operand or product can pass 2**63 - 1, otherwise Python ints in an
    object array. A product never wraps."""
    ma, mb = _magnitude(a), _magnitude(b)
    if max(ma, mb, ma * mb) > _INT64_MAX:
        a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return np.multiply(a, b)


def _sum(a, b) -> np.ndarray:
    """Exact elementwise a + b, in int64 or Python ints as `_product`."""
    if _magnitude(a) + _magnitude(b) > _INT64_MAX:
        a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return np.add(a, b)


def _lowest_terms(num: np.ndarray, den: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """num / den with each pair divided by its gcd (den > 0)."""
    if num.dtype == object or den.dtype == object:
        num, den = num.astype(object), den.astype(object)
    common = np.gcd(num, den)
    return num // common, den // common


def _int_column(values: list[int]) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        column = np.empty(len(values), dtype=object)
        column[:] = values
        return column


def _float(num: int, den: int, what: str = "a value") -> float:
    """num / den as float(Fraction(num, den)); a quotient past the float
    range raises ValidationError naming it, not OverflowError."""
    try:
        return num / den
    except OverflowError:
        value = Decimal(num) / Decimal(den)
        raise ValidationError(
            f"{what} is {value:.6e}, beyond the float range") from None


def _ratio_floats(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """float64 of every num / den, each equal to float(Fraction(num, den)).

    Where both integers are exact in float64 one float division gives the
    correctly rounded quotient; elsewhere Python's int / int does.
    """
    if num.dtype == object or den.dtype == object:
        return np.array(list(map(_float, num.tolist(), den.tolist())),
                        dtype=np.float64)
    out = num / den
    big = np.flatnonzero((num > _FLOAT_EXACT) | (num < -_FLOAT_EXACT)
                         | (den > _FLOAT_EXACT))
    if big.size:
        out[big] = [n / d for n, d in zip(num[big].tolist(), den[big].tolist())]
    return out


@dataclass(frozen=True, eq=False)
class RationalColumn:
    """Exact rationals num / den in lowest terms with den > 0."""

    num: np.ndarray
    den: np.ndarray

    @classmethod
    def of(cls, values) -> "RationalColumn":
        """The column of any ints, floats or `Fraction`s, exactly."""
        fractions = [Fraction(v) for v in values]
        return cls(_int_column([f.numerator for f in fractions]),
                   _int_column([f.denominator for f in fractions]))

    def floats(self) -> np.ndarray:
        return _ratio_floats(self.num, self.den)

    def reprs(self) -> list[str]:
        """repr of each value's float, the shortest text that reads back as
        that float."""
        return self._per_run(
            lambda num, den: list(map(repr, _ratio_floats(num, den).tolist())))

    def texts(self) -> list[str]:
        """'num/den' per value, denominator always written."""
        return self._per_run(lambda num, den: [
            f"{n}/{d}" for n, d in zip(num.tolist(), den.tolist())])

    def _per_run(self, texts_of) -> list[str]:
        """texts_of(num, den) of the first value of each run of equal values,
        repeated over its run: equal (num, den) pairs give equal floats and
        equal texts, so each run is formatted once."""
        num, den = self.num, self.den
        first = np.ones(len(num), dtype=bool)
        # != compares int64 and object (Python int) columns alike
        first[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
        starts = np.flatnonzero(first)
        texts = np.array(texts_of(num[starts], den[starts]), dtype=object)
        return np.repeat(texts, np.diff(starts, append=len(num))).tolist()

    def fractions(self) -> list[Fraction]:
        return list(map(Fraction, self.num.tolist(), self.den.tolist()))


class CurveSeries:
    """A named sequence of exact (x, y) points carrying chart/export data.

    The coordinates are held as integer columns in lowest terms, x =
    x.num / x.den and y = y.num / y.den: int64 arrays, or object arrays of
    Python ints where a value would not fit. The series kernels build the
    columns directly (`from_columns`); `CurveSeries(name, x_kind, points)`
    builds them from (x, y) pairs of rationals. `.points`, a tuple of
    `Fraction` pairs, is built from the columns on first access.
    """

    __slots__ = ("name", "x_kind", "x", "y", "_points")

    def __init__(self, name: str, x_kind: XKind,
                 points: Sequence[tuple[Number, Number]]):
        points = tuple(points)
        self._set(name, x_kind, RationalColumn.of(x for x, _ in points),
                  RationalColumn.of(y for _, y in points))
        self._points = points

    @classmethod
    def from_columns(cls, name: str, x_kind: XKind,
                     x: tuple[np.ndarray, np.ndarray],
                     y: tuple[np.ndarray, np.ndarray]) -> "CurveSeries":
        """A series over (numerator, denominator) column pairs already in
        lowest terms with positive denominators."""
        series = cls.__new__(cls)
        series._set(name, x_kind, RationalColumn(*x), RationalColumn(*y))
        series._points = None
        return series

    def _set(self, name: str, x_kind: XKind, x: RationalColumn,
             y: RationalColumn) -> None:
        self.name = name
        self.x_kind = x_kind
        self.x = x
        self.y = y
        for column in (x.num, x.den, y.num, y.den):
            column.flags.writeable = False
        # x[i] < x[i+1] by cross-multiplying over the positive denominators
        later = _product(x.num[1:], x.den[:-1])
        earlier = _product(x.num[:-1], x.den[1:])
        if x_kind is XKind.FPR:
            if np.any(later < earlier):
                raise ValidationError(
                    f"series {name!r}: fpr x values must be non-decreasing")
        elif np.any(later <= earlier):
            raise ValidationError(
                f"series {name!r}: x values must be strictly increasing")

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        if self._points is None:
            self._points = tuple(zip(self.x.fractions(), self.y.fractions()))
        return self._points

    def __len__(self) -> int:
        return len(self.x.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveSeries):
            return NotImplemented
        return ((self.name, self.x_kind) == (other.name, other.x_kind)
                and all(np.array_equal(a, b) for a, b in (
                    (self.x.num, other.x.num), (self.x.den, other.x.den),
                    (self.y.num, other.y.num), (self.y.den, other.y.den))))

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CurveSeries(name={self.name!r}, x_kind={self.x_kind}, "
                f"points={len(self)})")

    def as_floats(self) -> list[tuple[float, float]]:
        return list(zip(self.x.floats().tolist(), self.y.floats().tolist()))


def render_decimal(value: Number, places: int = 5) -> str:
    """Render exactly, rounding half away from zero at `places` decimals.

    Matches the fixed-precision style of printed gains tables, so equal
    rationals always render to equal strings.
    """
    if places < 0:
        raise ValidationError("places must be >= 0")
    f = Fraction(value)
    scaled = f * 10**places
    half = Fraction(1, 2)
    magnitude = math.floor(abs(scaled) + half)
    digits = str(magnitude).rjust(places + 1, "0")
    sign = "-" if f < 0 and magnitude > 0 else ""
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def render_exact(value: Number) -> str:
    """Numerator/denominator rendering, e.g. '135/144'; integers plain."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# cutoff measures
# ---------------------------------------------------------------------------

def cum_gains(ranked: RankedTestSet, n: int) -> Gain:
    """True positives among the top-n ranked records (0 <= n <= N)."""
    n = ranked.check_cutoff(n)
    return ranked.positives_in_prefix(n)


def p_cum_gains(ranked: RankedTestSet, n: int) -> Fraction:
    """Cumulative gains as a fraction of all positives in the set.

    Like lift, defined for cutoffs n >= 1 only.
    """
    n = ranked.check_cutoff(n, minimum=1)
    if ranked.n_pos == 0:
        raise ValidationError("p_cum_gains undefined: the set has no positives")
    return Fraction(ranked.positives_in_prefix(n), ranked.n_pos)


def lift(ranked: RankedTestSet, n: int) -> Fraction:
    """Positive rate in the top-n relative to the whole-set positive rate.

    Random targeting gives 1.0; n must be at least 1 because the ratio
    divides by n.
    """
    n = ranked.check_cutoff(n, minimum=1)
    if ranked.n_pos == 0:
        raise ValidationError("lift undefined: the set has no positives")
    return Fraction(ranked.positives_in_prefix(n) * ranked.n_total,
                    n * ranked.n_pos)


def cutoff_for(share: Fraction, n_total: int) -> int:
    """The cutoff ceil(share * n_total), in exact integer arithmetic.

    A float product can land just above an integer (0.07 * 100 is
    7.000000000000001) and push the ceiling one record too far.
    """
    return -(-share.numerator * n_total // share.denominator)


def decile_lift(ranked: RankedTestSet) -> list[Fraction]:
    """Lift at the ten cutoffs n_k = ceil(k*N/10); the last is always 1."""
    if ranked.n_pos == 0:
        raise ValidationError("decile lift undefined: the set has no positives")
    cutoffs = [cutoff_for(Fraction(k, 10), ranked.n_total) for k in range(1, 11)]
    return [lift(ranked, n) for n in cutoffs]


def cum_benefit(ranked: RankedTestSet, n: int, costs: CostSpec) -> float:
    """Net benefit of acting on the top-n records: tp*q_tp + fp*q_fp, in
    floats; the exact `benefit_series` can differ in the last bits. When a
    float product overflows, the exact sum is rounded instead, and a sum
    past the float range raises ValidationError."""
    n = ranked.check_cutoff(n)
    tp = ranked.positives_in_prefix(n)
    fp = n - tp
    value = tp * costs.q_tp + fp * costs.q_fp
    if math.isfinite(value):
        return value
    exact = tp * Fraction(costs.q_tp) + fp * Fraction(costs.q_fp)
    return _float(exact.numerator, exact.denominator,
                  f"the net benefit at n={n}")


def n_confusion_matrix(ranked: RankedTestSet, n: int) -> NConfusionMatrix:
    """Top-n confusion matrix: every one of the n records is predicted
    positive, so fn = tn = 0 and tp + fp = n."""
    n = ranked.check_cutoff(n, minimum=1)
    tp = ranked.positives_in_prefix(n)
    return NConfusionMatrix(n=n, tp=tp, fp=n - tp)


def random_targeting_rate(ranked: RankedTestSet) -> Fraction:
    """The whole-set positive rate: the slope of the diagonal reference."""
    return Fraction(ranked.n_pos, ranked.n_total)


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

def _require_both_classes(ranked: RankedTestSet, what: str) -> None:
    if ranked.n_pos == 0 or ranked.n_neg == 0:
        raise ValidationError(
            f"{what} undefined for a single-class set "
            f"(positives={ranked.n_pos}, negatives={ranked.n_neg})")


def roc_points(ranked: RankedTestSet, name: str = "roc") -> CurveSeries:
    """ROC curve points with one cutoff per distinct score.

    A tie group advances as a single step, so the curve is invariant to the
    tie policy. Starts at (0,0); the final cutoff is always (1,1).
    """
    _require_both_classes(ranked, "ROC")
    ends = np.append(0, ranked._group_ends)
    cum_pos = ranked._prefix_pos[ends]
    cum_neg = ends - cum_pos
    return CurveSeries.from_columns(
        name, XKind.FPR,
        _lowest_terms(cum_neg, np.full_like(ends, ranked.n_neg)),
        _lowest_terms(cum_pos, np.full_like(ends, ranked.n_pos)))


def auc_pairs(ranked: RankedTestSet) -> Fraction:
    """AUC by direct positive/negative pair counting on scores.

    Each pair contributes 1 if the positive scored strictly higher, 1/2 on a
    score tie, 0 otherwise. Tie-break order never enters, so every tie policy
    yields the same value. The pairs are counted without being formed: with
    the negative scores sorted once, a binary search per positive gives how
    many negatives score strictly below it and how many tie with it, in
    O((P + N) log N) time and O(P + N) memory.
    """
    _require_both_classes(ranked, "AUC")
    scores, labels = ranked._scores, ranked._labels
    neg = np.sort(scores[labels == 0])
    pos = scores[labels == 1]
    below = np.searchsorted(neg, pos, side="left")
    not_above = np.searchsorted(neg, pos, side="right")
    wins = int(below.sum())
    ties = int((not_above - below).sum())
    return Fraction(2 * wins + ties, 2 * ranked.n_pos * ranked.n_neg)


def auc_wilcoxon(ranked: RankedTestSet) -> Fraction:
    """AUC from the rank-sum statistic with midranks for tied scores.

    Ranks ascend with score. A tie group at ranks s+1..s+g has doubled
    midrank 2s + g + 1, so the doubled rank sum of the positives, less
    n_pos*(n_pos+1), is twice the Mann-Whitney U, an integer; U/(n_pos*n_neg)
    equals the pair-counting AUC on every input (Hanley & McNeil, "The
    meaning and use of the area under a receiver operating characteristic
    (ROC) curve", Radiology 143(1), 1982).
    """
    _require_both_classes(ranked, "AUC")
    ends = ranked._group_ends
    sizes = np.diff(ends, prepend=0)
    below = ranked.n_total - ends  # records with strictly lower score
    doubled_rank_sum = int((ranked._group_pos * (2 * below + sizes + 1)).sum())
    doubled_u = doubled_rank_sum - ranked.n_pos * (ranked.n_pos + 1)
    return Fraction(doubled_u, 2 * ranked.n_pos * ranked.n_neg)


# ---------------------------------------------------------------------------
# chart/export series
# ---------------------------------------------------------------------------

def gains_series(ranked: RankedTestSet, fraction: bool = False,
                 name: str = "gains") -> CurveSeries:
    """Cumulative gains per cutoff: (n, gains) or (n/N, gains/positives)."""
    if fraction and ranked.n_pos == 0:
        raise ValidationError("fractional gains undefined: no positives")
    num, den = ranked.gains_arrays()
    num, den = num[1:], den[1:]
    gains = (_lowest_terms(num, _product(den, ranked.n_pos)) if fraction
             else (num, den))
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries.from_columns(name, kind,
                                    _cutoff_axis(ranked.n_total, fraction), gains)


def lift_series(ranked: RankedTestSet, fraction: bool = True,
                name: str = "lift") -> CurveSeries:
    """Lift per cutoff n = 1..N against n or n/N: gains * N / (n * P)."""
    if ranked.n_pos == 0:
        raise ValidationError("lift undefined: the set has no positives")
    num, den = ranked.gains_arrays()
    counts = np.arange(1, ranked.n_total + 1, dtype=np.int64)
    lifts = _lowest_terms(
        _product(num[1:], ranked.n_total),
        _product(_product(den[1:], counts), ranked.n_pos))
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries.from_columns(name, kind,
                                    _cutoff_axis(ranked.n_total, fraction), lifts)


def _cutoff_axis(n_total: int, fraction: bool) -> tuple[np.ndarray, np.ndarray]:
    """The x column of cutoffs n = 1..N: n, or n/N in lowest terms."""
    counts = np.arange(1, n_total + 1, dtype=np.int64)
    if fraction:
        return _lowest_terms(counts, np.full_like(counts, n_total))
    return counts, np.ones_like(counts)


def benefit_series(ranked: RankedTestSet, costs: CostSpec,
                   name: str = "benefit") -> CurveSeries:
    """Net benefit per cutoff n = 1..N, tp*q_tp + (n - tp)*q_fp, exact in
    the costs' rationals a/b and c/d (`cum_benefit` computes in floats, so
    the two can differ in the last bits at one cutoff): with gains
    tnum/tden, (tnum*a*d + (n*tden - tnum)*c*b) / (tden*b*d)."""
    a, b = Fraction(costs.q_tp).as_integer_ratio()
    c, d = Fraction(costs.q_fp).as_integer_ratio()
    num, den = ranked.gains_arrays()
    num, den = num[1:], den[1:]
    counts = _cutoff_axis(ranked.n_total, False)
    misses = _product(counts[0], den) - num  # false positives, over den
    benefit = _lowest_terms(_sum(_product(num, a * d), _product(misses, c * b)),
                            _product(den, b * d))
    return CurveSeries.from_columns(name, XKind.COUNT, counts, benefit)


def decile_series(ranked: RankedTestSet, name: str = "decile-lift") -> CurveSeries:
    values = decile_lift(ranked)
    points = tuple((Fraction(k), values[k - 1]) for k in range(1, 11))
    return CurveSeries(name=name, x_kind=XKind.COUNT, points=points)


def random_targeting_series(ranked: RankedTestSet, kind: XKind,
                            name: str = "random targeting") -> CurveSeries:
    """Two-point diagonal reference: what targeting at the whole-set positive
    rate would gain."""
    if kind is XKind.COUNT:
        points = ((Fraction(0), Fraction(0)),
                  (Fraction(ranked.n_total), Fraction(ranked.n_pos)))
    else:
        points = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    return CurveSeries(name=name, x_kind=kind, points=points)
