"""Single-classifier measures on a ranked test set.

Everything here is exact: counts are integers, ratios are `Fraction`s, and
curves are integer columns that `CurveSeries.from_columns` alone reduces.
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
    if isinstance(column, (int, np.integer)):
        return abs(int(column))
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


def _lowest_terms(num, den) -> tuple[np.ndarray, np.ndarray]:
    """num / den with each pair divided by its gcd (den > 0), where `den` is
    a column or one integer for all (1 takes no gcd). Any den that is not
    int64 (an object column, or one integer past 2**63 - 1, which numpy
    reads as uint64 or object) sends both to the object route."""
    num, den = np.asarray(num), np.asarray(den)
    if den.ndim == 0 and den == 1:
        return num, np.ones_like(num)
    if num.dtype == object or den.dtype != np.int64:
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
    """Exact rationals num / den in lowest terms with den > 0, as `of` and
    `CurveSeries.from_columns` make them."""

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

    def _reprs(self, floats: np.ndarray) -> list[str]:
        """repr of each value's float, the shortest round-trip text, given
        the column's `floats()`."""
        return self._per_run(lambda at: list(map(repr, floats[at].tolist())))

    def texts(self) -> list[str]:
        """'num/den' per value, denominator always written."""
        return self._per_run(lambda at: [
            f"{n}/{d}" for n, d in zip(self.num[at].tolist(),
                                       self.den[at].tolist())])

    def _per_run(self, texts_of) -> list[str]:
        """texts_of(at), the texts of the values at the positions `at` that
        start a run of equal values, each repeated over its run: equal
        (num, den) pairs give equal floats and equal texts, so each run is
        formatted once."""
        num, den = self.num, self.den
        first = np.ones(len(num), dtype=bool)
        # != compares int64 and object (Python int) columns alike
        first[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
        starts = np.flatnonzero(first)
        texts = texts_of(starts)
        if len(starts) == len(num):  # every run is one value long
            return texts
        return np.repeat(np.array(texts, dtype=object),
                         np.diff(starts, append=len(num))).tolist()

    def fractions(self) -> list[Fraction]:
        return _fractions(self.num, self.den)


def _fractions(num: np.ndarray, den: np.ndarray) -> list[Fraction]:
    """Fraction(num, den) per pair, which reduces it."""
    return list(map(Fraction, num.tolist(), den.tolist()))


class CurveSeries:
    """A named sequence of exact (x, y) points carrying chart/export data.

    The coordinates are held as integer columns in lowest terms, x =
    x.num / x.den and y = y.num / y.den: int64 arrays, or object arrays of
    Python ints where a value would not fit, made by `from_columns` from
    raw columns or by `CurveSeries(name, x_kind, points)` from (x, y) pairs.
    `.points`, a tuple of `Fraction` pairs, is built from the columns on
    first access.
    """

    __slots__ = ("name", "x_kind", "x", "y", "_points")

    def __init__(self, name: str, x_kind: XKind,
                 points: Sequence[tuple[Number, Number]]):
        points = tuple(points)
        self._set(name, x_kind, RationalColumn.of(x for x, _ in points),
                  RationalColumn.of(y for _, y in points))

    @classmethod
    def from_columns(cls, name: str, x_kind: XKind, x: tuple, y: tuple
                     ) -> "CurveSeries":
        """A series over x and y given as (numerator, denominator) pairs, in
        any terms: an integer column over a column or one integer for all,
        every denominator positive. Each value is reduced here."""
        series = cls.__new__(cls)
        series._set(name, x_kind, RationalColumn(*_lowest_terms(*x)),
                    RationalColumn(*_lowest_terms(*y)))
        return series

    def _set(self, name: str, x_kind: XKind, x: RationalColumn,
             y: RationalColumn) -> None:
        if not isinstance(x_kind, XKind):
            raise ValidationError(f"series {name!r}: unknown x kind {x_kind!r}")
        self.name = name
        self.x_kind = x_kind
        self.x = x
        self.y = y
        self._points = None
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


# decimal places `render_decimal` prints at most. A value the command line
# prints has under 400 integer digits (a benefit of float costs), so its
# digits stay within the 4,300 that int-to-str converts by default.
MAX_PLACES = 1000


def render_decimal(value: Number, places: int = 5) -> str:
    """Render exactly, rounding half away from zero at `places` decimals.

    Matches the fixed-precision style of printed gains tables, so equal
    rationals always render to equal strings. `places` runs from 0 to
    `MAX_PLACES`.
    """
    if places < 0:
        raise ValidationError("places must be >= 0")
    if places > MAX_PLACES:
        raise ValidationError(f"places must be <= {MAX_PLACES}")
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
    return ranked.positives_in_prefix(n)


def p_cum_gains(ranked: RankedTestSet, n: int) -> Fraction:
    """Cumulative gains as a fraction of all positives in the set.

    Like lift, defined for cutoffs n >= 1 only.
    """
    gains = ranked._checked_gains(n, minimum=1)[1]
    if ranked.n_pos == 0:
        raise ValidationError("p_cum_gains undefined: the set has no positives")
    return Fraction(gains, ranked.n_pos)


def lift(ranked: RankedTestSet, n: int) -> Fraction:
    """Positive rate in the top-n relative to the whole-set positive rate.

    Random targeting gives 1.0; n must be at least 1 because the ratio
    divides by n.
    """
    n, gains = ranked._checked_gains(n, minimum=1)
    if ranked.n_pos == 0:
        raise ValidationError("lift undefined: the set has no positives")
    return Fraction(gains * ranked.n_total, n * ranked.n_pos)


def cutoff_for(share: Fraction, n_total: int) -> int:
    """The cutoff ceil(share * n_total), in exact integer arithmetic.

    A float product can land just above an integer (0.07 * 100 is
    7.000000000000001) and push the ceiling one record too far.
    """
    return -(-share.numerator * n_total // share.denominator)


def _lift_at(ranked: RankedTestSet, cutoffs: np.ndarray, gains=None,
             what: str = "lift") -> tuple[np.ndarray, np.ndarray]:
    """Lift gains * N / (n * P) at int64 cutoffs n >= 1 as unreduced columns
    (num * N, den * n * P), from the gains num / den at `cutoffs` if given,
    else read here. n * P < N**2 fits int64, as the gains do."""
    if ranked.n_pos == 0:
        raise ValidationError(f"{what} undefined: the set has no positives")
    num, den = ranked._gains_at(cutoffs) if gains is None else gains
    return (_product(num, ranked.n_total),
            _product(den, cutoffs * ranked.n_pos))


_DECILES = tuple(Fraction(k, 10) for k in range(1, 11))


def _decile_lifts(ranked: RankedTestSet) -> tuple[np.ndarray, np.ndarray]:
    cutoffs = np.array([cutoff_for(s, ranked.n_total) for s in _DECILES])
    return _lift_at(ranked, cutoffs, what="decile lift")


def decile_lift(ranked: RankedTestSet) -> list[Fraction]:
    """Lift at the ten cutoffs n_k = ceil(k*N/10); the last is always 1."""
    return _fractions(*_decile_lifts(ranked))


def cum_benefit(ranked: RankedTestSet, n: int, costs: CostSpec) -> float:
    """Net benefit of acting on the top-n records: tp*q_tp + fp*q_fp, in
    floats; the exact `benefit_series` can differ in the last bits. When a
    float product overflows, the exact sum is rounded instead, and a sum
    past the float range raises ValidationError."""
    n, tp = ranked._checked_gains(n)
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
    n, tp = ranked._checked_gains(n, minimum=1)
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
    """ROC curve points at the tie-group bounds: one cutoff per distinct score.

    A tie group advances as a single step (the prefix counts at its bounds),
    so the curve is invariant to the tie policy. It runs from (0,0) to (1,1).
    These are the points of Fawcett's algorithm for equal scores (2006, "An
    introduction to ROC analysis", Pattern Recognition Letters 27(8)).
    """
    _require_both_classes(ranked, "ROC")
    bounds = ranked._group_bounds
    cum_pos = ranked._prefix_pos[bounds]
    return CurveSeries.from_columns(name, XKind.FPR,
                                    (bounds - cum_pos, ranked.n_neg),
                                    (cum_pos, ranked.n_pos))


def auc_wilcoxon(ranked: RankedTestSet) -> Fraction:
    """AUC from the rank-sum statistic with midranks for tied scores.

    Ranks ascend with score, so the tie group at rank-order positions
    s..e-1 holds ranks N-e+1..N-s and has doubled midrank 2N + 1 - s - e.
    With q positives per group, the doubled rank sum of the positives is
    (2N + 1)P - q.s - q.e, two int64 dot products over the group bounds, in
    O(groups) time after ranking; each stays below P*N, far inside int64.
    Less P(P + 1) it is twice the Mann-Whitney U, an integer, and
    U/(P*N_neg) is the pair-counting AUC (1 per pair the positive wins, 1/2
    per score tie) on every input, under every tie policy (Hanley & McNeil,
    "The meaning and use of the area under a receiver operating
    characteristic (ROC) curve", Radiology 143(1), 1982).
    """
    _require_both_classes(ranked, "AUC")
    bounds = ranked._group_bounds
    positives = np.diff(ranked._prefix_pos[bounds])
    n_pos = ranked.n_pos
    doubled_rank_sum = ((2 * ranked.n_total + 1) * n_pos
                        - int(np.dot(positives, bounds[:-1]))
                        - int(np.dot(positives, bounds[1:])))
    doubled_u = doubled_rank_sum - n_pos * (n_pos + 1)
    return Fraction(doubled_u, 2 * n_pos * ranked.n_neg)


# the pair-counting name of the same value (`auc --method pairs`)
auc_pairs = auc_wilcoxon


# ---------------------------------------------------------------------------
# chart/export series
# ---------------------------------------------------------------------------

def gains_series(ranked: RankedTestSet, fraction: bool = False,
                 name: str = "gains") -> CurveSeries:
    """Cumulative gains per cutoff: (n, gains) or (n/N, gains/positives)."""
    if fraction and ranked.n_pos == 0:
        raise ValidationError("fractional gains undefined: no positives")
    counts = np.arange(1, ranked.n_total + 1, dtype=np.int64)
    num, den = ranked._gains_at(counts)
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries.from_columns(
        name, kind, (counts, ranked.n_total if fraction else 1),
        (num, _product(den, ranked.n_pos) if fraction else den))


def lift_series(ranked: RankedTestSet, fraction: bool = True,
                name: str = "lift") -> CurveSeries:
    """Lift per cutoff n = 1..N against n or n/N: gains * N / (n * P)."""
    counts = np.arange(1, ranked.n_total + 1, dtype=np.int64)
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries.from_columns(
        name, kind, (counts, ranked.n_total if fraction else 1),
        _lift_at(ranked, counts))


def benefit_series(ranked: RankedTestSet, costs: CostSpec,
                   name: str = "benefit") -> CurveSeries:
    """Net benefit per cutoff n = 1..N, tp*q_tp + (n - tp)*q_fp, exact in
    the costs' rationals a/b and c/d (`cum_benefit` computes in floats, so
    the two can differ in the last bits at one cutoff): with gains
    tnum/tden, (tnum*a*d + (n*tden - tnum)*c*b) / (tden*b*d)."""
    a, b = Fraction(costs.q_tp).as_integer_ratio()
    c, d = Fraction(costs.q_fp).as_integer_ratio()
    counts = np.arange(1, ranked.n_total + 1, dtype=np.int64)
    num, den = ranked._gains_at(counts)
    misses = _product(counts, den) - num  # false positives, over den
    return CurveSeries.from_columns(
        name, XKind.COUNT, (counts, 1),
        (_sum(_product(num, a * d), _product(misses, c * b)),
         _product(den, b * d)))


def decile_series(ranked: RankedTestSet, name: str = "decile-lift") -> CurveSeries:
    return CurveSeries.from_columns(name, XKind.COUNT, (np.arange(1, 11), 1),
                                    _decile_lifts(ranked))


def random_targeting_series(ranked: RankedTestSet, kind: XKind,
                            name: str = "random targeting") -> CurveSeries:
    """Two-point diagonal reference: what targeting at the whole-set positive
    rate would gain, from (0, 0) to (N, P), or to (1, 1) on a share axis."""
    x, y = (ranked.n_total, ranked.n_pos) if kind is XKind.COUNT else (1, 1)
    return CurveSeries.from_columns(name, kind, (np.array([0, x]), 1),
                                    (np.array([0, y]), 1))
