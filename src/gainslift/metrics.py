"""Single-classifier measures on a ranked test set.

Everything here is exact: counts are integers, ratios are `Fraction`s.
Floating-point enters only when a caller asks for it (chart layout, text
rendering). `render_decimal` reproduces fixed-precision half-up rounding so
printed tables are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

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


@dataclass(frozen=True)
class CurveSeries:
    """A named sequence of (x, y) points carrying chart/export data."""

    name: str
    x_kind: XKind
    points: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        xs = [p[0] for p in self.points]
        for a, b in zip(xs, xs[1:]):
            if self.x_kind is XKind.FPR:
                if b < a:
                    raise ValidationError(
                        f"series {self.name!r}: fpr x values must be non-decreasing")
            elif b <= a:
                raise ValidationError(
                    f"series {self.name!r}: x values must be strictly increasing")

    def xs(self) -> tuple[Fraction, ...]:
        return tuple(p[0] for p in self.points)

    def ys(self) -> tuple[Fraction, ...]:
        return tuple(p[1] for p in self.points)

    def as_floats(self) -> list[tuple[float, float]]:
        return [(float(x), float(y)) for x, y in self.points]


def _as_fraction(value: Number) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def render_decimal(value: Number, places: int = 5) -> str:
    """Render exactly, rounding half away from zero at `places` decimals.

    Matches the fixed-precision style of printed gains tables, so equal
    rationals always render to equal strings.
    """
    if places < 0:
        raise ValidationError("places must be >= 0")
    f = _as_fraction(value)
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
    f = _as_fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# cutoff measures
# ---------------------------------------------------------------------------

def cum_gains(ranked: RankedTestSet, n: int) -> Gain:
    """True positives among the top-n ranked records (0 <= n <= N)."""
    ranked.check_cutoff(n)
    return ranked.positives_in_prefix(n)


def p_cum_gains(ranked: RankedTestSet, n: int) -> Fraction:
    """Cumulative gains as a fraction of all positives in the set.

    Like lift, defined for cutoffs n >= 1 only.
    """
    ranked.check_cutoff(n, minimum=1)
    if ranked.n_pos == 0:
        raise ValidationError("p_cum_gains undefined: the set has no positives")
    return Fraction(_as_fraction(ranked.positives_in_prefix(n)), ranked.n_pos)


def lift(ranked: RankedTestSet, n: int) -> Fraction:
    """Positive rate in the top-n relative to the whole-set positive rate.

    Random targeting gives 1.0; n must be at least 1 because the ratio
    divides by n.
    """
    ranked.check_cutoff(n, minimum=1)
    if ranked.n_pos == 0:
        raise ValidationError("lift undefined: the set has no positives")
    gains = _as_fraction(ranked.positives_in_prefix(n))
    return Fraction(gains * ranked.n_total, n * ranked.n_pos)


def decile_lift(ranked: RankedTestSet) -> list[Fraction]:
    """Lift at the ten cutoffs n_k = ceil(k*N/10); the last is always 1."""
    if ranked.n_pos == 0:
        raise ValidationError("decile lift undefined: the set has no positives")
    cutoffs = [-(-k * ranked.n_total // 10) for k in range(1, 11)]
    return [lift(ranked, n) for n in cutoffs]


def cum_benefit(ranked: RankedTestSet, n: int, costs: CostSpec) -> float:
    """Net benefit of acting on the top-n records: tp*q_tp + fp*q_fp."""
    ranked.check_cutoff(n)
    tp = ranked.positives_in_prefix(n)
    fp = n - tp
    return tp * costs.q_tp + fp * costs.q_fp


def n_confusion_matrix(ranked: RankedTestSet, n: int) -> NConfusionMatrix:
    """Top-n confusion matrix: every one of the n records is predicted
    positive, so fn = tn = 0 and tp + fp = n."""
    ranked.check_cutoff(n, minimum=1)
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
    points: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    cum_pos = 0
    cum_neg = 0
    for start, end, pos in ranked.tie_groups():
        cum_pos += pos
        cum_neg += (end - start) - pos
        points.append((Fraction(cum_neg, ranked.n_neg),
                       Fraction(cum_pos, ranked.n_pos)))
    return CurveSeries(name=name, x_kind=XKind.FPR, points=tuple(points))


def auc_pairs(ranked: RankedTestSet) -> Fraction:
    """AUC by direct positive/negative pair counting on scores.

    Each pair contributes 1 if the positive scored strictly higher, 1/2 on a
    score tie, 0 otherwise. Tie-break order never enters, so every tie policy
    yields the same value.
    """
    _require_both_classes(ranked, "AUC")
    labels = np.fromiter((r.label for r in ranked.records), dtype=np.int64,
                         count=ranked.n_total)
    scores = np.fromiter((r.score for r in ranked.records), dtype=np.float64,
                         count=ranked.n_total)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return Fraction(2 * wins + ties, 2 * ranked.n_pos * ranked.n_neg)


def auc_wilcoxon(ranked: RankedTestSet) -> Fraction:
    """AUC from the rank-sum statistic with midranks for tied scores.

    Ranks ascend with score (rank 1 = lowest score); the sum of positive
    midranks minus n_pos*(n_pos+1)/2 is the U statistic, and U/(n_pos*n_neg)
    equals the pair-counting AUC on every input.
    """
    _require_both_classes(ranked, "AUC")
    doubled_u = doubled_mann_whitney_u(ranked._group_ends, ranked._group_pos,
                                       ranked.n_pos)
    return Fraction(doubled_u, 2 * ranked.n_pos * ranked.n_neg)


def doubled_mann_whitney_u(group_ends, group_pos, n_pos: int) -> int:
    """Twice the Mann-Whitney U of the positives, from the tie groups of a
    descending ranking: each group's exclusive end rank and positive count.

    Ranks ascend with score (rank 1 = lowest). A tie group occupying
    ascending ranks s+1..s+g has midrank s + (g+1)/2, i.e. doubled
    2s + g + 1, so the doubled statistic stays integral.
    """
    ends = np.asarray(group_ends, dtype=np.int64)
    sizes = np.diff(ends, prepend=0)
    below = ends[-1] - ends  # records with strictly lower score
    doubled_rank_sum = int((np.asarray(group_pos, dtype=np.int64)
                            * (2 * below + sizes + 1)).sum())
    return doubled_rank_sum - n_pos * (n_pos + 1)


# ---------------------------------------------------------------------------
# chart/export series
# ---------------------------------------------------------------------------

def gains_series(ranked: RankedTestSet, fraction: bool = False,
                 name: str = "gains") -> CurveSeries:
    """Cumulative gains per cutoff: (n, gains) or (n/N, gains/positives)."""
    if fraction and ranked.n_pos == 0:
        raise ValidationError("fractional gains undefined: no positives")
    points = []
    for n in range(1, ranked.n_total + 1):
        g = _as_fraction(ranked.positives_in_prefix(n))
        if fraction:
            points.append((Fraction(n, ranked.n_total),
                           Fraction(g, ranked.n_pos)))
        else:
            points.append((Fraction(n), g))
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries(name=name, x_kind=kind, points=tuple(points))


def lift_series(ranked: RankedTestSet, fraction: bool = True,
                name: str = "lift") -> CurveSeries:
    points = []
    for n in range(1, ranked.n_total + 1):
        x = Fraction(n, ranked.n_total) if fraction else Fraction(n)
        points.append((x, lift(ranked, n)))
    kind = XKind.FRACTION if fraction else XKind.COUNT
    return CurveSeries(name=name, x_kind=kind, points=tuple(points))


def benefit_series(ranked: RankedTestSet, costs: CostSpec,
                   name: str = "benefit") -> CurveSeries:
    points = []
    for n in range(1, ranked.n_total + 1):
        tp = _as_fraction(ranked.positives_in_prefix(n))
        value = tp * _as_fraction(costs.q_tp) + (n - tp) * _as_fraction(costs.q_fp)
        points.append((Fraction(n), value))
    return CurveSeries(name=name, x_kind=XKind.COUNT, points=tuple(points))


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
