"""Independent reference computations for the benchmark's output checks.

Nothing here imports gainslift: every expected value comes from numpy and
`fractions` by the plainest definition (sorting, prefix sums, midranks,
pair counts), so a check compares the program against a second route and
never against a saved copy of its own output.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def input_order(scores: np.ndarray) -> np.ndarray:
    """Descending score, ties kept in input order."""
    return np.argsort(-scores, kind="stable")


def id_order(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Descending score, ties broken by ascending id string."""
    return np.lexsort((ids, -scores))


def prefix_positives(labels: np.ndarray, order: np.ndarray) -> np.ndarray:
    """p[n] = positives among the first n ranked records, p[0] = 0."""
    return np.concatenate(([0], np.cumsum(labels[order], dtype=np.int64)))


def group_ends(sorted_desc_scores: np.ndarray) -> np.ndarray:
    """Exclusive end index of each equal-score run in a descending array."""
    change = np.flatnonzero(np.diff(sorted_desc_scores)) + 1
    return np.concatenate((change, [sorted_desc_scores.size]))


def expected_gains(prefix: np.ndarray, ends: np.ndarray, n: int) -> Fraction:
    """Gains at cutoff n when a cut tie group counts its positive fraction."""
    g = int(np.searchsorted(ends, n, side="left"))
    end = int(ends[g])
    start = int(ends[g - 1]) if g > 0 else 0
    if n == end:
        return Fraction(int(prefix[n]))
    inside = Fraction(int(prefix[end] - prefix[start]) * (n - start), end - start)
    return int(prefix[start]) + inside


def lift_value(gains, n: int, n_total: int, n_pos: int) -> Fraction:
    return Fraction(gains) * n_total / (n * n_pos)


def ceil_fraction_of(decimal_text: str, n_total: int) -> int:
    """Exact ceil(fraction * N) for a decimal fraction given as text."""
    f = Fraction(decimal_text) * n_total
    return -(-f.numerator // f.denominator)


def half_up(value, places: int = 5) -> str:
    """Fixed-point text of an exact value, rounding half away from zero."""
    f = Fraction(value)
    scaled = abs(f) * 10**places
    q = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    digits = str(q).rjust(places + 1, "0")
    sign = "-" if f < 0 and q > 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def auc_midrank(scores: np.ndarray, labels: np.ndarray) -> Fraction:
    """Mann-Whitney AUC with midranks for tied scores (ascending ranks)."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.int64)
    change = np.flatnonzero(np.diff(s)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [s.size]))
    # doubled midrank of a run occupying ascending ranks start+1..end
    doubled = np.repeat(starts + ends + 1, ends - starts)
    n_pos = int(y.sum())
    n_neg = int(y.size) - n_pos
    doubled_u = int((doubled * y).sum()) - n_pos * (n_pos + 1)
    return Fraction(doubled_u, 2 * n_pos * n_neg)


def exact_texts(num: np.ndarray, den: np.ndarray) -> list[str]:
    """'num/den' in lowest terms for each pair, as the exact json fields."""
    g = np.gcd(num, den)
    return [f"{a}/{b}" for a, b in zip((num // g).tolist(), (den // g).tolist())]


def roc_floats(scores: np.ndarray, labels: np.ndarray):
    """ROC points (0,0) then one per distinct score, as float arrays."""
    order = input_order(scores)
    prefix = prefix_positives(labels, order)
    ends = group_ends(scores[order])
    n_pos = int(labels.sum())
    n_neg = int(labels.size) - n_pos
    pos = prefix[ends]
    neg = ends - pos
    return (np.concatenate(([0.0], neg / n_neg)),
            np.concatenate(([0.0], pos / n_pos)))


def true_intervals(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Maximal runs of True as 1-based inclusive (first, last) ranks."""
    ranks = np.flatnonzero(mask) + 1
    if ranks.size == 0:
        return ()
    breaks = np.flatnonzero(np.diff(ranks) != 1)
    firsts = np.concatenate(([ranks[0]], ranks[breaks + 1]))
    lasts = np.concatenate((ranks[breaks], [ranks[-1]]))
    return tuple(zip(firsts.tolist(), lasts.tolist()))


def auc_of_sequence(labels) -> Fraction:
    """AUC of a label sequence whose implicit scores strictly decrease:
    the share of (positive, negative) pairs with the positive ranked first."""
    concordant = 0
    negatives_after = sum(1 for y in labels if y == 0)
    for y in labels:
        if y == 0:
            negatives_after -= 1
        else:
            concordant += negatives_after
    n_pos = sum(labels)
    return Fraction(concordant, n_pos * (len(labels) - n_pos))


def lift_of_sequence(labels, at: int) -> Fraction:
    prefix = np.cumsum(labels)
    return lift_value(int(prefix[at - 1]), at, len(labels), int(prefix[-1]))
