"""Standalone SVG charts for gains, lift, decile, benefit, and ROC curves.

The renderer is deliberately small and deterministic: fixed canvas, fixed
palette, solid polylines for series, a dashed two-point reference line for
random targeting. Tests can reproduce exact coordinates through
:class:`ChartLayout`, so golden checks work on path data instead of pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .errors import ValidationError
from .metrics import CostSpec, CurveSeries, XKind
from .records import RankedTestSet

WIDTH = 640
HEIGHT = 480
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

PALETTE = ("#1a1a1a", "#c0392b", "#1e8449", "#2457a6", "#8e44ad", "#b9770e")
BASELINE_DASH = "6 4"


def escape(text: str) -> str:
    """`&`, `<` and `>` as entities, as `xml.sax.saxutils.escape` writes them.

    Kept here because importing `xml.sax.saxutils` loads `urllib.request`
    and with it the http, email and ssl modules, most of the package's
    import time and memory. `&` goes first, so no entity is escaped twice.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class ChartKind(Enum):
    GAINS_COUNT = "gains-count"
    GAINS_FRACTION = "gains-fraction"
    LIFT = "lift"
    DECILE_LIFT = "decile-lift"
    BENEFIT = "benefit"
    ROC = "roc"


# Each chart kind's row: the x kinds its series may have, its y-axis label
_KINDS = {
    ChartKind.GAINS_COUNT: ((XKind.COUNT,), "cumulative gains"),
    ChartKind.GAINS_FRACTION: ((XKind.FRACTION,), "fraction of total gains"),
    ChartKind.LIFT: ((XKind.COUNT, XKind.FRACTION), "lift"),
    ChartKind.DECILE_LIFT: ((XKind.COUNT,), "lift"),
    ChartKind.BENEFIT: ((XKind.COUNT,), "net benefit"),
    ChartKind.ROC: ((XKind.FPR,), "true positive rate"),
}
_X_LABEL = {XKind.COUNT: "n", XKind.FRACTION: "n/N", XKind.FPR: "false positive rate"}


def _row(kind: ChartKind) -> tuple[tuple[XKind, ...], str]:
    """`kind`'s row of `_KINDS`; anything but a ChartKind is refused."""
    if not isinstance(kind, ChartKind):
        raise ValidationError(f"unknown chart kind {kind!r}")
    return _KINDS[kind]


@dataclass(frozen=True)
class ChartSpec:
    kind: ChartKind
    title: str = ""
    include_baseline: bool = True


@dataclass(frozen=True)
class ChartLayout:
    """The data-to-pixel transform used by the renderer."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def px(self, x, y):
        """Pixel position of the data point (x, y). With float64 arrays for
        x and y it gives the position of every point, by the same float
        operations in the same order."""
        span_x = self.x_max - self.x_min
        span_y = self.y_max - self.y_min
        fx = (x - self.x_min) / span_x if span_x else 0.0 * x
        fy = (y - self.y_min) / span_y if span_y else 0.0 * y
        px = MARGIN_LEFT + fx * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)
        py = (HEIGHT - MARGIN_BOTTOM) - fy * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)
        return px, py

    def tokens(self, xs: np.ndarray, ys: np.ndarray) -> str:
        """Every point's pixel position as 'x,y' to two places,
        space-separated, byte for byte as `format(v, ".2f")` writes each.

        That text is k/100 with k = 100·|v| rounded half to even from v's
        exact binary value (not from the float 100·v: 0.005·100 is exactly
        0.5, yet 0.005 is slightly above it and prints 0.01), after a `-`
        wherever v's sign bit is set (so -0.0 and -0.004 print -0.00).
        `_hundredths` computes k in int64 and `_point_text` writes its
        digits, `_CHUNK_POINTS` points at a time. Where a value is not
        finite or |v| >= 2**52, k could overflow, and every point is
        written by `format` itself.
        """
        px, py = self.px(xs, ys)
        if not ((np.abs(px) < 2.0 ** 52).all()
                and (np.abs(py) < 2.0 ** 52).all()):
            return " ".join(map("{:.2f},{:.2f}".format, px.tolist(),
                                py.tolist()))
        text = b"".join(
            _point_text(px[i:i + _CHUNK_POINTS], py[i:i + _CHUNK_POINTS])
            for i in range(0, len(px), _CHUNK_POINTS))
        return text[:-1].decode("ascii")  # no space after the last point


# Polyline points are written this many at a time, so that one chunk's byte
# matrix, not the curve, sets the memory the text needs beyond itself.
_CHUNK_POINTS = 1 << 16


def _hundredths(v: np.ndarray) -> np.ndarray:
    """100·|v| rounded half to even from v's exact binary value, as int64,
    for finite v with |v| < 2**52.

    |v| is m·2**(e - 53) with m < 2**53 an integer, so 100·m < 2**60, and k
    is 100·m shifted right by s = 53 - e (at least 1), rounded on the bits
    shifted out. Past s = 63 the quotient is 0 and the remainder below half,
    as at s = 63, so s stops there.
    """
    mant, e = np.frexp(np.abs(v))
    x = 100 * np.ldexp(mant, 53).astype(np.int64)
    shift = np.minimum(53 - e, 63)
    q = x >> shift
    r = x - (q << shift)
    half = np.int64(1) << (shift - 1)
    return q + ((r > half) | ((r == half) & (q & 1 == 1)))


def _point_text(px: np.ndarray, py: np.ndarray) -> bytes:
    """The points 'x,y', each followed by a space, as ASCII bytes.

    Each coordinate is a row of a uint8 matrix: a sign, the digits of its
    whole part, a point, two digits of cents, and a `,` or a space; a mask
    beside it drops the sign where the sign bit is clear and the leading
    zeros of the whole part."""
    rows, keep = [], []
    for v, end in ((px, b","), (py, b" ")):
        whole, cents = np.divmod(_hundredths(v), 100)
        width = len(str(whole.max()))  # digits before the point
        place = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        mat = np.empty((len(v), width + 5), np.uint8)
        mat[:, 0] = ord("-")
        for j, p in enumerate(place.tolist(), start=1):
            mat[:, j] = whole // p % 10 + ord("0")
        mat[:, width + 1] = ord(".")
        mat[:, width + 2] = cents // 10 + ord("0")
        mat[:, width + 3] = cents % 10 + ord("0")
        mat[:, width + 4] = ord(end)
        mask = np.ones(mat.shape, bool)
        mask[:, 0] = np.signbit(v)
        mask[:, 1:width] = whole[:, None] >= place[:-1]
        rows.append(mat)
        keep.append(mask)
    return np.hstack(rows)[np.hstack(keep)].tobytes()


def series_for(kind: ChartKind, ranked: RankedTestSet,
               costs: Optional[CostSpec] = None) -> CurveSeries:
    """The curve a chart of `kind` plots for one ranked set; a benefit chart
    needs `costs`."""
    _row(kind)
    if kind in (ChartKind.GAINS_COUNT, ChartKind.GAINS_FRACTION):
        return metrics.gains_series(
            ranked, fraction=kind is ChartKind.GAINS_FRACTION)
    if kind is ChartKind.LIFT:
        return metrics.lift_series(ranked, fraction=True)
    if kind is ChartKind.DECILE_LIFT:
        return metrics.decile_series(ranked)
    if kind is ChartKind.BENEFIT:
        if costs is None:
            raise ValidationError("a benefit chart needs costs")
        return metrics.benefit_series(ranked, costs)
    return metrics.roc_points(ranked)


def layout_for(kind: ChartKind, series: Sequence[CurveSeries]) -> ChartLayout:
    _row(kind)
    if kind in (ChartKind.GAINS_FRACTION, ChartKind.ROC):
        return ChartLayout(0.0, 1.0, 0.0, 1.0)
    all_x = np.concatenate([s.x.floats() for s in series])
    all_y = np.concatenate([s.y.floats() for s in series])
    max_x, max_y = float(all_x.max()), float(all_y.max())
    if kind is ChartKind.GAINS_COUNT:
        return ChartLayout(0.0, max_x, 0.0, max_y)
    if kind in (ChartKind.LIFT, ChartKind.DECILE_LIFT):
        x_min = 0.0 if kind is ChartKind.LIFT else 0.5
        x_max = max_x if kind is ChartKind.LIFT else 10.5
        return ChartLayout(x_min, x_max, 0.0, max(max_y, 1.0))
    return ChartLayout(0.0, max_x, min(0.0, float(all_y.min())),  # benefit
                       max(max_y, 0.0))


def _baseline_points(kind: ChartKind, layout: ChartLayout,
                     series: Sequence[CurveSeries]
                     ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Random-targeting reference: a flat line at 1 for lift kinds, else a
    diagonal to the terminal series value."""
    if kind in (ChartKind.LIFT, ChartKind.DECILE_LIFT):
        return (layout.x_min, 1.0), (layout.x_max, 1.0)
    first = series[0]
    return (0.0, 0.0), (float(first.x.floats()[-1]),
                        float(first.y.floats()[-1]))


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_chart(spec: ChartSpec, series: Sequence[CurveSeries]) -> str:
    """The chart's SVG markup, for the caller to write; raises
    ValidationError on an unknown kind or a kind mismatch."""
    if not series:
        raise ValidationError("no series to chart")
    allowed, y_label = _row(spec.kind)
    for s in series:
        if s.x_kind not in allowed:
            raise ValidationError(
                f"series {s.name!r} has x_kind {s.x_kind.value!r}, "
                f"incompatible with chart kind {spec.kind.value!r}")
    if spec.kind is ChartKind.DECILE_LIFT:
        for s in series:
            if len(s) != 10:
                raise ValidationError(
                    f"decile chart expects 10 points, series {s.name!r} "
                    f"has {len(s)}")

    layout = layout_for(spec.kind, series)
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    if spec.title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(spec.title)}</text>')

    x0, y0 = layout.px(layout.x_min, layout.y_min)
    x1, _ = layout.px(layout.x_max, layout.y_min)
    _, y1 = layout.px(layout.x_min, layout.y_max)
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" '
                 f'stroke="#333333" stroke-width="1"/>')
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" '
                 f'stroke="#333333" stroke-width="1"/>')

    for tx in _ticks(layout.x_min, layout.x_max):
        px, py = layout.px(tx, layout.y_min)
        parts.append(f'<line x1="{px:.2f}" y1="{py:.2f}" x2="{px:.2f}" '
                     f'y2="{py + 5:.2f}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{py + 18:.2f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(layout.y_min, layout.y_max):
        px, py = layout.px(layout.x_min, ty)
        parts.append(f'<line x1="{px - 5:.2f}" y1="{py:.2f}" x2="{px:.2f}" '
                     f'y2="{py:.2f}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{px - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.4g}</text>')

    x_label = _X_LABEL[series[0].x_kind]
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{escape(x_label)}</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">'
                 f'{escape(y_label)}</text>')

    if spec.include_baseline:
        (bx0, by0), (bx1, by1) = _baseline_points(spec.kind, layout, series)
        p0 = layout.px(bx0, by0)
        p1 = layout.px(bx1, by1)
        parts.append(
            f'<line x1="{p0[0]:.2f}" y1="{p0[1]:.2f}" x2="{p1[0]:.2f}" '
            f'y2="{p1[1]:.2f}" stroke="#555555" stroke-width="1.5" '
            f'stroke-dasharray="{BASELINE_DASH}"/>')

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if spec.kind is ChartKind.DECILE_LIFT:
            parts.extend(_bars(s, layout, color, len(series), i))
        else:
            tokens = layout.tokens(s.x.floats(), s.y.floats())
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="2" points="{tokens}"/>')
        ly = MARGIN_TOP + 14 * i
        parts.append(f'<line x1="{WIDTH - 150}" y1="{ly - 4:.2f}" '
                     f'x2="{WIDTH - 126}" y2="{ly - 4:.2f}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - 120}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{escape(s.name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bars(s: CurveSeries, layout: ChartLayout, color: str,
          n_series: int, series_idx: int) -> list[str]:
    out = []
    slot = 0.8 / n_series
    for x, y in zip(s.x.floats().tolist(), s.y.floats().tolist()):
        left = x - 0.4 + series_idx * slot
        x_px, top = layout.px(left, y)
        x2_px, bottom = layout.px(left + slot, 0.0)
        out.append(f'<rect x="{x_px:.2f}" y="{top:.2f}" '
                   f'width="{x2_px - x_px:.2f}" height="{bottom - top:.2f}" '
                   f'fill="{color}" fill-opacity="0.85"/>')
    return out

