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


_COMPATIBLE = {
    ChartKind.GAINS_COUNT: (XKind.COUNT,),
    ChartKind.GAINS_FRACTION: (XKind.FRACTION,),
    ChartKind.LIFT: (XKind.COUNT, XKind.FRACTION),
    ChartKind.DECILE_LIFT: (XKind.COUNT,),
    ChartKind.BENEFIT: (XKind.COUNT,),
    ChartKind.ROC: (XKind.FPR,),
}

_X_LABEL = {XKind.COUNT: "n", XKind.FRACTION: "n/N", XKind.FPR: "false positive rate"}
_Y_LABEL = {
    ChartKind.GAINS_COUNT: "cumulative gains",
    ChartKind.GAINS_FRACTION: "fraction of total gains",
    ChartKind.LIFT: "lift",
    ChartKind.DECILE_LIFT: "lift",
    ChartKind.BENEFIT: "net benefit",
    ChartKind.ROC: "true positive rate",
}


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
        space-separated."""
        px, py = self.px(xs, ys)
        return " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))


def series_for(kind: ChartKind, ranked: RankedTestSet,
               costs: Optional[CostSpec] = None) -> CurveSeries:
    """The curve a chart of `kind` plots for one ranked set; a benefit chart
    needs `costs`."""
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
    if kind is ChartKind.BENEFIT:
        return ChartLayout(0.0, max_x, min(0.0, float(all_y.min())),
                           max(max_y, 0.0))
    raise ValidationError(f"unknown chart kind {kind!r}")


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
    ValidationError on a kind mismatch."""
    if not series:
        raise ValidationError("no series to chart")
    allowed = _COMPATIBLE[spec.kind]
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
                 f'{escape(_Y_LABEL[spec.kind])}</text>')

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

