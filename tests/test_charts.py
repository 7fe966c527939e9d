import random
import string
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from gainslift import (ChartKind, ChartSpec, CostSpec, ValidationError,
                       benefit_series, decile_series, gains_series,
                       lift_series, rank_records, render_chart,
                       series_for)
from gainslift import charts
from gainslift.charts import ChartLayout, escape, layout_for

from helpers import records_from_labels, tokens_oracle

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_root(text):
    return ET.fromstring(text)


class TestSvgStructure:
    def test_single_well_formed_root(self, example24):
        svg = render_chart(ChartSpec(kind=ChartKind.GAINS_FRACTION),
                           [gains_series(example24, fraction=True)])
        root = svg_root(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("viewBox") == "0 0 640 480"

    def test_flat_axis_has_one_tick(self):
        # a set with no positives has gains 0 at every cutoff
        ranked = rank_records(records_from_labels([0, 0, 0]))
        svg = render_chart(ChartSpec(kind=ChartKind.GAINS_COUNT),
                           [gains_series(ranked)])
        y_ticks = [el.text for el in svg_root(svg).iter(f"{SVG_NS}text")
                   if el.get("text-anchor") == "end"]
        assert y_ticks == ["0"]

    def test_title_present(self, example24):
        svg = render_chart(
            ChartSpec(kind=ChartKind.LIFT, title="lift & gains"),
            [lift_series(example24)])
        assert "lift &amp; gains" in svg


class TestEscape:
    def test_matches_saxutils_escape(self):
        """The chart text escape is the standard library's, with no extra
        entities, over strings of markup characters, quotes, a non-ASCII
        letter, a newline and NUL among ASCII letters."""
        from xml.sax.saxutils import escape as sax_escape
        rng = random.Random(2019)
        alphabet = list("&<>\"';\u00e9\n\0") + list(string.ascii_letters)
        texts = ["", "&amp;", "&lt;&gt;", "<&>"] + [
            "".join(rng.choices(alphabet, k=rng.randrange(1, 40)))
            for _ in range(2_000)]
        for text in texts:
            assert escape(text) == sax_escape(text), repr(text)


class TestPolylineGeometry:
    def test_gains_fraction_passes_through_half_point(self, example24):
        series = gains_series(example24, fraction=True)
        svg = render_chart(ChartSpec(kind=ChartKind.GAINS_FRACTION), [series])
        layout = layout_for(ChartKind.GAINS_FRACTION, [series])
        token = layout.tokens(np.array([0.5]), np.array([float(Fraction(5, 6))]))
        polylines = [el for el in svg_root(svg).iter(f"{SVG_NS}polyline")]
        assert len(polylines) == 1
        assert token in polylines[0].get("points").split()

    def test_lift_of_balanced_alternation_is_flat(self):
        # alternating labels keep every prefix at the base rate: lift stays
        # within a tight band around 1
        ranked = rank_records(records_from_labels([1, 0] * 50))
        series = lift_series(ranked)
        values = [float(y) for _, y in series.points[4:]]
        assert all(abs(v - 1.0) <= 0.25 for v in values)

    def test_decile_chart_has_ten_bars_last_height_one(self, example24):
        series = decile_series(example24)
        svg = render_chart(ChartSpec(kind=ChartKind.DECILE_LIFT), [series])
        layout = layout_for(ChartKind.DECILE_LIFT, [series])
        rects = [el for el in svg_root(svg).iter(f"{SVG_NS}rect")
                 if el.get("fill-opacity")]
        assert len(rects) == 10
        _, top = layout.px(10, 1.0)
        _, bottom = layout.px(10, 0.0)
        assert float(rects[-1].get("height")) == pytest.approx(bottom - top)


class _PixelLayout(ChartLayout):
    """A layout whose pixel position of (x, y) is (x, y) itself, so that
    `tokens` writes the given values."""

    def px(self, x, y):
        return x, y


def _kernel_values() -> np.ndarray:
    """Values whose two-place text is easy to get wrong: thousandths ending
    in 5 and eighths (exact binary ties), decimal ties that are not exact
    in binary, signed zeros and values that round to zero, subnormals, and
    values near 2**52, where the kernel's integer hundredths run out of
    room, with seeded values over many magnitudes."""
    rng = np.random.default_rng(2525)
    big = 2.0 ** 52
    fixed = [2.675, 1.005, 99.995, 0.005, 0.015, 0.125, 0.375, 0.0, -0.0,
             -0.004, 0.004, -0.005, 1e-300, -1e-300, 5e-324, -5e-324,
             np.nextafter(big, 0), big - 0.5, big - 1, big - 1.5,
             2.0 ** 51 + 0.5, 2.0 ** 51 - 0.25, 10.0 ** 15 + 0.125,
             123456789012.345, 0.995, 9.995, 999.995, 59.995, 620.005]
    parts = [
        np.array(fixed),
        (10 * np.arange(200_000) + 5) / 1000,
        -(10 * np.arange(0, 200_000, 97) + 5) / 1000,
        np.arange(-4000, 4000) / 8,
        rng.uniform(-1, 1, 20_000) * 10.0 ** rng.integers(-12, 16, 20_000),
        rng.uniform(0, 700, 20_000),
        np.round(rng.uniform(-700, 700, 20_000), 3),
    ]
    values = np.concatenate(parts)
    return np.concatenate([values, -values[:len(fixed)]])


def _same_tokens(layout: ChartLayout, xs: np.ndarray, ys: np.ndarray):
    """Assert that `layout.tokens` writes what `tokens_oracle` writes, and
    name the first point that differs: pytest's diff of two long texts
    takes minutes."""
    px, py = layout.px(xs, ys)
    got = layout.tokens(xs, ys)
    want = tokens_oracle(px.tolist(), py.tolist())
    if got != want:
        first = next((point for point in zip(
            got.split(" "), want.split(" "), px.tolist(), py.tolist())
            if point[0] != point[1]), None)
        pytest.fail(f"first differing point (got, want, x, y): {first}; "
                    f"{len(got)} against {len(want)} characters")


class TestPolylineTokens:
    """`ChartLayout.tokens` writes every pixel pair as `format` does with
    '{:.2f},{:.2f}', byte for byte, whatever the values."""

    layout = _PixelLayout(0.0, 1.0, 0.0, 1.0)

    def _check(self, px, py):
        _same_tokens(self.layout, np.asarray(px, dtype=np.float64),
                     np.asarray(py, dtype=np.float64))

    def test_kernel_values(self):
        values = _kernel_values()
        self._check(values, values[::-1])

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_kernel_values_in_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(charts, "_CHUNK_POINTS", chunk)
        values = _kernel_values()
        picked = np.random.default_rng(chunk).choice(len(values), 3000)
        values = np.concatenate([values[:40], values[picked]])
        for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 101):
            self._check(values[:n], values[::-1][:n])

    @pytest.mark.parametrize("odd", [float("inf"), -float("inf"),
                                     float("nan"), 2.0 ** 52, -2.0 ** 52,
                                     1e300])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_values_the_kernel_leaves_to_format(self, odd, axis):
        values = np.concatenate([[odd], _kernel_values()[:500]])
        px, py = (values, values[::-1]) if axis == "x" else (values[::-1],
                                                              values)
        self._check(px, py)

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_and_one_point(self, n):
        self._check([0.125] * n, [-0.004] * n)
        self._check([2.675] * n, [99.995] * n)

    @pytest.mark.parametrize("kind", [ChartKind.LIFT,
                                      ChartKind.GAINS_FRACTION,
                                      ChartKind.GAINS_COUNT])
    def test_pixel_positions_of_a_curve(self, kind):
        rng = np.random.default_rng(9)
        ranked = rank_records(records_from_labels(
            rng.integers(0, 2, 5000).tolist(), rng.normal(size=5000).tolist()))
        series = series_for(kind, ranked)
        layout = layout_for(kind, [series])
        _same_tokens(layout, series.x.floats(), series.y.floats())


class TestBaseline:
    def test_baseline_is_dashed(self, example24):
        svg = render_chart(ChartSpec(kind=ChartKind.GAINS_FRACTION),
                           [gains_series(example24, fraction=True)])
        dashed = [el for el in svg_root(svg).iter(f"{SVG_NS}line")
                  if el.get("stroke-dasharray")]
        assert len(dashed) == 1

    def test_baseline_omitted_on_request(self, example24):
        svg = render_chart(
            ChartSpec(kind=ChartKind.GAINS_FRACTION, include_baseline=False),
            [gains_series(example24, fraction=True)])
        dashed = [el for el in svg_root(svg).iter(f"{SVG_NS}line")
                  if el.get("stroke-dasharray")]
        assert dashed == []

    def test_lift_baseline_sits_at_one(self, example24):
        series = lift_series(example24)
        svg = render_chart(ChartSpec(kind=ChartKind.LIFT), [series])
        layout = layout_for(ChartKind.LIFT, [series])
        _, y_one = layout.px(0.0, 1.0)
        dashed = [el for el in svg_root(svg).iter(f"{SVG_NS}line")
                  if el.get("stroke-dasharray")][0]
        assert float(dashed.get("y1")) == pytest.approx(y_one)
        assert float(dashed.get("y2")) == pytest.approx(y_one)


class TestCompatibility:
    def test_kind_mismatch_rejected(self, example24):
        with pytest.raises(ValidationError, match="incompatible"):
            render_chart(ChartSpec(kind=ChartKind.ROC),
                         [gains_series(example24)])

    def test_benefit_chart_accepts_costs_series(self, example24):
        series = benefit_series(example24, CostSpec(q_tp=10, q_fp=-1))
        svg = render_chart(ChartSpec(kind=ChartKind.BENEFIT), [series])
        assert svg_root(svg) is not None

    def test_benefit_series_needs_costs(self, example24):
        with pytest.raises(ValidationError, match="a benefit chart needs costs"):
            series_for(ChartKind.BENEFIT, example24)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError, match="no series"):
            render_chart(ChartSpec(kind=ChartKind.LIFT), [])

    def test_decile_chart_needs_ten_points(self, example24):
        with pytest.raises(ValidationError) as info:
            render_chart(ChartSpec(kind=ChartKind.DECILE_LIFT),
                         [gains_series(example24)])
        assert str(info.value) == ("decile chart expects 10 points, "
                                   "series 'gains' has 24")
