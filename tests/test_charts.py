import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

from gainslift import (ChartKind, ChartSpec, CostSpec, ValidationError,
                       benefit_series, decile_series, gains_series,
                       lift_series, rank_records, render_chart,
                       series_for)
from gainslift.charts import layout_for

from helpers import records_from_labels

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

    def test_title_present(self, example24):
        svg = render_chart(
            ChartSpec(kind=ChartKind.LIFT, title="lift & gains"),
            [lift_series(example24)])
        assert "lift &amp; gains" in svg


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
