#!/usr/bin/env python3
"""Exact AUC two ways, tied scores, and SVG chart output.

AUC is computed by two routes that must agree on every input: direct
positive/negative pair counting, and the rank-sum statistic with midranks
for ties. Both are exact rationals, so "agree" means equal, not close.
Charts for the bundled example land in demos/output/.
"""

from pathlib import Path

from gainslift import (ChartKind, ChartSpec, ScoredRecord, auc_pairs,
                       auc_wilcoxon, example24_records, rank_records,
                       render_chart, render_decimal, render_exact, roc_points,
                       series_for)

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

ranked = rank_records(example24_records())
print("bundled example set:")
print(f"  auc by pair counting : {render_exact(auc_pairs(ranked))} "
      f"= {render_decimal(auc_pairs(ranked))}")
print(f"  auc by rank sums     : {render_exact(auc_wilcoxon(ranked))} "
      f"= {render_decimal(auc_wilcoxon(ranked))}")

print("\ntied scores count half per crossed pair; midranks do the same job:")
tied = rank_records([
    ScoredRecord("a", 0.9, 1), ScoredRecord("b", 0.5, 1),
    ScoredRecord("c", 0.5, 0), ScoredRecord("d", 0.5, 0),
    ScoredRecord("e", 0.2, 1), ScoredRecord("f", 0.1, 0),
])
print(f"  pair counting: {render_exact(auc_pairs(tied))}")
print(f"  rank sums    : {render_exact(auc_wilcoxon(tied))}")

print("\nROC points step once per distinct score (tie groups move together):")
for x, y in roc_points(tied).points:
    print(f"  fpr={render_decimal(x)}  tpr={render_decimal(y)}")

charts = [
    (ChartKind.GAINS_COUNT, "gains_count.svg"),
    (ChartKind.GAINS_FRACTION, "gains_fraction.svg"),
    (ChartKind.LIFT, "lift.svg"),
    (ChartKind.DECILE_LIFT, "decile_lift.svg"),
    (ChartKind.ROC, "roc.svg"),
]
print()
for kind, filename in charts:
    spec = ChartSpec(kind=kind, title=f"example set: {kind.value}")
    path = out_dir / filename
    path.write_text(render_chart(spec, [series_for(kind, ranked)]),
                    encoding="utf-8")
    print(f"wrote {path}")
print("series lines are solid; the dashed line is the random-targeting "
      "reference.")
