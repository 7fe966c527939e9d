#!/usr/bin/env python3
"""How the deployment class distribution moves gains and lift.

A fixed scorer applied to rarer positives shows HIGHER lift at small
targeting fractions, and the differences fade as the targeted share grows.
We demonstrate it with a synthetic scorer (ranking quality ~0.9), stratified
subsampling at three positive rates, and mean/min/max bands over replicates.
"""

from pathlib import Path

from gainslift import (ChartKind, ChartSpec, CurveSeries, ResamplePlan,
                       XKind, regularity_check, render_chart, run_plan,
                       synthetic_scorer)
from fractions import Fraction

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

print("building a 20k-record pool from the synthetic scorer...")
pool = synthetic_scorer(n_pos=2400, n_neg=17600, separation=1.8124, seed=7)

plan = ResamplePlan(target_rates=(0.05, 0.117, 0.20), replicate_count=25,
                    sample_size=2000, seed=11)
print(f"plan: rates {plan.target_rates}, {plan.replicate_count} replicates "
      f"of size {plan.sample_size}")
summary = run_plan(pool, plan)

idx05 = summary.grid.index(0.05)
idx_last = len(summary.grid) - 1
print("\nmean lift by target rate:")
print(f"{'rate':>7} {'mean auc':>9} {'lift@5%':>9} {'lift@100%':>10}")
for band in summary.bands:
    print(f"{band.target_rate:>7} {band.mean_auc:>9.4f} "
          f"{band.lift.mean[idx05]:>9.3f} {band.lift.mean[idx_last]:>10.3f}")

verdict = regularity_check(summary, small_fraction=0.05)
print(f"\nordering check at the 5% grid point: {verdict.outcome.value}")
print("  (rarer positives -> higher lift for small targeting fractions;")
print("   every curve ends at lift exactly 1 when the whole set is targeted)")

# chart the three mean lift curves on a shared fraction axis
series = []
for band in summary.bands:
    points = tuple(
        (Fraction(k + 1, 100), Fraction(value).limit_denominator(10**9))
        for k, value in enumerate(band.lift.mean))
    series.append(CurveSeries(name=f"rate {band.target_rate}",
                              x_kind=XKind.FRACTION, points=points))
spec = ChartSpec(kind=ChartKind.LIFT, title="mean lift by positive rate")
path = out_dir / "lift_by_rate.svg"
path.write_text(render_chart(spec, series), encoding="utf-8")
print(f"\nwrote {path}")
