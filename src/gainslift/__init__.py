"""gainslift: evaluating binary classifiers whose predictions drive a
resource-constrained action.

When only the top-n ranked records will ever be acted on, whole-set measures
(accuracy, ROC, AUC) answer the wrong question. This package computes the
measures that match the action: cumulative gains, lift, decile lift,
cost-weighted benefit, and top-n confusion matrices, next to exact tie-aware
ROC/AUC for contrast. It also compares classifiers per cutoff, searches for
rankings on which two metrics disagree, and quantifies sensitivity to the
deployment class distribution by stratified resampling.
"""

from .errors import (BudgetExhaustedError, GainsLiftError, InfeasibleError,
                     ValidationError)
from .records import RankedTestSet, ScoredRecord, TiePolicy, rank_records
from .metrics import (CostSpec, CurveSeries, NConfusionMatrix, XKind,
                      auc_pairs, auc_wilcoxon, benefit_series, cum_benefit,
                      cum_gains, decile_lift, decile_series, gains_series,
                      lift, lift_series, n_confusion_matrix, p_cum_gains,
                      random_targeting_rate, random_targeting_series,
                      render_decimal, render_exact, roc_points)
from .compare import (ClassifierRun, CompareTable, DisagreementReport,
                      DominanceReport, DominanceVerdict, Metric, SwapSpec,
                      accuracy_at, apply_swaps, compare_at, dominance,
                      find_disagreement, parse_metric)
from .resample import (RegularityOutcome, RegularityVerdict, ResamplePlan,
                       ResampleSummary, regularity_check, run_plan,
                       stratified_sample, synthetic_scorer)
from .io import (ScoredFile, emit_curves, load_scored, parse_curves,
                 save_scored, summary_to_csv, summary_to_json)
from .charts import ChartKind, ChartLayout, ChartSpec, render_chart, series_for
from .datasets import EXAMPLE24_LABELS, example24_path, example24_records

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError", "GainsLiftError", "InfeasibleError",
    "ValidationError",
    "RankedTestSet", "ScoredRecord", "TiePolicy", "rank_records",
    "CostSpec", "CurveSeries", "NConfusionMatrix", "XKind",
    "auc_pairs", "auc_wilcoxon", "benefit_series", "cum_benefit",
    "cum_gains", "decile_lift", "decile_series", "gains_series", "lift",
    "lift_series", "n_confusion_matrix", "p_cum_gains",
    "random_targeting_rate", "random_targeting_series", "render_decimal",
    "render_exact", "roc_points",
    "ClassifierRun", "CompareTable", "DisagreementReport", "DominanceReport",
    "DominanceVerdict", "Metric", "SwapSpec", "accuracy_at", "apply_swaps",
    "compare_at", "dominance", "find_disagreement", "parse_metric",
    "RegularityOutcome", "RegularityVerdict", "ResamplePlan",
    "ResampleSummary", "regularity_check", "run_plan", "stratified_sample",
    "synthetic_scorer",
    "ScoredFile", "emit_curves", "load_scored", "parse_curves", "save_scored",
    "summary_to_csv", "summary_to_json",
    "ChartKind", "ChartLayout", "ChartSpec", "render_chart", "series_for",
    "EXAMPLE24_LABELS", "example24_path", "example24_records",
]
