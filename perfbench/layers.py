"""Per-layer timing for the traced run, recorded from outside the program.

Each layer-entry function is replaced, at the name its caller looks it up
by, with a wrapper that records a span. A layer's self time is its span's
duration minus the spans of wrapped layers it called. Per-cutoff calls
(`lift` inside `lift_series`, `decile_lift` or `dominance`) are never
wrapped, so they count toward the self time of the layer that loops.
"""

from __future__ import annotations

import functools
import tracemalloc
from time import perf_counter

LAYERS = (
    "cli.cli_main", "io.load_scored", "io.emit_curves", "io.summary_to_json",
    "records.rank_records", "metrics.gains_series", "metrics.lift_series",
    "metrics.roc_points", "metrics.auc_pairs", "metrics.point",
    "charts.render_chart", "compare.dominance", "compare.compare_at",
    "compare.find_disagreement", "resample.run_plan",
    "resample.stratified_sample",
)

# single-cutoff measures as the command line calls them
POINT_FUNCTIONS = ("cum_gains", "lift", "decile_lift", "cum_benefit",
                   "auc_wilcoxon")


class _Facade:
    """Stands in for a module at one caller: listed names are replaced, all
    others resolve to the module itself."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class LayerTracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._op_self_s = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.auc_pairs_peak_mb = 0.0
        self._peak_pending = True

    def reset(self) -> None:
        """Forget spans recorded so far (the warm-up), keep the peak."""
        self._op_self_s = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)

    def end_op(self, factor: float) -> None:
        """Add the op just finished, its times scaled like its wall time."""
        for layer, spent in self._op_self_s.items():
            self.self_s[layer] += spent * factor
        self._op_self_s = dict.fromkeys(LAYERS, 0.0)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self._stack.pop()
                self._op_self_s[layer] += spent - children[0]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += spent
        return traced

    def wrap_peak(self, layer: str, fn):
        """Like `wrap`; the first call also records its peak traced
        allocation. Later calls run without tracemalloc, so its cost stays
        out of the layer's time."""
        traced = self.wrap(layer, fn)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if not self._peak_pending:
                return traced(*args, **kwargs)
            self._peak_pending = False
            tracemalloc.start()
            try:
                return traced(*args, **kwargs)
            finally:
                self.auc_pairs_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        return measured

    def install(self, gl) -> None:
        """Wrap every layer entry of the imported gainslift modules."""
        cli, io, metrics = gl.cli, gl.io, gl.metrics
        patches = [
            (cli, "cli_main", "cli.cli_main"),
            (io, "load_scored", "io.load_scored"),
            (io, "emit_curves", "io.emit_curves"),
            (io, "summary_to_json", "io.summary_to_json"),
            # cli and resample import rank_records by name
            (cli, "rank_records", "records.rank_records"),
            (gl.resample, "rank_records", "records.rank_records"),
            (metrics, "gains_series", "metrics.gains_series"),
            (metrics, "lift_series", "metrics.lift_series"),
            (metrics, "roc_points", "metrics.roc_points"),
            (gl.charts, "render_chart", "charts.render_chart"),
            (gl.compare, "dominance", "compare.dominance"),
            (gl.compare, "compare_at", "compare.compare_at"),
            (gl.compare, "find_disagreement", "compare.find_disagreement"),
            (gl.resample, "run_plan", "resample.run_plan"),
            (gl.resample, "stratified_sample", "resample.stratified_sample"),
        ]
        for module, name, layer in patches:
            setattr(module, name, self.wrap(layer, getattr(module, name)))
        metrics.auc_pairs = self.wrap_peak("metrics.auc_pairs", metrics.auc_pairs)
        # metrics calls its own `lift` once per cutoff, so the single-cutoff
        # measures are wrapped only where the command line looks them up
        cli.metrics = _Facade(metrics, {
            name: self.wrap("metrics.point", getattr(metrics, name))
            for name in POINT_FUNCTIONS})

    def per_op(self, op_times: list[float]) -> dict[str, float]:
        """Self seconds and calls per op for every layer, the op time, and
        the part of it that no layer accounts for (all times scaled)."""
        ops = len(op_times)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[layer] = self.self_s[layer] / ops
            out[f"{layer}.calls"] = self.calls[layer] / ops
        out["metrics.auc_pairs.peak_mb"] = self.auc_pairs_peak_mb
        mean = sum(op_times) / ops
        out["trace.op_s.mean"] = mean
        out["trace.unattributed_s"] = mean - sum(out[layer] for layer in LAYERS)
        return out
