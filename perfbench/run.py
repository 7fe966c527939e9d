"""Benchmark of gainslift: one workload per process, every op checked.

    python3 perfbench/run.py --workload cli-curves --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports gainslift from `src/`. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

import time

_T0 = time.perf_counter()  # process start, as near as the script can see it

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_OPS = 40          # op_s.tail needs ten samples beyond it
SETUP_PROBES = 3      # extra processes that only set up, for setup_s
PROBE_TIMEOUT_S = 120
SETUP_REFS = 3        # reference timings at each boundary of a set-up

# Host speed on a shared machine drifts by up to 2x in phases of tens of
# seconds, longer than a run, and it slows the program and any fixed piece
# of Python alike. Every reported time is therefore scaled to a host on
# which the reference kernel takes REF_S:
#     wall time * REF_S / (kernel time measured around it).
REF_S = 0.006
REF_LOOP = 60_000
_REF_ROWS = [f"r{i:05d},{(i * 7919) % 10007 / 10007!r},{i % 3 % 2}"
             for i in range(2_000)]


def reference_s() -> float:
    """Wall time of a fixed kernel in two halves: an integer loop, and the
    allocation-heavy kind of work the program does (split text rows, parse
    floats, sort tuples, build Fractions). Either half alone tracked the
    ops' slow phases less closely: the loop slowed less than the ops, the
    allocating half more. The cyclic collector is paused so that the
    program's heap cannot slow the kernel."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for k in range(REF_LOOP):
            total += k * k
        rows = [line.split(",") for line in _REF_ROWS]
        ranked = sorted((-float(s), rid, int(y)) for rid, s, y in rows)
        hits = 0
        ratios = []
        for n, (_, _, y) in enumerate(ranked, start=1):
            hits += y
            ratios.append(Fraction(hits, n))
        return time.perf_counter() - start
    finally:
        gc.enable()


def _import_program():
    """Import the gainslift modules the workloads call."""
    sys.path.insert(0, str(SRC))
    import gainslift
    import gainslift.cli  # not imported by the package itself
    return gainslift


def _reference_median() -> float:
    return statistics.median(reference_s() for _ in range(SETUP_REFS))


def setup(name: str, seed: int, workdir: Path, tracer=None):
    """Import the program, build the workload and run one warm-up round.

    Returns the workload, its round of ops and the set-up seconds: process
    start to ready, less the benchmark's own input generation and reference
    timings. Imports and the rest are each scaled by the reference timings
    at their two ends.
    """
    start = time.perf_counter()
    ref_start = _reference_median()
    imports_s = -(time.perf_counter() - start)  # the timing is not set-up
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    gl = _import_program()
    imports_s += time.perf_counter() - _T0
    ref_mid = _reference_median()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    start = time.perf_counter()
    if tracer is not None:
        tracer.install(gl)
    workload.prepare(gl)
    ops = workload.round()
    for op in ops:
        op.reset()
        op.run()
    ready_s = time.perf_counter() - start
    ref_end = _reference_median()
    setup_s = (imports_s * 2 * REF_S / (ref_start + ref_mid)
               + ready_s * 2 * REF_S / (ref_mid + ref_end))
    return workload, ops, setup_s


def probe_setup_s(name: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def measure(ops, seconds: float, min_ops: int, tracer=None):
    """Repeat whole rounds until `seconds` have passed and at least `min_ops`
    ops ran. The reference kernel runs between ops; each op's wall time is
    scaled by the mean of the kernel timings just before and just after it.

    Returns the scaled op times, the raw wall times, the failed count, and
    whether every failure was a known fault.
    """
    scaled: list[float] = []
    wall: list[float] = []
    failed = 0
    correct = True
    ref_before = reference_s()
    start = time.perf_counter()
    while True:
        for op in ops:
            op.reset()
            t = time.perf_counter()
            result = op.run()
            wall.append(time.perf_counter() - t)
            ref_after = reference_s()
            factor = 2 * REF_S / (ref_before + ref_after)
            ref_before = ref_after
            scaled.append(wall[-1] * factor)
            if tracer is not None:
                tracer.end_op(factor)
            if not op.check(result):
                failed += 1
                if op.known_fault is None:
                    correct = False
                    print(f"check failed: {op.name}", file=sys.stderr)
        if time.perf_counter() - start >= seconds and len(wall) >= min_ops:
            return scaled, wall, failed, correct


def tail(times: list[float]) -> float:
    """Highest order statistic with at least ten samples above it (never
    below the median, which short smoke runs fall back to)."""
    return sorted(times)[max(len(times) - 11, len(times) // 2)]


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        min_ops: int = MIN_OPS, probes: bool = True) -> dict:
    tracer = None
    if trace:
        from layers import LayerTracer
        tracer = LayerTracer()
    workload, ops, setup_s = setup(name, seed, workdir, tracer)
    setups = [setup_s] + (probe_setup_s(name, seed) if probes and not trace else [])
    if tracer is not None:
        tracer.reset()
    times, wall, failed, correct = measure(ops, seconds, min_ops, tracer)
    p50 = statistics.median(times)
    if trace:
        metrics = tracer.per_op(times)
        metrics["trace.op_s.p50"] = p50
        units = {k: ("count" if k.endswith(".calls") else
                     "MB" if k.endswith("_mb") else "s") for k in metrics}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s.p50": p50,
            "op_s.tail": tail(times),
            "records_per_s": workload.records_per_op * len(times) / sum(times),
            "peak_rss_mb": peak_mb,
        }
        units = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s",
                 "records_per_s": "1/s", "peak_rss_mb": "MB"}
    print(f"{name} seed={seed} ops={len(times)} failed={failed} "
          f"op_s.p50={p50:.4f} wall_p50={statistics.median(wall):.4f} "
          f"setups={[round(s, 4) for s in setups]}")
    return {"correct": correct, "attempted": len(times), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cli-curves, cli-point-ties or compare-resample")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {'setup_s': ...} and exit")
    args = parser.parse_args(argv)
    if not (SRC / "gainslift" / "__init__.py").is_file():
        print(f"perfbench: no gainslift sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    workdir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, workdir)[2]}))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
