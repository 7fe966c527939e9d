"""The benchmark's layer tracer (perfbench/layers.py) wraps functions at the
names their callers look them up by. This test runs a few commands under the
tracer, in a fresh interpreter because the tracer patches modules in place,
and checks that each layer still sees its calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from gainslift import example24_path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gainslift
import gainslift.cli
from layers import LayerTracer

tracer = LayerTracer()
tracer.install(gainslift)
commands = json.loads(sys.argv[3])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [gainslift.cli.cli_main(argv) for argv in commands]
print(json.dumps({"codes": codes, "calls": tracer.calls}))
"""


def test_layer_tracer_sees_the_command_line_calls(tmp_path):
    example = str(example24_path())
    commands = [
        ["lift", "--input", example, "--n", "6"],
        ["gains", "--input", example, "--n", "6"],
        ["benefit", "--input", example, "--qtp", "5", "--qfp", "-1",
         "--n", "6"],
        ["lift", "--input", example, "--format", "json",
         "--out", str(tmp_path / "lift.json")],
        ["chart", "--input", example, "--kind", "lift",
         "--out", str(tmp_path / "lift.svg")],
        ["chart", "--input", example, "--kind", "roc",
         "--out", str(tmp_path / "roc.svg")],
        ["deciles", "--input", example],
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"),
         str(ROOT / "perfbench"), json.dumps(commands)],
        capture_output=True, text=True, cwd=tmp_path, env=env, check=True)
    out = json.loads(result.stdout)
    assert out["codes"] == [0] * len(commands)
    calls = {layer: n for layer, n in out["calls"].items() if n}
    assert calls == {
        "cli.cli_main": 7,
        "metrics.point": 4,
        "metrics.lift_series": 2,
        "metrics.roc_points": 1,
        "charts.render_chart": 2,
    }
