"""Byte-for-byte pins of what the command line and the demos write.

Each digest is the sha256 of the text one command prints (or writes with
`--out`) for a seeded 2,000-row file, under every tie policy. One file has
distinct scores; the other has 40 score levels, so cutoffs fall inside tie
groups and the expected-value policy yields fractional gains. Any change to
a curve kernel or serializer that moves a single byte fails here.
"""

import hashlib
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gainslift.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
ROWS = 2_000

COMMANDS = {
    "lift-json": ["lift", "--format", "json"],
    "gains-fraction": ["gains", "--x", "fraction"],
    "gains-json": ["gains", "--format", "json"],
    "roc": ["roc"],
    "chart-lift": ["chart", "--kind", "lift"],
    "chart-gains-count": ["chart", "--kind", "gains-count"],
    "chart-roc": ["chart", "--kind", "roc"],
    "deciles-json": ["deciles", "--format", "json", "--out"],
    "auc-pairs": ["auc", "--method", "pairs"],
    "auc-wilcoxon": ["auc", "--method", "wilcoxon"],
}


def _write_input(path: Path, tied: bool) -> None:
    """A seeded scored file; ids are a shuffled permutation so that the id
    policy orders tie groups differently from the input."""
    rng = random.Random(20191 if tied else 20190)
    ids = [f"r{i:05d}" for i in range(ROWS)]
    rng.shuffle(ids)
    lines = ["id,score,label"]
    for rid in ids:
        label = 1 if rng.random() < 0.2 else 0
        score = rng.random() + 0.6 * label
        if tied:
            score = int(score * 25) / 25
        lines.append(f"{rid},{score!r},{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("pinned")
    paths = {}
    for kind in ("untied", "tied"):
        paths[kind] = base / f"{kind}.csv"
        _write_input(paths[kind], tied=(kind == "tied"))
    return paths


def _output_of(capsys, tmp_path, argv) -> str:
    if argv[-1] == "--out":
        out = tmp_path / "out.txt"
        code = cli_main(argv + [str(out)])
        assert capsys.readouterr() == ("", "")
        text = out.read_text(encoding="utf-8")
    else:
        code = cli_main(argv)
        text, err = capsys.readouterr()
        assert err == ""
    assert code == 0
    return text


PINNED = {
    "untied/input/auc-pairs":
        "7596e51236f1b6515084c552a28d9c7f240f951371878f84307addaebd1f50c8",
    "tied/input/auc-pairs":
        "ec2ff7855a32d9c53123eb704a688677487f1e9680cd220483321c43261ff351",
    "untied/id/auc-pairs":
        "7596e51236f1b6515084c552a28d9c7f240f951371878f84307addaebd1f50c8",
    "tied/id/auc-pairs":
        "ec2ff7855a32d9c53123eb704a688677487f1e9680cd220483321c43261ff351",
    "untied/expected/auc-pairs":
        "7596e51236f1b6515084c552a28d9c7f240f951371878f84307addaebd1f50c8",
    "tied/expected/auc-pairs":
        "ec2ff7855a32d9c53123eb704a688677487f1e9680cd220483321c43261ff351",
    "untied/input/auc-wilcoxon":
        "7596e51236f1b6515084c552a28d9c7f240f951371878f84307addaebd1f50c8",
    "tied/input/auc-wilcoxon":
        "ec2ff7855a32d9c53123eb704a688677487f1e9680cd220483321c43261ff351",
    "untied/id/auc-wilcoxon":
        "7596e51236f1b6515084c552a28d9c7f240f951371878f84307addaebd1f50c8",
    "tied/id/auc-wilcoxon":
        "ec2ff7855a32d9c53123eb704a688677487f1e9680cd220483321c43261ff351",
    "untied/expected/auc-wilcoxon":
        "7596e51236f1b6515084c552a28d9c7f240f951371878f84307addaebd1f50c8",
    "tied/expected/auc-wilcoxon":
        "ec2ff7855a32d9c53123eb704a688677487f1e9680cd220483321c43261ff351",
    "untied/input/chart-gains-count":
        "705ca532144314f4a03792398939f6490ba4c97baffa7d4b977800c9bede94c6",
    "tied/input/chart-gains-count":
        "2bbc83ca5285b591fd18b37ff5fb5addc6c1c73a4231325d9221d3ec7ba7bed7",
    "untied/id/chart-gains-count":
        "705ca532144314f4a03792398939f6490ba4c97baffa7d4b977800c9bede94c6",
    "tied/id/chart-gains-count":
        "f48cb3ad754f26c85782473d287269e5d06ede81213b489ae526ab3b50b10fab",
    "untied/expected/chart-gains-count":
        "705ca532144314f4a03792398939f6490ba4c97baffa7d4b977800c9bede94c6",
    "tied/expected/chart-gains-count":
        "81e068a6d0288aa71a96d1d69d80c55b63f0019cb7d3d34b0395f5ff226b8956",
    "untied/input/chart-lift":
        "b0d456ad424a6d3d828d5034d043698e3aa96eb4b28a78ff9580ffa2437011e1",
    "tied/input/chart-lift":
        "cb1b7077c6211d535f4806722bb3f663ae587724b1a01cc844cde7919a00999a",
    "untied/id/chart-lift":
        "b0d456ad424a6d3d828d5034d043698e3aa96eb4b28a78ff9580ffa2437011e1",
    "tied/id/chart-lift":
        "1783f4e762df8cb89c35392ee75f32291b793dadef86fbc6051f06723cd2ff70",
    "untied/expected/chart-lift":
        "b0d456ad424a6d3d828d5034d043698e3aa96eb4b28a78ff9580ffa2437011e1",
    "tied/expected/chart-lift":
        "0e5d3d350cfd9d4c959f2f7d1258e570219478a64241293fb5aa237830d80430",
    "untied/input/chart-roc":
        "ae5fab0f1290d1f3d67acf2c2eddc00ebd08bb402518667a25075297ff5a7f96",
    "tied/input/chart-roc":
        "73fd353177431cadefd12b269112d213f8ddbdfc7660c9ecd62aa71448d1515f",
    "untied/id/chart-roc":
        "ae5fab0f1290d1f3d67acf2c2eddc00ebd08bb402518667a25075297ff5a7f96",
    "tied/id/chart-roc":
        "73fd353177431cadefd12b269112d213f8ddbdfc7660c9ecd62aa71448d1515f",
    "untied/expected/chart-roc":
        "ae5fab0f1290d1f3d67acf2c2eddc00ebd08bb402518667a25075297ff5a7f96",
    "tied/expected/chart-roc":
        "73fd353177431cadefd12b269112d213f8ddbdfc7660c9ecd62aa71448d1515f",
    "untied/input/deciles-json":
        "65552dcbb70ad7ba7f5aeae8adb99f813ffe007fa977a96ecb3bf9ff3ea72106",
    "tied/input/deciles-json":
        "fe8b815917b31a51152453e6ec212891e961698dccc486a1387730d68e9e2d8f",
    "untied/id/deciles-json":
        "65552dcbb70ad7ba7f5aeae8adb99f813ffe007fa977a96ecb3bf9ff3ea72106",
    "tied/id/deciles-json":
        "6cada58bd1ca940bcfd387cd3391548b973046d01635b6e42aae73be665d0d6b",
    "untied/expected/deciles-json":
        "65552dcbb70ad7ba7f5aeae8adb99f813ffe007fa977a96ecb3bf9ff3ea72106",
    "tied/expected/deciles-json":
        "127b61e168e1f289ed576867b799e8356f234d1324ec7b22b6bb6260bcac3573",
    "untied/input/gains-fraction":
        "773d2f8312299e2e3212155fa4cff5ce5e34c19df928eb175b41ba64545f7dce",
    "tied/input/gains-fraction":
        "98ca2e730261006eb55307dca22895e5e28efd3b4aa8f922aa3fe7b04a294cef",
    "untied/id/gains-fraction":
        "773d2f8312299e2e3212155fa4cff5ce5e34c19df928eb175b41ba64545f7dce",
    "tied/id/gains-fraction":
        "6c66a9db56ed61bb38629344931e6c05b968e267cfa4682b1e47b85f18e137e3",
    "untied/expected/gains-fraction":
        "773d2f8312299e2e3212155fa4cff5ce5e34c19df928eb175b41ba64545f7dce",
    "tied/expected/gains-fraction":
        "83600d20aa4af59f5f092d0eaa0b52603e958b8c6016e51193fbf7b6c49c0541",
    "untied/input/gains-json":
        "c72b0e944706ab0b22c32c472e9d591ad1bdd2c1a5ce3f84e1e6f09fb363de02",
    "tied/input/gains-json":
        "6f289646263699ecf19b30c4d0c1a751d9032fa83e0cd400c9ac6e391ea2edcc",
    "untied/id/gains-json":
        "c72b0e944706ab0b22c32c472e9d591ad1bdd2c1a5ce3f84e1e6f09fb363de02",
    "tied/id/gains-json":
        "ababa59379c86301df7aff3e8b9c09798ed6667e63ee70df9a58a3634e740025",
    "untied/expected/gains-json":
        "c72b0e944706ab0b22c32c472e9d591ad1bdd2c1a5ce3f84e1e6f09fb363de02",
    "tied/expected/gains-json":
        "3ddf8216a6d9dfa426c6ae9f5086652b39f9402b5a9abdd75361eee362c23d10",
    "untied/input/lift-json":
        "a443563fbbb26864bbe30f6bec799f7e1e6ba08451141c842e95a8a8a910810c",
    "tied/input/lift-json":
        "9aaa660dc07bbee125384b02fdb564f6e82b522e2c1b960a0ae712c6cf5d14f0",
    "untied/id/lift-json":
        "a443563fbbb26864bbe30f6bec799f7e1e6ba08451141c842e95a8a8a910810c",
    "tied/id/lift-json":
        "1c80dbeff58c07567b23f0b70612ffbe05573a00baf5a0c760537de33b51a56b",
    "untied/expected/lift-json":
        "a443563fbbb26864bbe30f6bec799f7e1e6ba08451141c842e95a8a8a910810c",
    "tied/expected/lift-json":
        "9ea7f3d863be54103a7c73feb719550bb7638e67bd8b652d922dcbefea8740a2",
    "untied/input/roc":
        "e52f201938d90f378235a999772dc6502d7478b48b8a0972cb36f614377e7ed0",
    "tied/input/roc":
        "67016f217393cc77fa85c04761bb2db3fb7391711acf69f0fa22f1162404cd0f",
    "untied/id/roc":
        "e52f201938d90f378235a999772dc6502d7478b48b8a0972cb36f614377e7ed0",
    "tied/id/roc":
        "67016f217393cc77fa85c04761bb2db3fb7391711acf69f0fa22f1162404cd0f",
    "untied/expected/roc":
        "e52f201938d90f378235a999772dc6502d7478b48b8a0972cb36f614377e7ed0",
    "tied/expected/roc":
        "67016f217393cc77fa85c04761bb2db3fb7391711acf69f0fa22f1162404cd0f",
}


@pytest.mark.parametrize("kind", ["untied", "tied"])
@pytest.mark.parametrize("policy", ["input", "id", "expected"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_digest(capsys, tmp_path, inputs, kind, policy, command):
    name, *rest = COMMANDS[command]
    argv = [name, "--input", str(inputs[kind]), "--tie-policy", policy, *rest]
    text = _output_of(capsys, tmp_path, argv)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED[f"{kind}/{policy}/{command}"]


PERTURB_PINNED = {
    "untied/input":
        "1bf9b0332fac5a4cab5e996df13ae2f538201b6106318045a37ad6b52666dac4",
    "untied/id":
        "1bf9b0332fac5a4cab5e996df13ae2f538201b6106318045a37ad6b52666dac4",
    "untied/expected":
        "1bf9b0332fac5a4cab5e996df13ae2f538201b6106318045a37ad6b52666dac4",
    "tied/input":
        "416206969d659a886f3a23f84f89ed14da320f5a6b62e9ae81b7f25895a072dd",
    "tied/id":
        "7768aed4b77f000ae078bd592a86fa78c217a32220501db4517d6e3f170a73e0",
    "tied/expected":
        "416206969d659a886f3a23f84f89ed14da320f5a6b62e9ae81b7f25895a072dd",
}


@pytest.mark.parametrize("kind", ["untied", "tied"])
@pytest.mark.parametrize("policy", ["input", "id", "expected"])
def test_perturb_digest(capsys, tmp_path, inputs, kind, policy):
    """`perturb` writes the swapped set in rank order, to stdout or to
    `--out`, with the same bytes."""
    argv = ["perturb", "--input", str(inputs[kind]), "--tie-policy", policy,
            "--swap", "6:8", "--swap", "12:16"]
    text = _output_of(capsys, tmp_path, argv)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PERTURB_PINNED[f"{kind}/{policy}"]
    out = tmp_path / "swapped.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode("utf-8")


def test_demos_write_the_committed_svgs(tmp_path):
    for script in sorted((ROOT / "demos").glob("*.py")):
        shutil.copy(script, tmp_path / script.name)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script in sorted(tmp_path.glob("*.py")):
        subprocess.run([sys.executable, str(script)], cwd=tmp_path, check=True,
                       capture_output=True, timeout=300,
                       env=env)
    committed = sorted(p.name for p in (ROOT / "demos" / "output").glob("*.svg"))
    written = sorted(p.name for p in (tmp_path / "output").glob("*.svg"))
    assert written == committed
    for name in committed:
        assert ((tmp_path / "output" / name).read_bytes()
                == (ROOT / "demos" / "output" / name).read_bytes()), name
