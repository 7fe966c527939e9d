"""Byte-for-byte pins of what the command line writes.

Each digest is the sha256 of the text one command prints (or writes with
`--out`) for a seeded 2,000-row file, under every tie policy. One file has
distinct scores; the other has 40 score levels, so cutoffs fall inside tie
groups and the expected-value policy yields fractional gains. Each file has
a rescored twin with the same ids and labels, for `compare`. Any change to
a curve kernel or serializer that moves a single byte fails here.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gainslift import (ResamplePlan, ScoredRecord, example24_path, run_plan,
                       summary_to_json)
from gainslift.cli import cli_main

ROWS = 2_000
RESCORED = "<the rescored twin of --input>"

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
    "compare-text": ["compare", "--input", RESCORED, "--targets", "100,700,1000"],
    "chart-gains-fraction": ["chart", "--kind", "gains-fraction"],
    "chart-decile-lift": ["chart", "--kind", "decile-lift"],
    "chart-benefit": ["chart", "--kind", "benefit", "--qtp", "10", "--qfp=-1"],
    "lift-at-n": ["lift", "--n", "700", "--precision", "8"],
    "gains-at-fraction": ["gains", "--fraction", "0.37", "--exact"],
    "benefit-at-n": ["benefit", "--n", "900", "--qtp", "10", "--qfp=-1"],
    "benefit-csv": ["benefit", "--qtp", "0.1", "--qfp=-0.3"],
    "benefit-json": ["benefit", "--format", "json", "--qtp", "0.1", "--qfp=-0.3"],
    "deciles-text": ["deciles"],
    "deciles-exact": ["deciles", "--exact"],
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


def _write_rescored(source: Path, path: Path, tied: bool) -> None:
    """`source`'s ids and labels in the same order with new, weaker scores."""
    rng = random.Random(20193 if tied else 20192)
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for row in rows:
        rid, _, label = row.split(",")
        score = rng.random() + 0.3 * int(label)
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
        paths[f"{kind}-rescored"] = base / f"{kind}-rescored.csv"
        _write_rescored(paths[kind], paths[f"{kind}-rescored"],
                        tied=(kind == "tied"))
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
    "untied/input/benefit-at-n":
        "b2241f047e895f8aced12dfa6c3184d58f61bba70c97e50574c54f379f3f38ac",
    "tied/input/benefit-at-n":
        "1268f6c2ba227ddf57626db6ac6638eca74c569910aac9585cc12400866404f2",
    "untied/id/benefit-at-n":
        "b2241f047e895f8aced12dfa6c3184d58f61bba70c97e50574c54f379f3f38ac",
    "tied/id/benefit-at-n":
        "abd4c99a4a82c89eda896e0781ab6cc8271a2cebf404925e41979be3e7aa1882",
    "untied/expected/benefit-at-n":
        "b2241f047e895f8aced12dfa6c3184d58f61bba70c97e50574c54f379f3f38ac",
    "tied/expected/benefit-at-n":
        "55989239f97af45a108bd1b1de3faa708786bb31507b5dd443b6a531f5bbc031",
    "untied/input/benefit-csv":
        "af19588e9372510087b50c0fb75b78e8a11c9d61d6dd86042e516cfea5ac4dd7",
    "tied/input/benefit-csv":
        "4c440727cc574771e51cae43d1568952fe4369b6a9d30664729c03070c50dcc3",
    "untied/id/benefit-csv":
        "af19588e9372510087b50c0fb75b78e8a11c9d61d6dd86042e516cfea5ac4dd7",
    "tied/id/benefit-csv":
        "284681207157b11a7996fffef50912ccf8fbd0e3eb17ec8f6ba0d9b0cfca5690",
    "untied/expected/benefit-csv":
        "af19588e9372510087b50c0fb75b78e8a11c9d61d6dd86042e516cfea5ac4dd7",
    "tied/expected/benefit-csv":
        "8204da5ccc5f3db918e3a8defd26ace35ad21767fc156410fe3a45fc3c43fc24",
    "untied/input/benefit-json":
        "b3208c1fda030f9c5e3d9c940b856a1f101f1dfbbd7dfce05026f30dcd6ea53e",
    "tied/input/benefit-json":
        "b24c5fda62690cf258c28b5e62837e79f13177fc833eebd482701190aeacedbe",
    "untied/id/benefit-json":
        "b3208c1fda030f9c5e3d9c940b856a1f101f1dfbbd7dfce05026f30dcd6ea53e",
    "tied/id/benefit-json":
        "de4e2b685e096fbb9beb87285d42ecf59ba8f4c5e8f0c782799fae4b50a4b907",
    "untied/expected/benefit-json":
        "b3208c1fda030f9c5e3d9c940b856a1f101f1dfbbd7dfce05026f30dcd6ea53e",
    "tied/expected/benefit-json":
        "25552cae84ee1a37b9f8c98cb61db3a0300ac79d4a6a6925cbc7dfc21973e012",
    "untied/input/chart-benefit":
        "c3fd5a6c9261097b8b321461e7aeda7efcd1aeb2530ae54202ebc3db58f976d5",
    "tied/input/chart-benefit":
        "8065cb0324815c7e369d3de376b2073768cd6e784b08121562692e7a906bd55c",
    "untied/id/chart-benefit":
        "c3fd5a6c9261097b8b321461e7aeda7efcd1aeb2530ae54202ebc3db58f976d5",
    "tied/id/chart-benefit":
        "2dfd03ea92206cf7d600bbdd1f454e06accbd1da83dff8e6a01d8770b66837e6",
    "untied/expected/chart-benefit":
        "c3fd5a6c9261097b8b321461e7aeda7efcd1aeb2530ae54202ebc3db58f976d5",
    "tied/expected/chart-benefit":
        "91cdf732c5dd3a1a8ba7fd7e1628c98533ba3955619521dbcdf39689b04db5e7",
    "untied/input/chart-decile-lift":
        "b8d0f77f2d0e43f463b051fe48cb47c4644b0bd86c9299297fc89b7a1b61d3cb",
    "tied/input/chart-decile-lift":
        "5a5a52dffe2463a1bcc241166a2fc5c5038a07a726bde8169e94c860017b9d63",
    "untied/id/chart-decile-lift":
        "b8d0f77f2d0e43f463b051fe48cb47c4644b0bd86c9299297fc89b7a1b61d3cb",
    "tied/id/chart-decile-lift":
        "7d0be74e2fc8f126b6a0cd45c0ce3a72a22e4ca97be6fa7601a0c8f2f8e65c48",
    "untied/expected/chart-decile-lift":
        "b8d0f77f2d0e43f463b051fe48cb47c4644b0bd86c9299297fc89b7a1b61d3cb",
    "tied/expected/chart-decile-lift":
        "b2c8871a26b48cf2af6e532afc70e362323e8aa2fd5dac9d22882134bf7a6bba",
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
    "untied/input/chart-gains-fraction":
        "39949e8c5d81ebfada32c7035f44859f6543b12831946f8c1ac5726db7f24765",
    "tied/input/chart-gains-fraction":
        "4365120baf8918ba5023d45a5f984729f38320d2d9e6bc318bd28ddb42151301",
    "untied/id/chart-gains-fraction":
        "39949e8c5d81ebfada32c7035f44859f6543b12831946f8c1ac5726db7f24765",
    "tied/id/chart-gains-fraction":
        "209f77a6827f2935f8fdf4b5c8bba008782b33eab8270ea9a156ccf3471898a7",
    "untied/expected/chart-gains-fraction":
        "39949e8c5d81ebfada32c7035f44859f6543b12831946f8c1ac5726db7f24765",
    "tied/expected/chart-gains-fraction":
        "e6c72e930d0c8ae9c7185a7b9663f35dcd3bd011a1481f857d6925e544a4d7ee",
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
    "untied/input/compare-text":
        "6f65f20b0eba8eb7bfcebcc705146c3e298d0fab8e2737c8d314721e5ea62855",
    "tied/input/compare-text":
        "d4b0ff1043dc8be8f81477b787282832c0a3aade1e3e37e61921ea33eed83e3e",
    "untied/id/compare-text":
        "6f65f20b0eba8eb7bfcebcc705146c3e298d0fab8e2737c8d314721e5ea62855",
    "tied/id/compare-text":
        "725649f2845beffa4f7d258e9c8ae245c19b6583f7b0bba8d2c5c8d8d405c53d",
    "untied/expected/compare-text":
        "6f65f20b0eba8eb7bfcebcc705146c3e298d0fab8e2737c8d314721e5ea62855",
    "tied/expected/compare-text":
        "aa8406afde8a75649d25570d2f9c9567ff94565cfb383027a34206a33bc6d648",
    "untied/input/deciles-exact":
        "0f31c121a1528f5412d8c1248dd0da4e3d5c63e057e91420742f24ff7ca5e719",
    "tied/input/deciles-exact":
        "04092bbab1fa32bd4cee3f06cce4188c40b6795a437157d64d1a3eaf5ae62573",
    "untied/id/deciles-exact":
        "0f31c121a1528f5412d8c1248dd0da4e3d5c63e057e91420742f24ff7ca5e719",
    "tied/id/deciles-exact":
        "fff1e15cc412e6f59ed429821247fd505be8e84eba45399df07d032d2e569590",
    "untied/expected/deciles-exact":
        "0f31c121a1528f5412d8c1248dd0da4e3d5c63e057e91420742f24ff7ca5e719",
    "tied/expected/deciles-exact":
        "ba2711307a24019a71b47a4c5323dd412dead843ac7b8f6b8c584f46c88f82c7",
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
    "untied/input/deciles-text":
        "f35ffe6880e817c41f2de28b06093279f088a657e517b2f71cbd29e62c4846fc",
    "tied/input/deciles-text":
        "74eb050dd3fb3f7f58c4513938c1d18533521ed60f794dbad5f2b754920c1e72",
    "untied/id/deciles-text":
        "f35ffe6880e817c41f2de28b06093279f088a657e517b2f71cbd29e62c4846fc",
    "tied/id/deciles-text":
        "ed31c79c0e969668ba444442e64ddc4223ee11d3a033d85abe040aea7458517f",
    "untied/expected/deciles-text":
        "f35ffe6880e817c41f2de28b06093279f088a657e517b2f71cbd29e62c4846fc",
    "tied/expected/deciles-text":
        "803ac49b1cbb34b147dff302d088c0b308e7a5243a4a9324ea2e569592fc035e",
    "untied/input/gains-at-fraction":
        "13e7a9decbce922176ed35763497a2dd518381561eea8919e344688f95c7cfdd",
    "tied/input/gains-at-fraction":
        "75fa55306cb81a01b436fa14731c79e18036d89472e4280d44bc2776e8d3184b",
    "untied/id/gains-at-fraction":
        "13e7a9decbce922176ed35763497a2dd518381561eea8919e344688f95c7cfdd",
    "tied/id/gains-at-fraction":
        "75fa55306cb81a01b436fa14731c79e18036d89472e4280d44bc2776e8d3184b",
    "untied/expected/gains-at-fraction":
        "13e7a9decbce922176ed35763497a2dd518381561eea8919e344688f95c7cfdd",
    "tied/expected/gains-at-fraction":
        "c549ec3f59bfec9a65dc93af301c1f022909bc851a546766f1a3b3efe35eb981",
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
    "untied/input/lift-at-n":
        "c4881b891cfcaccff5be27c9187ba8e17221ba1d6ba468f447fad231356ff95a",
    "tied/input/lift-at-n":
        "9de6ccc883f0ad8cb25a51d26897ff2d2f9eea3915720d8a7dfcf7d6e537f819",
    "untied/id/lift-at-n":
        "c4881b891cfcaccff5be27c9187ba8e17221ba1d6ba468f447fad231356ff95a",
    "tied/id/lift-at-n":
        "bd1568d59faedd79bb7399d2b74a761aad5cfcf8ac97a3917701b24b3040880c",
    "untied/expected/lift-at-n":
        "c4881b891cfcaccff5be27c9187ba8e17221ba1d6ba468f447fad231356ff95a",
    "tied/expected/lift-at-n":
        "032c66b861f1c1b7759b07356da2816b2303846a4143a9d49a6c2da09b7dafd7",
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
    rest = [str(inputs[f"{kind}-rescored"]) if arg == RESCORED else arg
            for arg in rest]
    argv = [name, "--input", str(inputs[kind]), "--tie-policy", policy, *rest]
    text = _output_of(capsys, tmp_path, argv)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED[f"{kind}/{policy}/{command}"]


def test_chart_title_digest(capsys, tmp_path):
    """A title holding markup characters, an entity's text and a non-ASCII
    letter: `&`, `<` and `>` are escaped, quotes and the rest kept."""
    title = "A & B <c> \"d\" 'e' &amp; \u00e9"
    text = _output_of(capsys, tmp_path, ["chart", "--input",
                                         str(example24_path()), "--kind",
                                         "lift", "--title", title])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == (
        "c3aa12bb37530ce4cc634111b18d30a06cada7a9d06bd48c39fbbe77ecd77feb")


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


DISAGREE_COMMANDS = {
    "found": ["disagree", "--metric-a", "auc", "--metric-b", "lift@6",
              "--n", "10", "--npos", "5"],
    "sampled": ["disagree", "--metric-a", "lift@3", "--metric-b",
                "accuracy@7", "--n", "20", "--npos", "10", "--budget", "500",
                "--seed", "3", "--precision", "3"],
    "none": ["disagree", "--metric-a", "auc", "--metric-b", "auc",
             "--n", "8", "--npos", "4"],
    "two-in-300": ["disagree", "--metric-a", "auc", "--metric-b", "lift@3",
                   "--n", "300", "--npos", "2", "--budget", "1000000",
                   "--format", "json"],
    "six-in-22": ["disagree", "--metric-a", "auc", "--metric-b",
                  "accuracy@5", "--n", "22", "--npos", "6", "--budget",
                  "1000000", "--format", "json"],
}

DISAGREE_PINNED = {
    "found":
        "7eb7e5dbc7901bd92f9e470e3a3154d5996b5c44f68ce72efe77d69c976895f0",
    "none":
        "6d7753ca442ee5d82936f47d0b06fe7959b1759f0ab6a0e8cd1c935d1f5a2591",
    "sampled":
        "b6ba91b0d006268fed94516c5d5c08cf6dbd83f04cef89d445953a30264e7db3",
    "six-in-22":
        "fdac024504f1a2eaf5904665de6f1cb55e26fcecd806acb2afbabb3a0d7adf5a",
    "two-in-300":
        "6eb966b296dbe18e37adfe89c2204b4140d8794396d91026fa466c6c62e75490",
}


@pytest.mark.parametrize("case", sorted(DISAGREE_COMMANDS))
def test_disagree_digest(capsys, tmp_path, case):
    text = _output_of(capsys, tmp_path, DISAGREE_COMMANDS[case])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DISAGREE_PINNED[case]


RESAMPLE_PINNED = {
    "untied/csv":
        "538e87593a097b0abad2fd4ff14a8194aa919e534b0bd327c179a27176038fd5",
    "untied/json":
        "836b02010bdc6535e66c128f6857a9c8ec50851731e86b73a9828203f35a7a0c",
    "tied/csv":
        "dbedde8054a933d8696a5d69db012c9a2b0a71d268ac8cb1a57539ee5666c521",
    "tied/json":
        "9776fa320bcd3ae5c67f5b9ca0b8cbe57c54bd14517addc7e5e279716b9c1911",
}


@pytest.mark.parametrize("kind", ["untied", "tied"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_resample_digest(capsys, tmp_path, inputs, kind, fmt):
    argv = ["resample", "--input", str(inputs[kind]), "--rates",
            "0.05,0.117,0.2", "--reps", "5", "--size", "500", "--seed", "7",
            "--format", fmt]
    text = _output_of(capsys, tmp_path, argv)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == RESAMPLE_PINNED[f"{kind}/{fmt}"]


# A 20,000-row file at 48 score levels, as in perfbench's cli-point-ties:
# every tie group holds about 417 rows, so any change to the order within a
# group (an unstable sort, a different id key) moves these bytes, and the
# curves' columns hold long runs of equal values.
TIES_ROWS = 20_000
TIES_LEVELS = 48


def _tied_columns(seed: int):
    """Seeded labels, 48-level scores and shuffled ids of TIES_ROWS rows."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(TIES_ROWS) < 0.15).astype(np.int64)
    latent = rng.normal(size=TIES_ROWS) + 1.2 * labels
    level = np.argsort(np.argsort(latent, kind="stable"), kind="stable")
    scores = (level * TIES_LEVELS // TIES_ROWS + 1) / 64
    ids = [f"r{i:06d}" for i in rng.permutation(TIES_ROWS)]
    return ids, scores, labels


@pytest.fixture(scope="module")
def large_tied(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "ties.csv"
    ids, scores, labels = _tied_columns(20_200)
    lines = ["id,score,label"]
    lines += [f"{i},{s!r},{y}" for i, s, y in
              zip(ids, scores.tolist(), labels.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


LARGE_TIED_COMMANDS = {
    "gains-id": ["gains", "--n", "3333", "--tie-policy", "id"],
    "lift-json": ["lift", "--format", "json"],
    "lift-json-id": ["lift", "--format", "json", "--tie-policy", "id"],
    "deciles-expected": ["deciles", "--tie-policy", "expected"],
    "perturb-id": ["perturb", "--swap", "6:8", "--tie-policy", "id"],
    "perturb-input": ["perturb", "--swap", "6:8"],
    "gains": ["gains"],
    "gains-fraction-json": ["gains", "--x", "fraction", "--format", "json"],
    "gains-json-expected": ["gains", "--format", "json", "--tie-policy",
                            "expected"],
    "roc": ["roc"],
    "roc-json": ["roc", "--format", "json"],
    "benefit-json": ["benefit", "--qtp", "1", "--qfp=-0.2", "--format", "json"],
}

LARGE_TIED_PINNED = {
    "benefit-json":
        "9ac56b6ac2abbe5f8a8c5f22f3f9f445d24f0a6d387e8f1c15eb4e767d4a01e7",
    "deciles-expected":
        "152e348f2dacc51def282fa350977a38e922650b94bfa8f9840ca114884e9242",
    "gains":
        "9decf825a81b0f6fb6c812d86871b030e15e334b255e8746dcb2235dfda6786a",
    "gains-fraction-json":
        "d5fd310de95f2b68c7074baa57b16e5842c234af83c30412bd9f8e61c007f338",
    "gains-id":
        "119972e038a9b61ca0673a2752fb5875e5270d64056ce8e3dfdf2a54f79ccc1a",
    "gains-json-expected":
        "73039fe2f36545d529560fcd7b44ee2a2ae0ae8d74642928f13bd191f650bc40",
    "lift-json":
        "97e058ca568d99e1f0d2bdb90aecba3035d8b0fe6097f6c73fb5f5bbc7a707ca",
    "lift-json-id":
        "e3cb9d2875438133999054b31e2617b8ff42b5abb6ded68c720eda84669ca374",
    "perturb-id":
        "5f3fddc829ac90a33d776cbd8ae8db3a2894f3416a7f021ca59e15ef880dddd5",
    "perturb-input":
        "280ab5bbf26952fad6a64c53e40b040afd5c8530f9b39034e4da64a24bdf74a9",
    "roc":
        "49c252692f9112906e9d710ffce64c029b24fe26a8bf2875cd2c94b585167b5b",
    "roc-json":
        "90cc365dbcb398f0e04737049b655325251126ec3da5d06cd87e71263f105dd0",
}


@pytest.mark.parametrize("command", sorted(LARGE_TIED_COMMANDS))
def test_large_tied_digest(capsys, tmp_path, large_tied, command):
    name, *rest = LARGE_TIED_COMMANDS[command]
    text = _output_of(capsys, tmp_path, [name, "--input", str(large_tied), *rest])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == LARGE_TIED_PINNED[command]


def test_run_plan_digest_on_a_tied_pool():
    """Replicates of 5,000 drawn from a 20,000-row pool at 48 score levels,
    so each replicate's ranking keeps many tied rows in draw order."""
    ids, scores, labels = _tied_columns(20_201)
    pool = list(map(ScoredRecord, ids, scores.tolist(), labels.tolist()))
    plan = ResamplePlan(target_rates=(0.05, 0.117, 0.2), replicate_count=4,
                        sample_size=5_000, seed=11)
    text = summary_to_json(run_plan(pool, plan))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == (
        "5fec5c84bde8e2576609e1cb2c123ae8a3976debd72b373aefb6140b7c1de2c0")


def _is_curve(argv) -> bool:
    """A command that writes a whole curve: no cutoff, and not `deciles`,
    whose stdout is a text table and whose --out is the decile series."""
    name, *rest = argv
    return (name in ("gains", "lift", "roc", "benefit")
            and "--n" not in rest and "--fraction" not in rest)


CURVE_COMMANDS = sorted(
    [(f"pinned/{command}", argv) for command, argv in COMMANDS.items()
     if _is_curve(argv)]
    + [(f"large/{command}", argv) for command, argv in
       LARGE_TIED_COMMANDS.items() if _is_curve(argv)])


@pytest.mark.parametrize("case,argv", CURVE_COMMANDS,
                         ids=[case for case, _ in CURVE_COMMANDS])
def test_stdout_and_out_write_the_same_bytes(capsys, tmp_path, inputs,
                                             large_tied, case, argv):
    """The 20,000-row curves span many write pieces; --out must hold
    exactly what stdout shows."""
    path = inputs["tied"] if case.startswith("pinned/") else large_tied
    argv = [argv[0], "--input", str(path), *argv[1:]]
    assert cli_main(argv) == 0
    shown, err = capsys.readouterr()
    assert err == ""
    out = tmp_path / "curve.txt"
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == shown.encode("utf-8")


# what `python tools/cli_digest.py src` prints: one sha256 over every run of
# its matrix (every subcommand under every tie policy on several inputs,
# error forms and help texts); update it only where a change means to alter
# what the command line writes
CLI_DIGEST = ("a7e19ac141cde9576851d633f70c3147ce60a6a0d338fe8205bee6580be19045"
              "  930 runs: 874 exit 0, 56 exit 1\n")


def test_cli_digest_is_pinned():
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(root / "tools" / "cli_digest.py"),
         str(root / "src")], capture_output=True, text=True, cwd=root)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == CLI_DIGEST


def test_a_tool_given_no_gainslift_exits_2(tmp_path):
    """A SRC_DIR that holds no gainslift gives the tools' one message and
    exit status 2, not an import traceback."""
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(root / "tools" / "cli_digest.py"),
         str(tmp_path)], capture_output=True, text=True, cwd=tmp_path,
        env=env)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"gainslift was not imported from {tmp_path.resolve()}\n")
