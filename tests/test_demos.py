"""The demos run in-process from a copy and write the committed SVGs.

Each demo writes its charts beside itself under `output/`, so copies in a
temporary directory leave the tracked files alone.
"""

import runpy
import shutil
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demos_write_the_committed_svgs(capsys, tmp_path):
    for script in sorted(DEMOS.glob("*.py")):
        shutil.copy(script, tmp_path / script.name)
        runpy.run_path(str(tmp_path / script.name), run_name="__main__")
        assert capsys.readouterr().err == "", script.name
    committed = sorted(p.name for p in (DEMOS / "output").glob("*.svg"))
    written = sorted(p.name for p in (tmp_path / "output").glob("*.svg"))
    assert written == committed
    for name in committed:
        assert ((tmp_path / "output" / name).read_bytes()
                == (DEMOS / "output" / name).read_bytes()), name
