"""Bundled example data.

The 24-record example set is a small hand-ranked test set (12 positives, 12
negatives, strictly decreasing scores) used throughout the documentation and
tests: its gains table, AUC, and the effect of small rank perturbations are
all known in closed form.
"""

from __future__ import annotations

from pathlib import Path

from .records import ScoredRecord

EXAMPLE24_LABELS: tuple[int, ...] = (
    1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)


def example24_records() -> list[ScoredRecord]:
    """The 24-record example set, scores strictly decreasing from 0.99."""
    return [
        ScoredRecord(id=f"t{i+1:02d}", score=round(0.99 - i * 0.01, 2), label=y)
        for i, y in enumerate(EXAMPLE24_LABELS)
    ]


def example24_path() -> Path:
    """Path of the bundled csv copy (id,score,label with header)."""
    # imported here: importlib.resources loads tempfile, shutil and zipfile
    from importlib import resources
    return Path(resources.files("gainslift").joinpath("data/example24.csv"))
