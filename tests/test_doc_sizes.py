"""The two documents every change touches stay readable.

EXPERIMENTS.md holds the paper's figures and the standing measurements;
the notebook of one change goes to ``notes/``.  CHANGES.md is read in a
terminal, one entry per change, wrapped like the rest of the repository.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPERIMENTS_MAX_LINES = 450
CHANGES_MAX_COLUMNS = 100


def test_experiments_md_stays_short():
    lines = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines()
    assert len(lines) <= EXPERIMENTS_MAX_LINES, (
        f"EXPERIMENTS.md has {len(lines)} lines, at most {EXPERIMENTS_MAX_LINES}: "
        "move a notebook to notes/"
    )


def test_changes_md_is_wrapped():
    wide = [
        (number, len(line))
        for number, line in enumerate(
            (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > CHANGES_MAX_COLUMNS
    ]
    assert not wide, f"CHANGES.md lines wider than {CHANGES_MAX_COLUMNS} columns: {wide}"
