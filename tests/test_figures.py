"""The paper's figures, read from the committed fidelity matrix.

EXPERIMENTS.md's Fig. 3/5/6/7 and Table 1 blocks and the measured cell
of every claim row are the rendering (:mod:`repro.analysis`) of the
committed ``BENCH_perf.json`` and of ``repro table1``, byte for byte;
``tests/test_bench.py`` holds that document to a fresh run.  The shape
assertions are the paper's: who wins, roughly by how much, and where
the crossovers fall (absolute magnitudes are not expected to match,
DESIGN.md §1).  To print every figure::

    python -c "import json; from repro.analysis import render; \\
      print(*render(json.load(open('BENCH_perf.json'))).values(), sep='\\n\\n')"
"""

from __future__ import annotations

import json
from itertools import takewhile
from pathlib import Path

import pytest

from repro.analysis import fig3_cells, figure_cells, render
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
DOC = json.loads((ROOT / "BENCH_perf.json").read_text())
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()
CLAIMS_HEADER = "| paper claim | measured | match |"


class TestExperimentsMdIsTheRendering:
    @pytest.mark.parametrize("figure", ["3", "5", "6", "7"])
    def test_figure_block(self, figure):
        assert f"```\n{render(DOC)[figure]}\n```\n" in EXPERIMENTS, (
            f"EXPERIMENTS.md's Fig. {figure} block is not the rendering of "
            "BENCH_perf.json: paste repro.analysis.render(doc)[figure]"
        )

    def test_table1_block(self, capsys):
        assert main(["table1"]) == 0
        assert f"```\n{capsys.readouterr().out}```\n" in EXPERIMENTS

    def test_claim_rows(self):
        """Every rendered claim row heads one row of a claims table, and
        the claims tables hold no other row."""
        lines = EXPERIMENTS.splitlines()
        rendered = render(DOC)["claims"].splitlines()
        for row in rendered:
            assert sum(line.startswith(row) for line in lines) == 1, row
        tables = [i + 2 for i, line in enumerate(lines) if line == CLAIMS_HEADER]
        rows = [len(list(takewhile(lambda ln: ln.startswith("|"), lines[i:]))) for i in tables]
        assert sum(rows) == len(rendered)


def _fig3_gain(ws: str, threads: int, binary: str) -> float:
    """prefetch time / ``binary`` time at one bar (>1: ``binary`` wins)."""
    cells = fig3_cells(DOC)
    return cells[ws, threads, "prefetch"] / cells[ws, threads, binary]


class TestFig3Shape:
    """§2: no single static binary wins everywhere."""

    def test_one_thread_cache_resident_all_equal(self):
        assert abs(_fig3_gain("128K", 1, "noprefetch") - 1.0) < 0.05
        assert abs(_fig3_gain("128K", 1, "prefetch.excl") - 1.0) < 0.05

    def test_multithreaded_cache_resident_noprefetch_wins(self):
        assert _fig3_gain("128K", 2, "noprefetch") > 1.15   # paper 1.35x
        assert _fig3_gain("128K", 4, "noprefetch") > 1.3    # paper 1.52x

    def test_multithreaded_cache_resident_excl_wins_less(self):
        assert _fig3_gain("128K", 2, "prefetch.excl") > 1.05
        assert _fig3_gain("128K", 4, "prefetch.excl") > 1.05
        assert _fig3_gain("128K", 4, "noprefetch") > _fig3_gain("128K", 4, "prefetch.excl")
        assert _fig3_gain("512K", 4, "prefetch.excl") > 1.0  # paper ~7 %

    def test_streaming_needs_prefetch(self):
        assert _fig3_gain("2M", 1, "noprefetch") < 0.8
        assert _fig3_gain("2M", 4, "noprefetch") < 0.8
        assert _fig3_gain("2M", 4, "prefetch.excl") < 1.1   # excl lost its edge


def _avg(bars: dict[str, float]) -> float:
    return sum(bars.values()) / len(bars)


class TestFig5Shape:
    """noprefetch wins clearly somewhere, never loses on average, and
    beats prefetch.excl on average on both machines (§5.2.1)."""

    @pytest.mark.parametrize("machine, best", [("smp4", 1.10), ("altix8", 1.05)])
    def test_noprefetch_wins(self, machine, best):
        cells = figure_cells(DOC, "5", machine)
        assert _avg(cells["noprefetch"]) > 0.99
        assert max(cells["noprefetch"].values()) > best
        assert _avg(cells["noprefetch"]) > _avg(cells["excl"])


class TestFig6And7Shape:
    """noprefetch cuts L3 misses (substantially on some benchmark), and
    bus transactions track them per benchmark (§5.2.2, §5.2.3)."""

    @pytest.mark.parametrize("machine", ["smp4", "altix8"])
    def test_noprefetch_cuts_l3_misses(self, machine):
        l3 = figure_cells(DOC, "6", machine)["noprefetch"]
        assert _avg(l3) < 1.0 and min(l3.values()) < 0.85

    @pytest.mark.parametrize("machine", ["smp4", "altix8"])
    def test_bus_transactions_track_l3_misses(self, machine):
        l3, bus = (figure_cells(DOC, f, machine)["noprefetch"] for f in "67")
        assert _avg(bus) < 1.0
        for name in l3:
            assert abs(bus[name] - l3[name]) < 0.15, name
