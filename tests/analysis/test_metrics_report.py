"""Metrics and report rendering."""

from repro.analysis import (
    Comparison,
    ExperimentSeries,
    PAPER_TABLE1,
    format_fig3_table,
    format_series_table,
    format_table1,
)
from repro.memory.events import MemEvents
from repro.runtime.team import RunResult


def _result(cycles, l3, bus):
    events = MemEvents()
    events.l3_misses = l3
    events.bus_memory = bus
    return RunResult(
        cycles=cycles, per_cpu_cycles=[cycles], retired=1000,
        events=events, per_cpu_events=[],
    )


def _comparison(name="bt", base=(1000, 100, 200), opt=(800, 70, 150)):
    return Comparison(name, _result(*base), _result(*opt))


class TestComparison:
    def test_ratios(self):
        c = _comparison()
        assert c.speedup == 1.25
        assert abs(c.normalized_l3 - 0.7) < 1e-12
        assert c.normalized_bus == 0.75

    def test_zero_division_guards(self):
        c = Comparison("z", _result(0, 0, 0), _result(0, 0, 0))
        assert c.speedup == 0.0
        assert c.normalized_l3 == 0.0 and c.normalized_bus == 0.0


class TestSeries:
    def test_aggregates(self):
        series = ExperimentSeries("t")
        series.add(_comparison("a", (1000, 100, 100), (500, 50, 50)))
        series.add(_comparison("b", (1000, 100, 100), (1000, 100, 100)))
        assert series.avg_speedup() == 1.5
        assert series.max_speedup() == 2.0
        assert series.avg_normalized_l3() == 0.75
        assert ExperimentSeries("empty").avg_speedup() == 0.0


class TestRendering:
    def test_series_table(self):
        series = {"noprefetch": ExperimentSeries("np")}
        series["noprefetch"].add(_comparison("bt"))
        text = format_series_table(series, "speedup", {"bt": "1.05", "avg": "1.05"})
        assert "bt" in text and "noprefetch" in text and "paper" in text
        assert "1.250" in text

    def test_table1(self):
        text = format_table1({"bt": (10, 2, 3, 0), "zz": (1, 1, 1, 1)})
        assert "bt" in text and "140" in text  # the paper's BT lfetch count
        assert "zz" in text
        assert set(PAPER_TABLE1) == {"bt", "sp", "lu", "ft", "mg", "cg", "ep", "is"}

    def test_fig3_table(self):
        results = {
            (ws, t, s): 100 * t
            for ws in ("128K",)
            for t in (1, 2)
            for s in ("prefetch", "noprefetch")
        }
        text = format_fig3_table(results, ["128K"], [1, 2], ["prefetch", "noprefetch"])
        assert "128K" in text and "2.000" in text  # 2-thread bar normalized

    def test_series_table_without_paper_row(self):
        series = {"excl": ExperimentSeries("excl")}
        series["excl"].add(_comparison("cg"))
        text = format_series_table(series, "normalized_bus", paper_row=None)
        assert "cg" in text and "excl" in text
        assert "paper" not in text
        assert "0.750" in text  # 150/200 normalized bus transactions

    def test_series_table_fills_missing_paper_cells(self):
        series = {"np": ExperimentSeries("np")}
        series["np"].add(_comparison("zz"))  # not a paper benchmark
        text = format_series_table(series, "speedup", {"avg": "1.10"})
        row = [ln for ln in text.splitlines() if ln.startswith("paper")][0]
        assert "-" in row and "1.10" in row

    def test_fig3_table_multiple_working_sets(self):
        results = {
            (ws, t, s): base * t
            for ws, base in (("128K", 100), ("2M", 400))
            for t in (1, 2, 4)
            for s in ("prefetch", "noprefetch")
        }
        text = format_fig3_table(
            results, ["128K", "2M"], [1, 2, 4], ["prefetch", "noprefetch"]
        )
        assert "working set 128K" in text and "working set 2M" in text
        assert "4.000" in text  # 4-thread bar, both sets normalize per-set


class TestCobraReportSummary:
    def test_summary_includes_rollbacks_and_validation(self):
        from repro.core import CobraReport
        from repro.core.optimizer import OptEvent
        from repro.errors import InvariantViolation

        report = CobraReport(
            strategy="adaptive",
            samples=12,
            deployments=[],
            events=[
                OptEvent(retired=100, kind="deploy", loop_head=0x40, optimization="noprefetch", reason=""),
                OptEvent(retired=200, kind="rollback", loop_head=0x40, optimization="noprefetch", reason="regressed"),
            ],
            validate_checks=512,
            violations=[InvariantViolation("x", invariant="owner-alone")],
        )
        text = report.summary()
        assert "strategy=adaptive" in text and "12 samples" in text
        assert "1 rollback(s)" in text
        assert "validated 512 accesses" in text
        assert "1 invariant violation(s)" in text

    def test_summary_omits_validation_when_disabled(self):
        from repro.core import CobraReport

        text = CobraReport("none", 0, [], []).summary()
        assert "validated" not in text
