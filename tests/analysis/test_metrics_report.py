"""Figure rendering from fidelity-matrix case dicts, and report text."""

from repro.analysis import (
    PAPER_TABLE1,
    figure_cells,
    format_fig3,
    format_figure,
    format_table1,
)


def _case(benchmark, strategy, cycles, l3, bus, machine="smp4"):
    """The fields of a BENCH_perf.json case the figures read."""
    return {
        "id": f"{machine}/{benchmark}/{strategy}", "benchmark": benchmark,
        "machine": machine, "strategy": strategy, "sim_cycles": cycles,
        "events": {"l3_misses": l3, "bus_memory": bus},
    }


def _doc(*bars):
    """``(benchmark, base, optimized)`` bars; both strategies run ``optimized``."""
    return {"cases": [
        _case(name, strategy, *counts)
        for name, base, opt in bars
        for strategy, counts in (("none", base), ("noprefetch", opt), ("excl", opt))
    ]}


def _bt(base=(1000, 100, 200), opt=(800, 70, 150)):
    return _doc(("bt", base, opt))


def _fig3_doc(base_by_ws, threads, strategies):
    """Fig. 3 cases whose steady cycles are ``base * threads``."""
    return {"cases": [
        {"benchmark": f"daxpy-{ws}", "threads": t, "strategy": s, "steady_cycles": base * t}
        for ws, base in base_by_ws for t in threads for s in strategies
    ]}


class TestComparison:
    def test_ratios(self):
        doc = _bt()
        assert figure_cells(doc, "5", "smp4")["noprefetch"] == {"bt": 1.25}
        assert abs(figure_cells(doc, "6", "smp4")["excl"]["bt"] - 0.7) < 1e-12
        assert figure_cells(doc, "7", "smp4")["noprefetch"]["bt"] == 0.75

    def test_zero_division_guards(self):
        doc = _bt((0, 0, 0), (0, 0, 0))
        assert {figure_cells(doc, f, "smp4")["noprefetch"]["bt"] for f in "567"} == {0.0}


class TestSeries:
    def test_aggregates(self):
        doc = _doc(("bt", (1000, 100, 100), (500, 50, 50)),
                   ("sp", (1000, 100, 100), (1000, 100, 100)))
        assert figure_cells(doc, "5", "smp4")["noprefetch"] == {"bt": 2.0, "sp": 1.0}
        speedup = format_figure(doc, "5").splitlines()
        assert speedup[3].split()[-1] == "1.500"           # (a): the avg bar
        assert format_figure(doc, "6").splitlines()[3].endswith("0.750")
        panel_b = speedup[speedup.index("") + 1:]          # no altix8 case
        assert panel_b[3] == "noprefetch  0.000"


class TestRendering:
    def test_series_table(self):
        text = format_figure(_bt(), "5")
        assert "bt" in text and "noprefetch" in text and "paper" in text
        assert "1.250" in text

    def test_table1(self):
        text = format_table1({"bt": (10, 2, 3, 0), "zz": (1, 1, 1, 1)})
        assert "bt" in text and "140" in text  # the paper's BT lfetch count
        assert "zz" in text
        assert set(PAPER_TABLE1) == {"bt", "sp", "lu", "ft", "mg", "cg", "ep", "is"}

    def test_fig3_table(self):
        text = format_fig3(_fig3_doc([("128K", 100)], (1, 2), ("none", "noprefetch")))
        assert "128K" in text and "2.000" in text  # 2-thread bar normalized
        assert text.splitlines()[2].split() == ["threads", "prefetch", "noprefetch"]

    def test_series_table_without_paper_row(self):
        text = format_figure(_doc(("cg", (1000, 100, 200), (800, 70, 150))), "7")
        assert "cg" in text and "excl" in text
        assert "paper" not in text
        assert "0.750" in text  # 150/200 normalized bus transactions

    def test_series_table_fills_missing_paper_cells(self):
        text = format_figure(_bt(), "5")
        row = [ln for ln in text.splitlines() if ln.startswith("paper")][0]
        assert row.split()[1] == "-" and row.endswith("1.047 (np) / 1.027 (excl)")

    def test_fig3_table_multiple_working_sets(self):
        text = format_fig3(
            _fig3_doc([("128K", 100), ("2M", 400)], (1, 2, 4), ("none", "noprefetch"))
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
