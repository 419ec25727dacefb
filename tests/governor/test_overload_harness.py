"""The overload sweep, the fuzz table's ``overloaded`` row: schedules
inject, invariants hold, and the report is byte-identical at any worker
count."""

from __future__ import annotations

import pytest

from repro.config import GovernorConfig
from repro.fuzz import Case, DifferentialFuzzer, differ, named_cases
from repro.governor import OVERLOAD_SCHEDULES
from repro.scenario import MachineRecipe, daxpy_spec, npb_spec

GOVERNED = ("evicted", "shed", "refused")


def _cells(report):
    return [
        (result, cell) for result in report.results for cell in result.cells
        if cell.label.startswith("overloaded/")
    ]


@pytest.fixture(scope="module")
def sweep():
    fuzzer = DifferentialFuzzer(
        cases=[Case(
            daxpy_spec(n_threads=2, reps=6), "smp4", MachineRecipe("smp", 4, 16), (0, 1)
        )],
        axes=["overloaded"],
    )
    return fuzzer, fuzzer.run(jobs=1)


class TestOverloadSweep:
    def test_sweep_passes_and_actually_injects(self, sweep):
        _fuzzer, report = sweep
        assert report.ok, report.summary()
        cells = _cells(report)
        assert sum(dict(cell.facts)["injected"] for _r, cell in cells) > 0
        assert len(cells) == len(OVERLOAD_SCHEDULES) * 2   # x 2 seeds

    def test_digests_bit_identical_to_clean_run(self, sweep):
        _fuzzer, report = sweep
        for result, cell in _cells(report):
            assert cell.digest == dict(result.digests)["none"]

    def test_every_record_carries_an_accounted_ledger(self, sweep):
        # the row requires an accounted ledger of every cell, and its
        # ladder check fails a cell that injected without one
        _fuzzer, report = sweep
        row = next(a for a in differ.AXES if a.name == "overloaded")
        assert row.ledger and differ._ladder in row.checks
        assert report.ok and not report.divergences

    def test_report_byte_identical_at_any_jobs(self, sweep):
        fuzzer, report = sweep
        assert fuzzer.run(jobs=2).summary() == report.summary()


class TestTheGateReachesTheGovernor:
    """The CI sweep (``repro fuzz --workloads daxpy cg --seeds 1 --axes
    overloaded``) must make the governor act, not only inject."""

    @staticmethod
    def _reports():
        return [
            DifferentialFuzzer(
                cases=named_cases([spec], (0,), scale=16), axes=["overloaded"]
            ).run()
            for spec in (daxpy_spec(512, 4, 4), npb_spec("cg", 4, 4))
        ]

    def test_the_ci_matrix_evicts_sheds_and_refuses(self):
        reports = self._reports()
        assert all(report.ok for report in reports)
        for counter in GOVERNED:
            assert any(
                dict(cell.facts)[counter] for rep in reports for _r, cell in _cells(rep)
            ), counter

    def test_a_sweep_whose_budgets_never_bind_fails(self, monkeypatch):
        # the budgets the row used before they were sized to the runs
        monkeypatch.setattr(
            differ, "GOVERNOR", GovernorConfig(sample_queue_depth=16, budget_floor=48)
        )
        for report in self._reports():
            assert not report.ok
            assert any("evicted, shed and refused nothing" in f for f in report.failures)
