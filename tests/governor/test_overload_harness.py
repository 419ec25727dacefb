"""OverloadHarness integration: schedules inject, invariants hold, and
the report is byte-identical at any worker count."""

from __future__ import annotations

import pytest

from repro.config import GovernorConfig
from repro.governor import OVERLOAD_SCHEDULES, OverloadHarness
from repro.governor.harness import GOVERNED
from repro.scenario import npb_spec
from repro.validate.differential import daxpy_spec, default_machines


@pytest.fixture(scope="module")
def sweep():
    machines = {
        name: factory
        for name, factory in default_machines(2).items()
        if name.startswith("smp")
    }
    harness = OverloadHarness(
        daxpy_spec(n_threads=2, reps=6),
        machines=machines,
        schedules={
            "shrink": OVERLOAD_SCHEDULES["shrink"],
            "everything": OVERLOAD_SCHEDULES["everything"],
        },
        seeds=(0, 1),
    )
    return harness, harness.run(jobs=1)


class TestOverloadSweep:
    def test_sweep_passes_and_actually_injects(self, sweep):
        _harness, report = sweep
        assert report.ok, report.summary()
        assert report.total_injected() > 0
        assert len(report.records) == 4   # 1 machine x 2 schedules x 2 seeds

    def test_digests_bit_identical_to_clean_run(self, sweep):
        _harness, report = sweep
        for record in report.records:
            assert record.digest == report.baseline_digests[record.machine]

    def test_every_record_carries_an_accounted_ledger(self, sweep):
        _harness, report = sweep
        for record in report.records:
            if record.governor.get("injected", 0):
                assert record.ledger is not None
                assert record.ledger.accounted

    def test_report_byte_identical_at_any_jobs(self, sweep):
        harness, report = sweep
        assert harness.run(jobs=2).summary() == report.summary()


class TestTheGateReachesTheGovernor:
    """The CI sweep (``repro overload --workloads daxpy cg --runs 1``)
    must make the governor act, not only inject."""

    @staticmethod
    def _reports(**harness):
        return [
            OverloadHarness(spec, default_machines(4), **harness).run()
            for spec in (daxpy_spec(512, 4, 4), npb_spec("cg", 4, 4))
        ]

    def test_the_ci_matrix_evicts_sheds_and_refuses(self):
        reports = self._reports()
        assert all(report.ok for report in reports)
        for counter in GOVERNED:
            assert any(r.governor[counter] for rep in reports for r in rep.records), counter

    def test_a_sweep_whose_budgets_never_bind_fails(self):
        # the budgets the harness used before they were sized to the runs
        loose = GovernorConfig(sample_queue_depth=16, budget_floor=48)
        for report in self._reports(governor=loose):
            assert not report.ok
            assert any("evicted, shed and refused nothing" in f for f in report.failures)
