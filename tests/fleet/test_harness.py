"""End-to-end fleet runs at library level: digest equality with solo
execution, decision sharing across instances, fault accounting, and
parallel determinism.  The fuzz ``fleet-faulted`` row drives the same
harness over every case (tests/fuzz/test_fleet_row.py)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import FleetError
from repro.fleet import FleetHarness
from repro.fleet.faults import HOSTILE

FAULTS = replace(HOSTILE, seed=7)


@pytest.fixture(scope="module")
def clean_report():
    return FleetHarness(instances=6).run()


@pytest.fixture(scope="module")
def faulted_report():
    return FleetHarness(instances=6, faults=FAULTS).run()


class TestCleanFleet:
    def test_ok_and_no_failures(self, clean_report):
        assert clean_report.ok
        assert not clean_report.failures

    def test_all_digests_match_solo_reference(self, clean_report):
        assert clean_report.reference_digest
        for record in clean_report.records:
            assert record.digest == clean_report.reference_digest
            assert record.verified

    def test_decision_proven_on_one_instance_reused_by_another(
        self, clean_report
    ):
        assert clean_report.published >= 1
        cold = [r for r in clean_report.records if r.round == "cold"]
        warm = [r for r in clean_report.records if r.round == "warm"]
        assert any(r.deployed for r in cold)
        seeded = [r for r in warm if r.seeded]
        assert seeded
        # the warm instance skips the ramp the cold instances paid
        for record in seeded:
            assert record.ramp_retired == 0
        assert all(r.ramp_retired > 0 for r in cold if r.deployed)

    def test_daemon_saw_every_instance(self, clean_report):
        assert len({r.instance for r in clean_report.records}) == 6
        assert clean_report.daemon["crc_rejects"] == 0
        assert not clean_report.daemon["quarantined"]

    def test_clean_run_has_no_fault_ledger(self, clean_report):
        assert clean_report.ledger is None


class TestFaultedFleet:
    def test_ok_under_fault_schedule(self, faulted_report):
        assert faulted_report.ok, faulted_report.failures

    def test_digests_still_bit_identical(self, faulted_report):
        for record in faulted_report.records:
            assert record.digest == faulted_report.reference_digest

    def test_every_fault_detected_or_tolerated(self, faulted_report):
        ledger = faulted_report.ledger
        assert ledger.injected > 0
        assert ledger.accounted
        assert all(e.status in ("detected", "tolerated")
                   for e in ledger.events)

    def test_daemon_crash_recovered(self, faulted_report):
        recovered = faulted_report.daemon["recovered"]
        assert recovered is not None
        assert recovered["crash_batch"] == FAULTS.daemon_crash_batch
        assert "daemon_crash" in faulted_report.ledger.by_kind

    def test_crash_fires_on_time_when_every_instance_rejoins(self):
        """A partitioned instance's frames reach the daemon only at
        rejoin; the crash trigger must fire on that pass too."""
        report = FleetHarness(
            instances=4, faults=replace(FAULTS, partition_rate=1.0)
        ).run()
        assert all(r.degraded for r in report.records)
        assert report.ok, report.failures
        assert report.daemon["recovered"]["crash_batch"] == FAULTS.daemon_crash_batch


class TestParallelDeterminism:
    def test_reports_byte_identical_at_any_job_count(self):
        seq = FleetHarness(instances=4, faults=FAULTS).run(jobs=1)
        par = FleetHarness(instances=4, faults=FAULTS).run(jobs=2)
        assert seq == par
        assert seq.ledger.events and seq.daemon["recovered"] is not None


class TestValidation:
    def test_instances_floor(self):
        with pytest.raises(FleetError, match="instances"):
            FleetHarness(instances=0)

    def test_quorum_bounds(self):
        with pytest.raises(FleetError, match="quorum"):
            FleetHarness(instances=4, quorum=0)
        with pytest.raises(FleetError, match="quorum"):
            FleetHarness(instances=4, quorum=5)
