"""The fleet row of the fuzz axis table: four instances, quorum two, one
optimization daemon, the hostile transport schedule.

A clean sweep must come back clean, with the facts each cell reports;
one seeded fault per fleet invariant — idempotent reconcile, recovery
equal to a never-crashed shadow, CRC accounting, sanitizer quarantine,
warm re-deployment of the published entry — and the row gate must be
reported through the row, never escape as an exception.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fleet import FleetDaemon, SeenSet
from repro.fuzz import DifferentialFuzzer, generate_params
from repro.fuzz.differ import generated_case

#: generated seed 11 draws every fault kind (a poisoned stream, a
#: corrupted frame, the daemon crash); seed 12 publishes a decision
#: that both warm instances re-deploy
SEEDS = (11, 12)

FACTS = {
    "published", "redeployed", "degraded", "quarantined", "injected",
    "detected", "tolerated", "crash_batch", "replayed",
}


def _named(seed: int):
    """A generated seed's case as a named workload: the row gate applies."""
    return replace(generated_case(generate_params(seed)), params=None)


def _sweep(cases=None):
    if cases is None:
        return DifferentialFuzzer(seeds=SEEDS, axes=["fleet-faulted"]).run()
    return DifferentialFuzzer(cases=cases, axes=["fleet-faulted"]).run()


def _fleet_cells(report) -> dict[str, dict]:
    return {
        str(result.params.seed if result.params else result.workload): dict(cell.facts)
        for result in report.results for cell in result.cells
        if cell.label.startswith("fleet-faulted/")
    }


def _failures(report) -> list[str]:
    """The fleet invariants a sweep reported broken; never an exception."""
    assert "exception" not in {d.observable for d in report.divergences}
    return [d.actual for d in report.divergences if d.axis.startswith("fleet-faulted/")]


class TestFleetRow:
    @pytest.fixture(scope="class")
    def report(self):
        return _sweep()

    def test_sweep_is_clean(self, report):
        assert report.ok, report.summary()

    def test_cells_report_the_fleet_facts(self, report):
        cells = _fleet_cells(report)
        assert set(cells) == {"11", "12"}
        assert all(set(facts) == FACTS for facts in cells.values())
        hostile, publishing = cells["11"], cells["12"]
        assert hostile["quarantined"] >= 1 and hostile["degraded"] >= 1
        assert hostile["injected"] == hostile["detected"] + hostile["tolerated"]
        assert publishing["published"] >= 1 and publishing["redeployed"] == 2
        for facts in cells.values():
            assert facts["crash_batch"] >= 5 and facts["replayed"] > 0

    def test_gate_holds_where_a_named_fleet_publishes(self):
        report = _sweep([_named(12)])
        assert report.ok, report.summary()

    def test_gate_waits_for_named_workloads(self):
        report = _sweep([generated_case(generate_params(0))])
        assert _fleet_cells(report)["0"]["published"] == 0
        assert report.ok, report.summary()


# -- seeded faults: each must surface through the row ---------------------------


class TestSeededFaults:
    def test_reconcile_that_is_not_idempotent_is_caught(self, monkeypatch):
        # dedup forgets every sequence number: a replayed profile frame
        # merges into the store a second time
        monkeypatch.setattr(SeenSet, "__contains__", lambda _self, _seq: False)
        failures = _failures(_sweep())
        assert any("reconcile replay is not idempotent" in f for f in failures)

    def test_recovery_that_diverges_from_the_shadow_is_caught(self, monkeypatch):
        # recovery forgets the quarantines journaled before the crash:
        # a poisoned stream regains its voice, and no retransmit heals it
        real = FleetDaemon._replay

        def forgetful(daemon, record):
            if record.get("t") != "fleet-quarantine":
                real(daemon, record)

        monkeypatch.setattr(FleetDaemon, "_replay", forgetful)
        failures = _failures(_sweep())
        assert any("diverges from the never-crashed shadow" in f for f in failures)

    def test_uncounted_crc_reject_is_caught(self, monkeypatch):
        real = FleetDaemon.handle

        def uncounted(daemon, data):
            before = daemon.crc_rejects
            reply = real(daemon, data)
            if reply.get("reason") == "crc":
                daemon.crc_rejects = before
            return reply

        monkeypatch.setattr(FleetDaemon, "handle", uncounted)
        failures = _failures(_sweep())
        assert any(f.startswith("CRC accounting") for f in failures)

    def test_poisoned_stream_left_unquarantined_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            FleetDaemon, "_quarantine",
            lambda _daemon, _instance, reason: {"k": "ack", "status": "ok"},
        )
        failures = _failures(_sweep())
        assert any("poisoned stream was not quarantined" in f for f in failures)

    def test_warm_instance_ignoring_the_published_entry_is_caught(self, monkeypatch):
        from repro.core.framework import Cobra

        real = Cobra._seed

        def deaf(cobra, entry, source):
            return 0 if source == "fleet" else real(cobra, entry, source)

        monkeypatch.setattr(Cobra, "_seed", deaf)
        failures = _failures(_sweep())
        assert any("warm instance failed to re-deploy" in f for f in failures)

    def test_fleet_that_publishes_nothing_fails_the_gate(self, monkeypatch):
        from repro.core.opts import REWRITES

        for name in list(REWRITES):
            monkeypatch.setitem(REWRITES, name, lambda _program, _trace: None)
        report = _sweep([_named(12)])
        assert not report.divergences
        assert [f for f in report.failures if f.startswith("fleet-faulted: no fleet")]
