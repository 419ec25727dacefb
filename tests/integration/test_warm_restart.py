"""Warm restart: checkpointed runs resume, re-deploy, and stay correct.

End-to-end over the coherence-dominated DAXPY recipe from the
re-adaptation tests (small machine so the deployment threshold is
actually crossed):

* a cold run journals windows, transactions and decisions, and
  snapshots them;
* a warm restart from that store re-deploys the proven optimization
  *before the first instruction runs* (no cold profiling ramp) and
  produces bit-identical outputs;
* a crash mid-run recovers on the same disk with the ledger accounting
  every discarded artifact;
* with persistence off, nothing about the run changes (the fault-free
  digest is the contract PR 3 already pinned).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import StreamLoop, Term
from repro.config import FaultConfig, PersistConfig, itanium2_smp
from repro.core import Cobra, Deployment, run_with_cobra
from repro.core.optimizer import WARM_RESTART
from repro.cpu import Machine
from repro.errors import SimulatedCrash
from repro.persist import JOURNAL_NAME, MemoryDisk, recover, scan_journal
from repro.runtime import ParallelProgram
from repro.scenario import _digest, _snapshot_arrays

N = 2048
REPS = 14
THREADS = 4


def _build(machine: Machine) -> ParallelProgram:
    prog = ParallelProgram(machine, "warm")
    prog.array("x", N, np.arange(N, dtype=float))
    prog.array("y", N, 1.0)
    fn = prog.kernel(
        StreamLoop("daxpy", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0)))
    )
    prog.parallel_for(fn, N, THREADS)
    prog.build(outer_reps=REPS)
    return prog


def _run(disk=None, crash_write=None, torn=None):
    machine = Machine(itanium2_smp(THREADS, scale=4))
    prog = _build(machine)
    config = dataclasses.replace(machine.config.cobra, optimize_interval=30_000)
    if disk is not None:
        faults = FaultConfig(
            seed=0, sample_rate=0.0, patch_rate=0.0, loop_rate=0.0,
            crash_write=crash_write, crash_torn_bytes=torn,
        )
        config = dataclasses.replace(
            config, persist=PersistConfig(disk=disk), faults=faults
        )
    result, report = run_with_cobra(prog, "noprefetch", config=config)
    return prog, result, report


def _warm_deploys(report):
    return [
        e for e in report.events
        if e.kind == "deploy" and e.reason.startswith("warm restart")
    ]


class TestWarmRestart:
    @pytest.fixture(scope="class")
    def cold_and_warm(self):
        disk = MemoryDisk()
        cold = _run(disk)
        warm = _run(disk)
        return disk, cold, warm

    def test_cold_run_journals_and_deploys(self, cold_and_warm):
        disk, (prog, _result, report), _ = cold_and_warm
        assert any(d.active for d in report.deployments)
        assert report.persist.records_written > 0
        assert report.persist.snapshots_written > 0
        records, _len, discarded = scan_journal(disk.read(JOURNAL_NAME))
        assert discarded == []
        kinds = {r["t"] for r in records}
        assert {"window", "txn", "decision"} <= kinds

    def test_outputs_bit_identical_across_restart(self, cold_and_warm):
        _, (prog_cold, _, _), (prog_warm, _, _) = cold_and_warm
        assert _digest(_snapshot_arrays(prog_warm)) == _digest(
            _snapshot_arrays(prog_cold)
        )

    def test_warm_run_redeploys_before_any_execution(self, cold_and_warm):
        _, _, (_prog, _result, report) = cold_and_warm
        assert report.resumed
        warm = _warm_deploys(report)
        assert len(warm) == 1
        # retired == 0: the trace went live before the first instruction
        assert warm[0].retired == 0
        assert any(d.active for d in report.deployments)

    def test_warm_restart_skips_the_profiling_ramp(self, cold_and_warm):
        _, (_, _, cold_report), (_, _, warm_report) = cold_and_warm
        cold_first = min(
            e.retired for e in cold_report.events if e.kind == "deploy"
        )
        warm_first = min(
            e.retired for e in _warm_deploys(warm_report)
        )
        # the cold run profiled for tens of thousands of retired
        # instructions before deploying; the warm one did not
        assert cold_first > 0
        assert warm_first == 0

    def test_lifetime_sample_accounting_accumulates(self, cold_and_warm):
        _, (_, _, cold_report), (_, _, warm_report) = cold_and_warm
        assert warm_report.samples > cold_report.samples

    def test_report_carries_warm_restart_lines(self, cold_and_warm):
        _, _, (_prog, _result, report) = cold_and_warm
        text = report.summary()
        assert "warm restart: resumed from checkpoint" in text
        assert "persistence:" in text


class TestOneRecordAtEveryKeeper:
    """``Deployment.RECORD`` is the one spelling of "what was deployed":
    the live deployment, the journal's txn records, the recovered state
    and a fresh runtime's warm redeploys must all hold the same set."""

    @pytest.mark.parametrize("strategy", ["noprefetch", "excl"])
    def test_the_record_round_trips(self, strategy):
        def records(rows):
            return sorted(tuple(row[name] for name in Deployment.RECORD.fields) for row in rows)

        disk = MemoryDisk()
        machine = Machine(itanium2_smp(THREADS, scale=4))
        prog = _build(machine)
        config = dataclasses.replace(
            machine.config.cobra, optimize_interval=30_000,
            persist=PersistConfig(disk=disk),
        )
        _result, report = run_with_cobra(prog, strategy, config=config)
        live = records(d.record() for d in report.deployments)
        assert live and all(len(row) == len(Deployment.RECORD.fields) for row in live)

        journaled = {}
        for rec in scan_journal(disk.read(JOURNAL_NAME))[0]:
            if rec["t"] == "txn" and rec["op"] == "deploy":
                journaled[rec["head"]] = rec
            elif rec["t"] == "txn":
                journaled.pop(rec["head"], None)
        assert records(journaled.values()) == live
        assert records(recover(disk).state["deployments"]) == live

        fresh = Machine(itanium2_smp(THREADS, scale=4))
        cobra = Cobra(fresh, _build(fresh).image, strategy, config)
        assert cobra.resumed
        assert records(d.record() for d in cobra.optimizer.deployments()) == live
        # the producer's text and the consumer's predicate cannot drift
        warm = [e for e in cobra.optimizer.events if e.is_warm_redeploy()]
        assert len(warm) == len(live)
        assert all(e.reason.startswith(WARM_RESTART) and e.retired == 0 for e in warm)


class TestCrashRecovery:
    def test_crash_then_resume_is_equivalent(self):
        ref_disk = MemoryDisk()
        prog_ref, _, _ = _run(ref_disk)
        ref_digest = _digest(_snapshot_arrays(prog_ref))
        crash_at = max(2, ref_disk.durable_ops // 2)

        disk = MemoryDisk()
        with pytest.raises(SimulatedCrash):
            _run(disk, crash_write=crash_at, torn=7)
        assert disk.dead

        prog, _result, report = _run(disk)
        assert _digest(_snapshot_arrays(prog)) == ref_digest
        assert report.resumed
        stats = report.persist
        # the torn 7-byte tail was discarded, repaired, and accounted
        assert stats.records_discarded == 1
        assert stats.journal_repaired_bytes > 0
        assert report.faults.accounted
        persist_events = [
            e for e in report.faults.events if e.surface == "persist"
        ]
        assert len(persist_events) == 1
        assert persist_events[0].kind == "torn_journal_record"

    def test_boundary_crash_discards_nothing(self):
        disk = MemoryDisk()
        with pytest.raises(SimulatedCrash):
            _run(disk, crash_write=3, torn=None)
        _prog, _result, report = _run(disk)
        stats = report.persist
        assert stats.records_discarded == 0
        assert stats.snapshots_discarded == 0
        assert not [e for e in report.faults.events if e.surface == "persist"]

    def test_clean_resume_replays_zero_records(self):
        # stop() writes a final window + snapshot, so a completed run's
        # store recovers entirely from the snapshot
        disk = MemoryDisk()
        _run(disk)
        _prog, _result, report = _run(disk)
        assert report.resumed
        assert report.persist.records_replayed == 0


class TestPersistenceOff:
    def test_digest_matches_the_no_persistence_run(self):
        prog_off, result_off, report_off = _run(disk=None)
        prog_on, result_on, _ = _run(disk=MemoryDisk())
        assert report_off.persist is None
        assert _digest(_snapshot_arrays(prog_on)) == _digest(
            _snapshot_arrays(prog_off)
        )
        assert result_on.cycles == result_off.cycles
