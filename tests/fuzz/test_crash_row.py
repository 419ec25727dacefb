"""The crash row of the fuzz axis table: crash anywhere, recover everywhere.

``--stride N`` kills a named workload at every N-th durable write of its
straight-through checkpoint store, at the clean boundary and 7 bytes
torn, and resumes each crashed store twice.  A clean sweep must come
back clean; one seeded fault per invariant — prefix durability (B),
ledger accounting (C), resume determinism (D) and the warm-redeploy
gate — must be reported through the row, never escape as an exception.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count

import numpy as np
import pytest

from repro.compiler import StreamLoop, Term
from repro.fuzz import Case, DifferentialFuzzer, differ
from repro.persist.journal import JOURNAL_NAME, JournalWriter, MemoryDisk
from repro.runtime import ParallelProgram
from repro.scenario import MachineRecipe, WorkloadSpec, daxpy_spec, run_cell

SMP4 = MachineRecipe("smp", 4, 4)


def _daxpy(machine) -> ParallelProgram:
    prog = ParallelProgram(machine, "rec")
    prog.array("x", 2048, np.arange(2048, dtype=float))
    prog.array("y", 2048, 1.0)
    fn = prog.kernel(
        StreamLoop("daxpy", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0)))
    )
    prog.parallel_for(fn, 2048, 4)
    prog.build(outer_reps=14)
    return prog


SPEC = WorkloadSpec(name="daxpy-recovery", build=_daxpy)
SMALL = Case(daxpy_spec(512, 4, 5), "smp4", MachineRecipe("smp", 4, 16), (0,))


def _sweep(case: Case, stride: int):
    return DifferentialFuzzer(cases=[case], axes=["crash"], stride=stride).run()


def _crash_cells(report):
    return [
        (cell, dict(cell.facts)) for result in report.results for cell in result.cells
        if cell.label.startswith("crash/")
    ]


class TestCrashSweep:
    STRIDE = 40

    @pytest.fixture(scope="class")
    def report(self):
        return _sweep(Case(SPEC, "smp4", SMP4, (0,)), self.STRIDE)

    def test_sweep_is_clean(self, report):
        assert report.ok, report.summary()

    def test_every_crash_point_recovered(self, report):
        stores = defaultdict(MemoryDisk)
        ckpt = run_cell(SMP4, SPEC, "adaptive", differ._persisting("", 0, stores))
        n_ops = stores["ckpt"].durable_ops
        assert n_ops > 0
        cells = _crash_cells(report)
        assert [cell.label for cell, _facts in cells] == [
            f"crash/write={write}/{tear}"
            for write in range(1, n_ops + 1, self.STRIDE)
            for tear in ("boundary", "torn[7B]")
        ]
        assert all(cell.digest == ckpt.digest for cell, _facts in cells)

    def test_torn_cells_discard_and_boundary_cells_do_not(self, report):
        torn = [f for cell, f in _crash_cells(report) if "torn" in cell.label]
        clean = [f for cell, f in _crash_cells(report) if "boundary" in cell.label]
        assert torn and all(f["discarded"] >= 1 for f in torn)
        assert clean and all(f["discarded"] == 0 for f in clean)

    def test_sweep_exercised_warm_redeploys(self, report):
        assert sum(f["warm_deploys"] for _cell, f in _crash_cells(report)) > 0

    def test_summary_mentions_the_verdict(self, report):
        text = report.summary()
        assert "fuzz[daxpy-recovery on smp4]" in text and "0 divergence(s), OK" in text
        assert "crash/write=1/torn[7B]" in text

    def test_to_json_shape(self, report):
        facts = report.to_json()["scenarios"][0]["facts"]
        crash = {label: f for label, f in facts.items() if label.startswith("crash/")}
        assert len(crash) == len(_crash_cells(report))
        assert all(
            set(f) == {"replayed", "discarded", "warm_deploys"} for f in crash.values()
        )

    def test_without_stride_one_torn_cell_after_the_first_deploy(self):
        report = DifferentialFuzzer(cases=[SMALL], axes=["crash"]).run()
        assert report.ok, report.summary()
        [(cell, facts)] = _crash_cells(report)
        # write 5 of 18 commits the first txn record: the resume replays it
        assert cell.label == "crash/write=6/torn[7B]"
        assert facts == {"replayed": 5, "discarded": 1, "warm_deploys": 1}

    def test_without_a_deploy_the_midpoint_write(self):
        disk = MemoryDisk()
        journal = JournalWriter(disk)
        for _ in range(4):
            journal.append("window", {"state": {}})
        assert differ._crash_points({"ckpt": disk}, None) == (differ.CrashPoint(2, 7),)

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError, match="stride"):
            DifferentialFuzzer(cases=[SMALL], axes=["crash"], stride=0)


# -- seeded faults: each must surface through the row ---------------------------


def _divergent(report) -> set[str]:
    return {d.observable for d in report.divergences if d.axis.startswith("crash/")}


class TestSeededFaults:
    def test_clean_baseline(self):
        report = _sweep(SMALL, 8)
        assert report.ok, report.summary()

    def test_repair_that_rewrites_durable_history_is_caught(self, monkeypatch):
        from repro.persist import manager

        real = manager.repair

        def rewriting_repair(disk, recovered):
            real(disk, recovered)
            journal = disk.files.get(JOURNAL_NAME)
            if journal:
                journal[0] ^= 0x01   # first byte of the oldest durable record

        monkeypatch.setattr(manager, "repair", rewriting_repair)
        report = _sweep(SMALL, 8)
        assert "prefix" in _divergent(report)
        assert "exception" not in _divergent(report)

    def test_crash_that_rewrites_a_snapshot_is_caught(self, monkeypatch):
        real = MemoryDisk.kill

        def scribbling_kill(disk):
            for name, data in disk.files.items():
                if name != JOURNAL_NAME and not name.endswith(".tmp"):
                    data[-1] ^= 0x01
            real(disk)

        monkeypatch.setattr(MemoryDisk, "kill", scribbling_kill)
        report = _sweep(SMALL, 8)
        assert "prefix" in _divergent(report)
        assert "exception" not in _divergent(report)

    def test_discard_missing_from_the_ledger_is_caught(self, monkeypatch):
        from repro.faults.injector import FaultInjector

        real = FaultInjector.observe

        def forgetful(self, kind, surface, note=""):
            if kind != "torn_journal_record":
                return real(self, kind, surface, note)

        monkeypatch.setattr(FaultInjector, "observe", forgetful)
        report = _sweep(SMALL, 8)
        assert "ledger" in _divergent(report)
        assert "exception" not in _divergent(report)

    def test_call_order_dependent_recovery_is_caught(self, monkeypatch):
        from repro.persist import manager

        real, calls = manager.recover, count()

        def flaky(disk):
            found = real(disk)
            found.replayed += next(calls) % 2
            return found

        monkeypatch.setattr(manager, "recover", flaky)
        report = _sweep(SMALL, 8)
        assert "determinism" in _divergent(report)
        assert "exception" not in _divergent(report)

    def test_sweep_where_nothing_deploys_fails_the_gate(self, monkeypatch):
        from repro.core.opts import REWRITES

        for name in list(REWRITES):
            monkeypatch.setitem(REWRITES, name, lambda _program, _trace: None)
        report = _sweep(SMALL, 8)
        assert not report.divergences
        assert [f for f in report.failures if f.startswith("crash: no resume")]
