"""Cross-run profile database: warm starts, determinism, damage cells.

End-to-end over the coherence-dominated DAXPY recipe the warm-restart
tests use:

* a cold run records its miss profile and proven decisions into the
  database;
* a second run of the same binary on the same machine config seeds
  from it — proven optimizations re-deploy *before the first
  instruction* (``ramp_retired == 0``) and outputs stay bit-identical;
* a different strategy, machine config, or binary never hits a foreign
  entry;
* with the database absent, freshly created, or corrupted, the run is
  bit-identical to a run with no database at all.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import StreamLoop, Term
from repro.config import ProfileDBConfig, itanium2_smp
from repro.core import run_with_cobra
from repro.cpu import Machine
from repro.persist import PROFILEDB_NAME, MemoryDisk
from repro.runtime import ParallelProgram
from repro.scenario import _digest, _snapshot_arrays

N = 2048
REPS = 14
THREADS = 4


def _build(machine: Machine) -> ParallelProgram:
    prog = ParallelProgram(machine, "dbwarm")
    prog.array("x", N, np.arange(N, dtype=float))
    prog.array("y", N, 1.0)
    fn = prog.kernel(
        StreamLoop("daxpy", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0)))
    )
    prog.parallel_for(fn, N, THREADS)
    prog.build(outer_reps=REPS)
    return prog


def _run(disk=None, strategy="noprefetch", scale=4):
    machine = Machine(itanium2_smp(THREADS, scale=scale))
    prog = _build(machine)
    config = dataclasses.replace(machine.config.cobra, optimize_interval=30_000)
    if disk is not None:
        config = dataclasses.replace(
            config, profile_db=ProfileDBConfig(disk=disk)
        )
    result, report = run_with_cobra(prog, strategy, config=config)
    return prog, result, report


def _seeded_deploys(report):
    return [
        e for e in report.events
        if e.kind == "deploy" and e.reason.startswith("profile-db")
    ]


class TestWarmStart:
    @pytest.fixture(scope="class")
    def cold_and_warm(self):
        disk = MemoryDisk()
        cold = _run(disk)
        warm = _run(disk)
        return disk, cold, warm

    def test_cold_run_records_an_entry(self, cold_and_warm):
        disk, (_prog, _result, report), _ = cold_and_warm
        db = report.profile_db
        assert db["source"] == "miss"
        assert db["runs_recorded"] == 1
        assert db["saved"]
        assert disk.exists(PROFILEDB_NAME)

    def test_warm_run_seeds_before_any_execution(self, cold_and_warm):
        _, _, (_prog, _result, report) = cold_and_warm
        assert report.profile_db["source"] == "hit"
        assert report.profile_db["seeded_loops"] >= 1
        assert report.ramp_retired == 0
        seeded = _seeded_deploys(report)
        assert seeded and all(e.retired == 0 for e in seeded)

    def test_outputs_bit_identical_across_runs(self, cold_and_warm):
        _, (prog_cold, _, _), (prog_warm, _, _) = cold_and_warm
        assert _digest(_snapshot_arrays(prog_warm)) == _digest(
            _snapshot_arrays(prog_cold)
        )

    def test_warm_run_skips_most_of_the_profiling_ramp(self, cold_and_warm):
        _, (_, _, cold_report), (_, _, warm_report) = cold_and_warm
        cold_ramp = cold_report.ramp_retired
        assert cold_ramp and cold_ramp > 0
        # the acceptance bar: >= 90% less profiling time on the warm run
        assert warm_report.ramp_retired <= cold_ramp * 0.1

    def test_trace_tree_shapes_persist_and_seed_warm_jit(self, cold_and_warm):
        disk, _cold, (_prog, _result, warm_report) = cold_and_warm
        from repro.persist import ProfileDB

        db = ProfileDB(disk)
        db.load()
        (entry,) = db.entries.values()
        shapes = entry.get("jit_trees")
        # the cold run's hot loops left resident compiled traces whose
        # shapes were persisted with the entry...
        assert shapes
        assert all(
            len(s) == 4 and s[2] in ("loop", "linear") for s in shapes
        )
        assert shapes == sorted(shapes)
        # ...and the warm run recompiled them before the first
        # instruction, so compiled dispatch is live at retired 0
        assert any(
            e.kind == "deploy" and "trace-tree node" in e.reason
            for e in warm_report.events
        )

    def test_database_accumulates_runs(self, cold_and_warm):
        disk, _, _ = cold_and_warm
        _prog, _result, report = _run(disk)
        from repro.persist import ProfileDB

        db = ProfileDB(disk)
        db.load()
        (entry,) = db.entries.values()
        assert entry["runs"] == 3

    def test_report_carries_the_profile_db_line(self, cold_and_warm):
        _, _, (_prog, _result, report) = cold_and_warm
        text = report.summary()
        assert "profile-db: hit" in text
        assert "warm at 0 retired" in text
        assert "versions [" in text


class TestKeyIsolation:
    def test_different_strategy_misses(self):
        disk = MemoryDisk()
        _run(disk, strategy="noprefetch")
        _prog, _result, report = _run(disk, strategy="excl")
        assert report.profile_db["source"] == "miss"
        assert report.profile_db["entries"] == 2  # both recorded

    def test_different_machine_config_misses(self):
        disk = MemoryDisk()
        _run(disk, scale=4)
        _prog, _result, report = _run(disk, scale=8)
        assert report.profile_db["source"] == "miss"


class TestDeterminism:
    def test_cold_database_run_matches_no_database_run(self):
        prog_off, result_off, report_off = _run(disk=None)
        prog_on, result_on, report_on = _run(disk=MemoryDisk())
        assert report_off.profile_db is None
        assert _digest(_snapshot_arrays(prog_on)) == _digest(
            _snapshot_arrays(prog_off)
        )
        assert result_on.cycles == result_off.cycles
        assert result_on.retired == result_off.retired

    def test_corrupt_database_run_matches_no_database_run(self):
        disk = MemoryDisk()
        _run(disk)  # produce a real database, then damage it
        blob = disk.files[PROFILEDB_NAME]
        blob[len(blob) // 2] ^= 0xFF
        prog_off, result_off, _ = _run(disk=None)
        prog_bad, result_bad, report_bad = _run(disk=disk)
        assert report_bad.profile_db["source"] == "corrupt"
        assert report_bad.profile_db["seeded_loops"] == 0
        assert _digest(_snapshot_arrays(prog_bad)) == _digest(
            _snapshot_arrays(prog_off)
        )
        assert result_bad.cycles == result_off.cycles

    def test_corrupt_database_is_rewritten_clean(self):
        disk = MemoryDisk()
        _run(disk)
        blob = disk.files[PROFILEDB_NAME]
        blob[len(blob) // 2] ^= 0xFF
        _run(disk)  # loads empty, records, saves
        _prog, _result, report = _run(disk)
        assert report.profile_db["source"] == "hit"
