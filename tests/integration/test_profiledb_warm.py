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

import copy
import dataclasses

import numpy as np
import pytest

from repro.compiler import StreamLoop, Term
from repro.config import GovernorConfig, ProfileDBConfig, itanium2_smp
from repro.core import Cobra, run_with_cobra
from repro.core.optimizer import REGRESSION
from repro.cpu import Machine
from repro.persist import PROFILEDB_NAME, MemoryDisk, ProfileDB, merge_entries
from repro.persist.profiledb import ENTRY, empty_entry
from repro.runtime import ParallelProgram
from repro.scenario import MACHINES, _digest, _snapshot_arrays, npb_spec
from repro.shape import anomaly

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


def _recorded(disk) -> tuple[str, dict]:
    db = ProfileDB(disk)
    db.load()
    ((key, entry),) = db.entries.items()
    return key, entry


def _offer(key: str, entry: dict):
    """A fresh runtime attached to a database holding just ``entry``."""
    disk = MemoryDisk()
    db = ProfileDB(disk)
    db.entries[key] = entry
    db.save()
    machine = Machine(itanium2_smp(THREADS, scale=4))
    config = dataclasses.replace(
        machine.config.cobra, profile_db=ProfileDBConfig(disk=disk)
    )
    return Cobra(machine, _build(machine).image, "noprefetch", config)


class TestEntryCycle:
    """export -> merge -> validate -> seed accepts its own output and
    turns away every single-field damage, naming the field."""

    @pytest.fixture(scope="class")
    def recorded(self):
        disk = MemoryDisk()
        _prog, _result, report = _run(disk)
        return (*_recorded(disk), report)

    def test_the_cycle_accepts_its_own_output(self, recorded):
        key, entry, report = recorded
        assert anomaly(ENTRY, entry, "entry") is None
        assert merge_entries(entry, empty_entry()) == entry
        doubled = merge_entries(entry, entry)
        assert anomaly(ENTRY, doubled, "entry") is None
        assert doubled["runs"] == 2
        cobra = _offer(key, doubled)
        assert cobra._profile_source == "hit"
        assert [(d.loop.head, d.optimization) for d in cobra.optimizer.deployments()] == [
            (d.loop.head, d.optimization) for d in report.deployments
        ]

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda e: e.update(runs=-1), "entry-runs-range"),
            (lambda e: e.update(cpi_total=float("nan")), "entry-cpi_total-range"),
            (lambda e: e.pop("cpi_count"), "entry-cpi_count-range"),
            (lambda e: e.update(flips=True), "entry-flips-range"),
            (lambda e: e.update(decisions=[]), "entry-decisions-type"),
            (lambda e: e["decisions"].update(zzz={}), "entry-decisions-type"),
            (
                lambda e: next(iter(e["decisions"].values()))["noprefetch"].pop("back_branch"),
                "entry-decisions-back_branch-range",
            ),
            (
                lambda e: next(iter(e["decisions"].values()))["noprefetch"].update(proven="1"),
                "entry-decisions-proven-range",
            ),
            (lambda e: e["profiler"].update(btb=[[1, 2]]), "entry-profiler-btb-type"),
            (lambda e: e["profiler"].pop("samples_seen"), "entry-profiler-samples_seen-range"),
        ],
    )
    def test_single_field_damage_is_named_and_leaves_the_run_cold(
        self, recorded, damage, named
    ):
        key, entry, _report = recorded
        entry = copy.deepcopy(entry)
        damage(entry)
        assert anomaly(ENTRY, entry, "entry").startswith(named)
        cobra = _offer(key, entry)
        assert cobra._profile_source == "entry-invalid"
        assert not cobra.optimizer.deployments() and not cobra.optimizer.events
        assert cobra.optimizer.profiler.samples_seen == 0
        assert cobra.optimizer.warm_at_retired is None

    def test_a_regression_rollback_is_the_evidence_against(self):
        """The producer's text (``REGRESSION``) and the consumer's
        predicate (``OptEvent.is_regression``) stay one definition."""
        recipe, workload = MACHINES["altix8"], npb_spec("sp", 8, 1)
        machine = recipe()
        disk = MemoryDisk()
        config = dataclasses.replace(
            machine.config.cobra, profile_db=ProfileDBConfig(disk=disk)
        )
        _result, report = run_with_cobra(workload.build(machine), "noprefetch", config=config)
        regressions = [e for e in report.events if e.is_regression()]
        assert regressions
        assert all(
            e.kind == "rollback" and e.reason.startswith(REGRESSION) for e in regressions
        )
        assert [e for e in report.events if e.reason.startswith("CPI")] == regressions
        _key, entry = _recorded(disk)
        against = {
            (int(head), opt): rec["rolled_back"]
            for head, opts in entry["decisions"].items()
            for opt, rec in opts.items()
            if rec["rolled_back"]
        }
        assert against == {(e.loop_head, e.optimization): 1 for e in regressions}


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


class TestGovernedCompaction:
    def test_stop_compacts_coldest_first_with_a_ledger_event(self, monkeypatch):
        """Over the governor's entry budget, ``Cobra.stop()`` drops the
        entries with the fewest runs (ties by key) before it saves."""
        monkeypatch.setattr("repro.governor.core.PROFILE_DB_ENTRIES", 2)
        disk = MemoryDisk()
        db = ProfileDB(disk)
        db.entries = {
            key: {**empty_entry(), "runs": runs}
            for key, runs in (("-cold-a", 1), ("-hot", 5), ("-cold-b", 1))
        }
        db.save()
        machine = Machine(itanium2_smp(THREADS, scale=4))
        config = dataclasses.replace(
            machine.config.cobra, optimize_interval=30_000,
            profile_db=ProfileDBConfig(disk=disk), governor=GovernorConfig(),
        )
        _result, report = run_with_cobra(_build(machine), "noprefetch", config=config)

        saved = ProfileDB(disk)
        saved.load()
        # the run's own entry has one run too: "-" sorts before any
        # digest, so the tie drops the two planted cold entries
        assert sorted(saved.entries) == ["-hot", report.profile_db["key"]]
        assert report.governor["db_compacted"] == 2
        (event,) = [e for e in report.faults.events if e.kind == "db_compacted"]
        assert event.status == "detected" and "2 coldest" in event.note
