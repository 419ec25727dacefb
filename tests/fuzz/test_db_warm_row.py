"""The db-warm row of the fuzz axis table: a warm start from the database
the db-cold cell just recorded.

Wherever db-cold deployed, the warm run must load the database as a
hit, seed at least one loop and cut the profiling ramp by at least
``differ.MIN_RAMP_CUT``; over named workloads some cell must seed.  A
clean sweep must come back clean, and each seeded fault — a miss, a
hit that seeds nothing, a seeded start that keeps the ramp — must be
reported through the row, never escape as an exception.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fuzz import DifferentialFuzzer, generate_params
from repro.fuzz.differ import generated_case

#: a generated seed whose db-cold cell deploys
SEED = 12


def _sweep(case=None):
    case = case or generated_case(generate_params(SEED))
    return DifferentialFuzzer(cases=[case], axes=["db-warm"]).run()


def _named():
    """The seed's case as a named workload: the row gate applies."""
    return replace(generated_case(generate_params(SEED)), params=None)


def _warm_facts(report) -> dict:
    [facts] = [
        dict(cell.facts) for result in report.results for cell in result.cells
        if cell.label == "db-warm"
    ]
    return facts


def _divergent(report) -> set[str]:
    observables = {d.observable for d in report.divergences}
    assert "exception" not in observables
    return {d.observable for d in report.divergences if d.axis.startswith("db-warm")}


class TestDbWarmRow:
    @pytest.fixture(scope="class")
    def report(self):
        return _sweep()

    def test_sweep_is_clean(self, report):
        assert report.ok, report.summary()

    def test_warm_start_seeds_and_skips_the_ramp(self, report):
        facts = _warm_facts(report)
        assert facts["cold_ramp"] > 0 and facts["warm_ramp"] == 0
        assert facts["seeded"] >= 1

    def test_gate_holds_where_a_named_case_seeds(self):
        report = _sweep(_named())
        assert report.ok, report.summary()

    def test_gate_waits_for_named_workloads(self):
        report = _sweep(generated_case(generate_params(0)))
        assert _warm_facts(report)["seeded"] == 0
        assert report.ok, report.summary()


# -- seeded faults: each must surface through the row ---------------------------


class TestSeededFaults:
    def test_warm_run_that_misses_the_database_is_caught(self, monkeypatch):
        from repro.persist.profiledb import ProfileDB

        monkeypatch.setattr(ProfileDB, "entry", lambda _db, _key: None)
        assert "profile-db" in _divergent(_sweep())

    def test_hit_that_seeds_no_loop_is_caught(self, monkeypatch):
        from repro.core.optimizer import OptimizationThread

        monkeypatch.setattr(OptimizationThread, "_redeploy", lambda *_args: 0)
        assert "seeded" in _divergent(_sweep())

    def test_ramp_cut_below_the_floor_is_caught(self, monkeypatch):
        from repro.core.optimizer import OptimizationThread

        real = OptimizationThread.seed_from_profile

        def no_baseline(thread, entry, source="profile-db"):
            # the loops go live, but the CPI baseline is not restored:
            # the optimizer profiles its way to steady state again
            deployed = real(thread, entry, source)
            thread._cpi_history, thread.warm_at_retired = [], None
            return deployed

        monkeypatch.setattr(OptimizationThread, "seed_from_profile", no_baseline)
        assert "ramp" in _divergent(_sweep())

    def test_row_where_nothing_deploys_fails_the_gate(self, monkeypatch):
        from repro.core.opts import REWRITES

        for name in list(REWRITES):
            monkeypatch.setitem(REWRITES, name, lambda _program, _trace: None)
        report = _sweep(_named())
        assert not report.divergences
        assert [f for f in report.failures if f.startswith("db-warm: no warm start")]
