"""The chaos sweep, the fuzz table's ``faulted`` row: fault schedules
preserve outputs and every fault is accounted."""

from dataclasses import replace

from repro.faults import zero_rate_faults
from repro.fuzz import Case, DifferentialFuzzer, differ
from repro.scenario import MachineRecipe, daxpy_spec, run_cell

SPEC = daxpy_spec(n_threads=2, reps=4)
SMP2 = MachineRecipe("smp", 2, 16)


def _sweep(seeds=(0, 1)):
    return DifferentialFuzzer(
        cases=[Case(SPEC, "smp2", SMP2, tuple(seeds))], axes=["faulted"]
    ).run()


def _faulted(report):
    return [
        cell for cell in report.results[0].cells if cell.label.startswith("faulted/")
    ]


class TestFaultedRow:
    def test_sweep_is_clean_and_injects(self):
        report = _sweep(seeds=(0, 1, 2))
        assert report.ok, report.summary()
        cells = _faulted(report)
        assert len(cells) == 3 * 3      # strategies x seeds
        assert sum(dict(cell.facts)["injected"] for cell in cells) > 0
        baseline = dict(report.results[0].digests)["none"]
        assert all(cell.digest == baseline for cell in cells)

    def test_same_seed_replays_identically(self):
        assert _sweep(seeds=(5,)).results == _sweep(seeds=(5,)).results
        # the row's schedule itself: same ledger, event for event
        delta = differ._faulted("adaptive", 5, None)
        a, b = (run_cell(SMP2, SPEC, "adaptive", delta) for _ in range(2))
        assert a.cycles == b.cycles
        assert a.ledger.injected == b.ledger.injected > 0
        assert a.ledger.by_kind == b.ledger.by_kind
        assert [e.kind for e in a.ledger.events] == [e.kind for e in b.ledger.events]

    def test_zero_injection_sweep_fails(self, monkeypatch):
        silent = replace(
            next(a for a in differ.AXES if a.name == "faulted"),
            delta=lambda _strategy, seed, _stores: {"faults": zero_rate_faults(seed)},
        )
        monkeypatch.setattr(
            differ, "AXES",
            tuple(silent if a.name == "faulted" else a for a in differ.AXES),
        )
        report = _sweep()
        assert all(result.ok for result in report.results)
        assert not report.ok
        assert any("injected nothing" in failure for failure in report.failures)

    def test_summary_lists_every_record(self):
        report = _sweep()
        text = report.summary()
        assert "fuzz[daxpy-n512-t2-r4 on smp2]" in text
        for cell in _faulted(report):
            assert cell.label in text
            assert f"injected={dict(cell.facts)['injected']}" in text

    def test_default_strategy_matrix_excludes_baseline(self):
        faulted = next(a for a in differ.AXES if a.name == "faulted")
        assert faulted.strategy is None and faulted.seeded
        assert faulted.over == ("noprefetch", "excl", "adaptive")
