"""Process-parallel scenario fan-out: reports byte-identical at any N.

``repro.parallel.run_tasks`` is the one primitive every harness shares:
an ordered task list goes in, results come back in submission order no
matter how many worker processes ran them.  These tests pin that
contract directly and then end-to-end — the differential, chaos and
recovery harness reports (and the bench digests) must match
byte-for-byte between ``jobs=1`` (inline) and ``jobs=4`` (process
pool).
"""

from __future__ import annotations

import os

import pytest

from repro.config import FaultConfig
from repro.errors import ValidationError
from repro.faults import ChaosHarness
from repro.parallel import run_tasks
from repro.validate import RecoveryHarness
from repro.validate.differential import (
    DifferentialHarness,
    MachineRecipe,
    daxpy_spec,
)

# toy task for the run_tasks contract tests — must be module-level and
# importable so the process pool can pickle it
def _square(x: int) -> int:
    return x * x


def _pid_tag(x: int) -> tuple[int, int]:
    return x, os.getpid()


class TestRunTasks:
    def test_results_in_submission_order(self):
        tasks = [(_square, (n,)) for n in range(20)]
        assert run_tasks(tasks, jobs=4) == [n * n for n in range(20)]

    def test_inline_when_single_job(self):
        tasks = [(_pid_tag, (n,)) for n in range(4)]
        results = run_tasks(tasks, jobs=1)
        assert [x for x, _ in results] == [0, 1, 2, 3]
        assert {pid for _, pid in results} == {os.getpid()}

    def test_workers_are_separate_processes(self):
        tasks = [(_pid_tag, (n,)) for n in range(8)]
        results = run_tasks(tasks, jobs=4)
        assert [x for x, _ in results] == list(range(8))
        assert os.getpid() not in {pid for _, pid in results}

    def test_unpicklable_task_is_rejected_upfront(self):
        with pytest.raises(ValidationError, match="--jobs"):
            run_tasks([(lambda: None, ()), (lambda: None, ())], jobs=2)

    def test_single_task_runs_inline_even_with_jobs(self):
        # one cell can't be parallelized; the pool (and its pickling
        # requirement) is skipped entirely
        assert run_tasks([(lambda: 42, ())], jobs=8) == [42]

    def test_empty_task_list(self):
        assert run_tasks([], jobs=4) == []


def _machines():
    # picklable factories (MachineRecipe, not lambdas) sized small
    # enough that the 2x harness runs stay cheap
    return {
        "smp2": MachineRecipe("smp", 2, 4),
        "altix2": MachineRecipe("altix", 2, 4),
    }


SPEC = daxpy_spec(n_elems=256, n_threads=2, reps=2)


class TestHarnessJobsDeterminism:
    def test_differential_report_identical(self):
        def sweep(jobs):
            return DifferentialHarness(SPEC, _machines()).run(jobs=jobs)

        seq, par = sweep(1), sweep(4)
        assert seq.summary() == par.summary()
        assert seq.ok and par.ok
        assert [r.digest for r in seq.records] == [r.digest for r in par.records]

    def test_chaos_report_identical(self):
        def sweep(jobs):
            harness = ChaosHarness(
                SPEC,
                machines=_machines(),
                strategies=("adaptive",),
                seeds=(0, 1),
                fault_config=FaultConfig(
                    sample_rate=0.2, patch_rate=0.8, loop_rate=0.4
                ),
            )
            return harness.run(jobs=jobs)

        seq, par = sweep(1), sweep(4)
        assert seq.summary() == par.summary()
        assert seq.baseline_digests == par.baseline_digests
        assert [r.ledger.injected for r in seq.records] == [
            r.ledger.injected for r in par.records
        ]

    def test_recovery_report_identical(self):
        def sweep(jobs):
            harness = RecoveryHarness(
                SPEC,
                {"smp2": MachineRecipe("smp", 2, 4)},
                strategy="noprefetch",
                stride=9,
                torn_modes=(None,),
            )
            return harness.run(jobs=jobs)

        seq, par = sweep(1), sweep(4)
        assert seq.summary() == par.summary()
        assert seq.reference_digests == par.reference_digests
        assert [r.digest for r in seq.records] == [
            r.digest for r in par.records
        ]

    def test_bench_cases_identical(self):
        from repro.bench import run_bench

        def matrix(jobs):
            return run_bench(
                benchmarks=("daxpy",),
                machines=("smp4",),
                strategies=("none", "adaptive"),
                jobs=jobs,
            )

        assert matrix(1) == matrix(2)
