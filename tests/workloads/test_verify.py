"""``verify()`` is one comparison against the evaluation of the recorded
schedule: True for what was built and run, False for other repetitions
and for any single changed element of any array."""

from functools import partial

import numpy as np
import pytest

from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.fuzz.driver import build_scenario, scenario_machine
from repro.fuzz.generator import generate_params
from repro.runtime.team import ParallelProgram
from repro.scenario import WorkloadSpec, run_cell
from repro.workloads import BENCHMARKS, build_daxpy, verify_daxpy


def _run(name):
    machine = Machine(itanium2_smp(2))
    if name == "daxpy":
        prog = build_daxpy(machine, 256, 2, outer_reps=2, a=1.5)
        prog.run(max_bundles=20_000_000)
        return prog, partial(verify_daxpy, prog, 2, a=1.5)
    bench = BENCHMARKS[name]
    prog = bench.build(machine, 2, reps=2)
    prog.run(max_bundles=100_000_000)
    return prog, partial(bench.verify, prog, 2)


@pytest.mark.parametrize("name", ["daxpy", *BENCHMARKS])
def test_false_for_other_reps_and_any_changed_element(name):
    prog, verify = _run(name)
    assert verify()
    if name == "daxpy":
        assert not verify_daxpy(prog, 3, a=1.5)
    else:
        assert not BENCHMARKS[name].verify(prog, 3)
    for array in prog.arrays:
        view = prog.view(array)
        for i in sorted({0, len(view) // 2, len(view) - 1}):
            kept = view[i]
            view[i] = kept + 1
            assert not verify(), (array, i)
            view[i] = kept
    assert verify()


def test_daxpy_checks_its_coefficient():
    prog, verify = _run("daxpy")
    assert verify() and not verify_daxpy(prog, 2, a=2.0)


def test_fuzz_seeds_verify_at_ground_truth():
    for seed in range(200):
        params = generate_params(seed)
        out = run_cell(
            partial(scenario_machine, params),
            WorkloadSpec("fuzz", partial(build_scenario, params), ParallelProgram.check),
            max_bundles=3_000_000,
        )
        assert out.verified is True, seed
