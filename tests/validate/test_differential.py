"""Differential regression tests: COBRA must never change program output.

Each workload runs the strategy rows of the fuzz axis table (baseline,
noprefetch, excl, adaptive) on both the snooping-bus SMP and the
cc-NUMA directory machine, with a record-mode coherence checker
attached; the committed array bytes must be identical (sha256) across
the whole matrix, and the baselines must agree across machines.
"""

from __future__ import annotations

from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.fuzz import Case, DifferentialFuzzer, named_cases, run_scenario
from repro.scenario import ALL_STRATEGIES, WorkloadSpec, daxpy_spec, npb_spec
from repro.workloads import build_daxpy

STRATEGY_ROWS = ["noprefetch", "excl", "adaptive"]


def _sweep(spec):
    return DifferentialFuzzer(
        cases=named_cases([spec], (0,), scale=16), axes=STRATEGY_ROWS
    ).run()


def _assert_bitwise_identical(report, n_machines=2):
    assert report.ok, report.summary()
    cells = [cell for result in report.results for cell in result.cells]
    assert len(cells) == n_machines * len(ALL_STRATEGIES)
    assert len({cell.digest for cell in cells}) == 1
    assert {cell.label for cell in cells} == set(ALL_STRATEGIES)
    assert all(dict(cell.facts)["checks"] > 0 for cell in cells)
    assert all(result.bundles > 0 for result in report.results)
    assert "OK" in report.summary()


def test_daxpy_identical_across_strategies_and_machines():
    _assert_bitwise_identical(_sweep(daxpy_spec(n_elems=256, n_threads=4, reps=3)))


def test_npb_cg_identical_across_strategies_and_machines():
    _assert_bitwise_identical(_sweep(npb_spec("cg", 4, reps=2)))


def test_npb_mg_identical_across_strategies_and_machines():
    _assert_bitwise_identical(_sweep(npb_spec("mg", 4, reps=1)))


def test_output_divergence_is_reported():
    # a workload that (wrongly) computes something different on every
    # rebuild: the sweep must flag the optimized runs against baseline
    calls = {"n": 0}

    def build(machine):
        calls["n"] += 1
        return build_daxpy(machine, 64, 2, 1, a=float(calls["n"]))

    case = Case(
        WorkloadSpec(name="mutant-daxpy", build=build),
        "smp2", lambda: Machine(itanium2_smp(2)), (0,),
    )
    result = run_scenario(case, ["adaptive"])
    assert not result.ok
    assert ("adaptive vs none", "digest") in {
        (d.axis, d.observable) for d in result.divergences
    }
    report = DifferentialFuzzer(cases=[case], axes=["adaptive"]).run()
    assert "FAIL" in report.summary()
    assert "DIVERGENCE [adaptive vs none] digest" in report.summary()


def test_machine_dependent_baseline_fails_the_cross_machine_check():
    """Same program, same thread count: the ``none`` output must be the
    same bits on the SMP and the cc-NUMA machine."""

    def build(machine):
        return build_daxpy(machine, 64, 4, 1, a=float(machine.config.n_cpus))

    report = DifferentialFuzzer(
        cases=named_cases([WorkloadSpec("numa-daxpy", build)], (0,), scale=16),
        axes=["none"],
    ).run()
    assert all(result.ok for result in report.results)
    assert not report.ok
    assert report.failures == [
        "numa-daxpy: altix8/none output differs from smp4/none "
        "(SMP vs cc-NUMA divergence)"
    ]
