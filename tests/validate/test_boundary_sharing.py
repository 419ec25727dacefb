"""Chunk-boundary cache-line sharing under adaptive optimization.

With a 128-byte line (16 doubles / 16 int64s), any per-thread chunk
that is not a multiple of 16 makes adjacent threads' chunks share the
cache line straddling their boundary.  That line ping-pongs between
CPUs, which is exactly the traffic COBRA's noprefetch/excl rewrites
target — so these are the scenarios where a wrong rewrite would show
up as cross-thread corruption.  Ground truth (no COBRA) and adaptive
must stay bit-identical.
"""

import dataclasses

import pytest

from functools import partial

from repro.fuzz import build_scenario, scenario_machine
from repro.fuzz.generator import generate_params
from repro.scenario import WorkloadSpec, run_cell

#: 13 % 16 != 0: thread t's last element and thread t+1's first share a line.
_SHARED_CHUNK = 13


def _params(loop_class: str, n_threads: int):
    base = generate_params(0, fault_seed=0)
    return dataclasses.replace(
        base,
        loop_class=loop_class,
        machine_kind="smp",
        n_threads=n_threads,
        chunk=_SHARED_CHUNK,
        reps=3,
        share_boundary=True,
        nest_depth=3,
    )


def _run(params, strategy):
    """One scenario cell, JIT pinned on so the test is env-independent."""
    return run_cell(
        partial(scenario_machine, params),
        WorkloadSpec("boundary", partial(build_scenario, params)),
        strategy, jit=True, tap=True,
    )


class TestBoundarySharing:
    @pytest.mark.parametrize("loop_class", ["gather", "histogram"])
    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_adaptive_bit_identical_on_shared_lines(self, loop_class, n_threads):
        params = _params(loop_class, n_threads)
        assert params.chunk % 16 != 0  # the premise: chunks share a line
        none = _run(params, "none")
        adaptive = _run(params, "adaptive")
        assert adaptive.digest == none.digest

    def test_shared_line_scenarios_deterministic(self):
        params = _params("histogram", 2)
        first = _run(params, "adaptive")
        second = _run(params, "adaptive")
        assert first == second
