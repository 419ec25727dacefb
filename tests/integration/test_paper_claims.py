"""Fast integration checks of the paper's central claims.

Each test is a scaled-down version of a paper experiment — small
enough for the unit suite, strong enough to catch regressions in the
end-to-end behaviour the paper reports.  The figures themselves are
fidelity-matrix cases (tests/test_bench.py, tests/test_figures.py).
"""

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.scenario import MachineRecipe, daxpy_spec, npb_spec, run_cell
from repro.workloads import working_set_elems

#: DAXPY's 128K working set on the 4-way SMP at cache scale 4
SMP = MachineRecipe("smp", 4, 4)
N_ELEMS = working_set_elems("128K", 4)


def _daxpy_cycles(threads, binary="prefetch", reps=24, steady=False):
    """Cycles of one static binary (``noprefetch``: ``scenario.nop_prefetches``)."""
    def once(r):
        obs = run_cell(SMP, daxpy_spec(N_ELEMS, threads, r, binary))
        assert obs.verified
        return obs.cycles

    if steady:  # warm-up subtracted, as the paper's long runs amortize it
        return once(2 * reps) - once(reps)
    return once(reps)


class TestMotivation:
    """§2: aggressive prefetching hurts multithreaded cache-resident runs."""

    def test_noprefetch_equal_at_one_thread(self):
        base = _daxpy_cycles(1, steady=True)
        nopf = _daxpy_cycles(1, "noprefetch", steady=True)
        assert abs(base / nopf - 1.0) < 0.06

    def test_noprefetch_wins_at_four_threads(self):
        base = _daxpy_cycles(4, steady=True)
        nopf = _daxpy_cycles(4, "noprefetch", steady=True)
        assert base / nopf > 1.2, "prefetch-induced sharing must dominate"


class TestCobraHeadline:
    """§5: COBRA's runtime rewrite recovers most of the static win."""

    def test_cobra_captures_most_of_the_static_benefit(self):
        base, static = _daxpy_cycles(4), _daxpy_cycles(4, "noprefetch")
        cobra = run_cell(SMP, daxpy_spec(N_ELEMS, 4, 24), "noprefetch")
        assert cobra.verified and cobra.report.deployments
        assert base - cobra.cycles > 0.5 * (base - static)


class TestNumaPenalty:
    """§5.2.1: coherent misses cost more on cc-NUMA than on the SMP."""

    def test_remote_coherent_miss_band(self):
        smp = Machine(itanium2_smp(4))
        numa = Machine(sgi_altix(8))
        addr = 0x8000_0000
        smp.caches[0].access(0, addr, 1)     # STORE
        smp_stall = smp.caches[1].access(0, addr, 0)  # LOAD -> HITM
        numa.caches[0].access(0, addr, 1)
        numa_stall = numa.caches[7].access(0, addr, 0)  # remote node
        assert numa_stall > smp_stall * 1.5


class TestBinaryPatchingSafety:
    """Deployment must never change program results (DESIGN.md §4.5)."""

    def test_npb_results_identical_under_cobra(self):
        for name in ("sp", "ft"):
            obs = run_cell(MachineRecipe("smp", 4), npb_spec(name, 4, 2), "adaptive")
            assert obs.verified, f"{name} corrupted by patching"
