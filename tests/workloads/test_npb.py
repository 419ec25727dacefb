"""NPB-like suite: every benchmark verifies against its NumPy mirror."""

import pytest

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.isa import Op
from repro.errors import WorkloadError
from repro.workloads import BENCHMARKS, REPORTED
from repro.workloads.npb.common import register

ALL = sorted(BENCHMARKS)


class TestRegistry:
    def test_eight_benchmarks_registered(self):
        assert set(BENCHMARKS) == {"bt", "sp", "lu", "ft", "mg", "cg", "ep", "is"}

    def test_reported_excludes_ep_is(self):
        assert set(REPORTED) == set(BENCHMARKS) - {"ep", "is"}

    def test_read_only_mapping_in_the_papers_order(self):
        """The registry names all eight without importing them and
        imports one on lookup (tests/test_import_budget.py pins which);
        to its callers it is the dict it used to be, minus mutation."""
        paper_order = ["bt", "sp", "lu", "ft", "mg", "cg", "ep", "is"]
        assert list(BENCHMARKS) == paper_order and len(BENCHMARKS) == 8
        assert "cg" in BENCHMARKS and "nope" not in BENCHMARKS
        assert [name for name, _bench in BENCHMARKS.items()] == paper_order
        assert all(bench.name == name for name, bench in BENCHMARKS.items())
        assert BENCHMARKS["is"] is BENCHMARKS["is"]
        assert BENCHMARKS.get("nope") is None
        with pytest.raises(KeyError, match="nope"):
            BENCHMARKS["nope"]
        with pytest.raises(TypeError):
            BENCHMARKS["cg"] = BENCHMARKS["mg"]

    def test_register_rejects_a_duplicate_name(self):
        with pytest.raises(WorkloadError, match="'cg' already registered"):
            register(BENCHMARKS["cg"])


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL)
    def test_verifies_on_smp_4_threads(self, name):
        bench = BENCHMARKS[name]
        machine = Machine(itanium2_smp(4))
        prog = bench.build(machine, 4, reps=2)
        prog.run(max_bundles=100_000_000)
        assert bench.verify(prog, 2), f"{name} diverged from its NumPy mirror"

    @pytest.mark.parametrize("name", ["bt", "cg", "is"])
    def test_verifies_on_numa_and_single_thread(self, name):
        bench = BENCHMARKS[name]
        machine = Machine(sgi_altix(4))
        prog = bench.build(machine, 4, reps=2)
        prog.run(max_bundles=100_000_000)
        assert bench.verify(prog, 2)
        machine = Machine(itanium2_smp(1))
        prog = bench.build(machine, 1, reps=2)
        prog.run(max_bundles=100_000_000)
        assert bench.verify(prog, 2)

    @pytest.mark.parametrize("name", ["sp", "mg"])
    def test_thread_count_does_not_change_results(self, name):
        bench = BENCHMARKS[name]
        outputs = []
        for threads in (1, 4):
            machine = Machine(itanium2_smp(4))
            prog = bench.build(machine, threads, reps=2)
            prog.run(max_bundles=100_000_000)
            assert bench.verify(prog, 2)
            outputs.append(True)
        assert all(outputs)


class TestStructure:
    def test_coherent_ratio_band_for_reported(self):
        """Class S is coherence-dominated (paper: 60-70 %)."""
        for name in REPORTED:
            machine = Machine(itanium2_smp(4))
            prog = BENCHMARKS[name].build(machine, 4)
            result = prog.run(max_bundles=200_000_000)
            ratio = result.events.coherent_ratio()
            assert ratio > 0.4, f"{name}: coherent ratio {ratio:.2f} too low"

    def test_ep_and_is_have_few_coherent_events(self):
        reported_hitm = []
        for name in ("bt", "cg"):
            machine = Machine(itanium2_smp(4))
            prog = BENCHMARKS[name].build(machine, 4)
            reported_hitm.append(prog.run(max_bundles=200_000_000).events.bus_rd_hitm)
        for name in ("ep", "is"):
            machine = Machine(itanium2_smp(4))
            prog = BENCHMARKS[name].build(machine, 4)
            hitm = prog.run(max_bundles=200_000_000).events.bus_rd_hitm
            assert hitm < min(reported_hitm) / 2, (
                f"{name} must show far fewer coherent misses (paper excludes it)"
            )

    def test_wtop_only_in_gather_benchmarks(self):
        for name, expect_wtop in (("bt", False), ("ft", True), ("cg", True)):
            machine = Machine(itanium2_smp(2))
            prog = BENCHMARKS[name].build(machine, 2, reps=1)
            count = prog.image.count_ops(Op.BR_WTOP)
            assert (count > 0) == expect_wtop, name
