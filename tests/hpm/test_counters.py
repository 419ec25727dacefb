"""PMU counters: programming, virtualization, resets."""

import pytest

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler
from repro.errors import HpmError
from repro.hpm import N_COUNTERS, PerformanceCounters, PmuEvent, read_event
from repro.isa import assemble
from repro.workloads import build_daxpy


def _run_loop(machine, iters=50):
    image = assemble(f"mov ar.lc={iters}\n.l:\nbr.cloop.sptk .l\nhalt\n")
    machine.load_image(image)
    core = machine.cores[0]
    core.start(image.base)
    Scheduler(machine.cores).run_until_halt(100_000)
    return core


class TestCounters:
    def test_programmed_counter_counts_from_zero(self):
        machine = Machine(itanium2_smp(1))
        core = machine.cores[0]
        pmu = PerformanceCounters(core)
        pmu.program(0, PmuEvent.IA64_INST_RETIRED)
        _run_loop(machine)
        assert pmu.read(0) == core.retired

    def test_reset_rebases(self):
        machine = Machine(itanium2_smp(1))
        core = machine.cores[0]
        pmu = PerformanceCounters(core)
        pmu.program(0, PmuEvent.CPU_CYCLES)
        _run_loop(machine)
        pmu.reset(0)
        assert pmu.read(0) == 0

    def test_read_all_with_unprogrammed(self):
        machine = Machine(itanium2_smp(1))
        pmu = PerformanceCounters(machine.cores[0])
        pmu.program(1, PmuEvent.BR_TAKEN)
        values = pmu.read_all()
        assert len(values) == N_COUNTERS
        assert values[0] == 0  # unprogrammed reads as 0

    def test_errors(self):
        machine = Machine(itanium2_smp(1))
        pmu = PerformanceCounters(machine.cores[0])
        with pytest.raises(HpmError):
            pmu.read(0)
        with pytest.raises(HpmError):
            pmu.program(4, PmuEvent.CPU_CYCLES)
        with pytest.raises(HpmError):
            pmu.reset(2)

    @pytest.mark.parametrize("event", list(PmuEvent))
    def test_every_event_readable(self, event):
        machine = Machine(itanium2_smp(1))
        assert read_event(machine.cores[0], event) == 0

    def test_event_of(self):
        machine = Machine(itanium2_smp(1))
        pmu = PerformanceCounters(machine.cores[0])
        pmu.program(0, PmuEvent.L3_MISSES)
        assert pmu.event_of(0) is PmuEvent.L3_MISSES
        assert pmu.event_of(1) is None


#: what each event counts, spelt out here rather than read from the
#: table the counters use
EXPECTED = {
    PmuEvent.CPU_CYCLES: lambda core, ev: core.cycles,
    PmuEvent.IA64_INST_RETIRED: lambda core, ev: core.retired,
    PmuEvent.LOADS_RETIRED: lambda core, ev: ev.loads,
    PmuEvent.STORES_RETIRED: lambda core, ev: ev.stores,
    PmuEvent.DATA_PREFETCHES: lambda core, ev: ev.prefetches,
    PmuEvent.L2_MISSES: lambda core, ev: ev.l2_misses,
    PmuEvent.L3_MISSES: lambda core, ev: ev.l3_misses,
    PmuEvent.L2_WRITEBACKS: lambda core, ev: ev.l2_writebacks,
    PmuEvent.L3_WRITEBACKS: lambda core, ev: ev.writebacks,
    PmuEvent.BUS_MEMORY: lambda core, ev: ev.bus_memory,
    PmuEvent.BUS_RD_HIT: lambda core, ev: ev.bus_rd_hit,
    PmuEvent.BUS_RD_HITM: lambda core, ev: ev.bus_rd_hitm,
    PmuEvent.BUS_RD_INVAL: lambda core, ev: ev.bus_rd_inval,
    PmuEvent.BUS_RD_INVAL_ALL_HITM: lambda core, ev: ev.bus_rd_inval_hitm,
    PmuEvent.BR_TAKEN: lambda core, ev: core.taken_branches,
}


class TestEventTable:
    def test_every_event_reads_the_same_both_ways(self):
        """``read_event`` and a programmed counter's bound reader agree
        with what each event counts, on a run that moves all of them."""
        assert set(EXPECTED) == set(PmuEvent)
        machine = Machine(itanium2_smp(2, scale=16))
        prog = build_daxpy(machine, 4096, 2, outer_reps=2)
        core = machine.cores[1]
        events = list(PmuEvent)
        pmus = [PerformanceCounters(core) for _ in range(0, len(events), N_COUNTERS)]
        for n, event in enumerate(events):
            pmus[n // N_COUNTERS].program(n % N_COUNTERS, event)
        prog.run()
        counted = [pmus[n // N_COUNTERS].read(n % N_COUNTERS) for n in range(len(events))]
        direct = [read_event(core, event) for event in events]
        expected = [EXPECTED[event](core, core.cache.events) for event in events]
        assert counted == direct == expected
        assert all(expected)
