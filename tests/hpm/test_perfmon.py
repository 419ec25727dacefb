"""perfmon sampling sessions: BTB, DEAR filtering, sample delivery."""

import pytest

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler
from repro.errors import HpmError
from repro.hpm import (
    BranchTraceBuffer,
    DataEventAddressRegister,
    PerfmonDriver,
    PerfmonSession,
    PmuEvent,
)
from repro.isa import assemble

EVENTS = [PmuEvent.BUS_MEMORY, PmuEvent.BUS_RD_HIT, PmuEvent.BUS_RD_HITM, PmuEvent.BUS_RD_INVAL]


def _streaming_program(machine, n_lines=64, iters=2):
    a = machine.mem.alloc("data", n_lines * 128)
    image = assemble(
        f"""
        mov r9={iters - 1}
        .outer:
        mov r2={a.base}
        mov ar.lc={n_lines * 16 - 1}
        .l:
        ldfd f4=[r2],8
        br.cloop.sptk .l
        cmp.ne p6,p7=r9,0
        add r9=-1,r9
        (p6) br.cond.sptk .outer
        halt
        """
    )
    machine.load_image(image)
    return image


class TestSession:
    def test_samples_delivered_with_fields(self):
        machine = Machine(itanium2_smp(1))
        image = _streaming_program(machine)
        session = PerfmonSession(machine.cores[0], pid=42)
        got = []
        session.configure(EVENTS, interval=200, dear_min_latency=12)
        session.set_listener(got.append)
        machine.cores[0].start(image.base)
        Scheduler(machine.cores).run_until_halt(1_000_000)
        session.stop()
        assert len(got) > 5
        sample = got[-1]
        assert sample.pid == 42 and sample.cpu_id == 0
        assert len(sample.counters) == 4
        assert sample.index == len(got) - 1
        assert any(s.has_miss() for s in got), "streaming must produce DEAR events"
        miss = next(s for s in got if s.has_miss())
        assert miss.miss_latency > 12
        assert miss.miss_line == miss.miss_addr >> 7

    def test_configure_validation(self):
        machine = Machine(itanium2_smp(1))
        session = PerfmonSession(machine.cores[0])
        with pytest.raises(HpmError):
            session.configure(EVENTS, interval=0, dear_min_latency=12)
        with pytest.raises(HpmError):
            session.configure([PmuEvent.CPU_CYCLES] * 5, interval=10, dear_min_latency=0)
        session.configure(EVENTS, interval=10, dear_min_latency=12)
        with pytest.raises(HpmError):
            session.configure(EVENTS, interval=10, dear_min_latency=12)  # double
        session.stop()
        assert not session.active

    def test_driver_facade(self):
        machine = Machine(itanium2_smp(2))
        driver = PerfmonDriver(machine.cores)
        assert [session.core for session in driver.sessions] == machine.cores
        driver.stop_all()


class TestBtbAndDear:
    def test_btb_snapshot_and_backward(self):
        machine = Machine(itanium2_smp(1))
        image = _streaming_program(machine)
        machine.cores[0].start(image.base)
        Scheduler(machine.cores).run_until_halt(1_000_000)
        btb = BranchTraceBuffer(machine.cores[0])
        assert len(btb.snapshot()) == 4
        # a loop-closing (backward) taken branch is among the pairs
        assert any(target <= branch for branch, target in btb.snapshot())

    def test_dear_threshold_filters(self):
        machine = Machine(itanium2_smp(1))
        image = _streaming_program(machine)
        dear = DataEventAddressRegister(machine.cores[0])
        dear.program(10_000)  # nothing qualifies
        machine.cores[0].start(image.base)
        Scheduler(machine.cores).run_until_halt(1_000_000)
        assert dear.read() is None

    def test_dear_consume_clears(self):
        machine = Machine(itanium2_smp(1))
        image = _streaming_program(machine)
        dear = DataEventAddressRegister(machine.cores[0])
        dear.program(12)
        machine.cores[0].start(image.base)
        Scheduler(machine.cores).run_until_halt(1_000_000)
        record = dear.consume()
        assert record is not None and record.latency > 12
        assert dear.consume() is None

    def test_dear_program_validation(self):
        machine = Machine(itanium2_smp(1))
        dear = DataEventAddressRegister(machine.cores[0])
        with pytest.raises(HpmError):
            dear.program(-1)
