"""Thread-to-CPU binding and the fetchadd8 barrier."""

import pytest

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine, Scheduler
from repro.errors import RuntimeError_
from repro.isa import assemble
from repro.isa.binary import BinaryImage
from repro.isa.instructions import Instruction, Op
from repro.compiler.codegen import Emitter
from repro.compiler import StreamLoop, Term
from repro.runtime import ParallelProgram
from repro.runtime.barrier import emit_barrier


def _program(machine, n_threads):
    prog = ParallelProgram(machine, "bind")
    prog.array("x", 64, 1.0)
    fn = prog.kernel(StreamLoop("k", dest="x", terms=(Term("x", 1.0, 0),)))
    prog.parallel_for(fn, 64, n_threads)
    return prog


class TestAffinity:
    def test_compact(self):
        """Thread t runs on CPU t: threads fill nodes in order."""
        prog = _program(Machine(sgi_altix(8)), 4)
        prog.build()
        assert [th.core.cpu_id for th in prog.threads] == [0, 1, 2, 3]

    def test_validation(self):
        prog = _program(Machine(itanium2_smp(4)), 5)
        with pytest.raises(RuntimeError_, match="5 threads exceed 4 CPUs"):
            prog.build()
        with pytest.raises(RuntimeError_, match="no regions added"):
            ParallelProgram(Machine(itanium2_smp(4)), "empty").build()


class TestBarrier:
    def _build(self, machine, n_threads, rounds):
        image = BinaryImage()
        em = Emitter(image)
        emit_barrier(em, machine.mem, n_threads, "__bar")
        counter = machine.mem.alloc("progress", 128 * n_threads)
        for tid in range(n_threads):
            em.label(f"__t{tid}")
            em.emit(Instruction(Op.MOVI, r1=10, imm=rounds))
            em.label(f".outer{tid}")  # label() flushes pending instructions
            # record the round number then wait for everyone
            em.emit(Instruction(Op.MOVI, r1=11, imm=counter.addr(16 * tid)))
            em.emit(Instruction(Op.LD8, r1=12, r2=11, unit="M"))
            em.emit(Instruction(Op.ADDI, r1=12, r2=12, imm=1))
            em.emit(Instruction(Op.ST8, r2=11, r3=12, unit="M"))
            em.emit(Instruction(Op.BR_CALL, label="__bar", unit="B"))
            em.emit(Instruction(Op.ADDI, r1=10, r2=10, imm=-1))
            em.emit(Instruction(Op.CMPI_NE, r1=6, r2=7, r3=10, imm=0))
            em.emit(Instruction(Op.BR_COND, qp=6, label=f".outer{tid}", unit="B"))
            em.emit(Instruction(Op.HALT, unit="B"))
            em.flush()
        image.link()
        machine.load_image(image)
        return image, counter

    def test_all_threads_complete_all_rounds(self):
        machine = Machine(itanium2_smp(4))
        image, counter = self._build(machine, 4, rounds=7)
        for tid in range(4):
            machine.cores[tid].start(image.labels[f"__t{tid}"])
        Scheduler(machine.cores).run_until_halt(3_000_000)
        for tid in range(4):
            assert machine.mem.read_i64(counter.addr(16 * tid)) == 7

    def test_barrier_state_resets_between_rounds(self):
        machine = Machine(itanium2_smp(2))
        image, _ = self._build(machine, 2, rounds=20)
        for tid in range(2):
            machine.cores[tid].start(image.labels[f"__t{tid}"])
        Scheduler(machine.cores).run_until_halt(3_000_000)
        count_addr = machine.mem.allocations["__bar_state"].base
        assert machine.mem.read_i64(count_addr) == 0
        assert machine.mem.read_i64(count_addr + 128) == 20  # generation
