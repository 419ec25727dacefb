"""Interpreter semantics: every opcode class, predication, loop branches."""

import pytest

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler
from repro.errors import RegisterError, SimulationFault
from repro.isa import assemble


def _run(src: str, n_cpus: int = 1, init=None):
    machine = Machine(itanium2_smp(n_cpus))
    image = assemble(src)
    machine.load_image(image)
    core = machine.cores[0]
    if init:
        init(machine, core)
    core.start(image.base)
    Scheduler(machine.cores).run_until_halt(1_000_000)
    return machine, core


class TestAlu:
    def test_arithmetic_chain(self):
        _, core = _run(
            """
            mov r1=10
            mov r2=3
            add r3=r1,r2
            sub r4=r1,r2
            add r5=100,r1
            shl r6=r1,2
            shr r7=r1,1
            shladd r8=r2,3,r1
            halt
            """
        )
        regs = core.regs
        assert regs.read_gr(3) == 13
        assert regs.read_gr(4) == 7
        assert regs.read_gr(5) == 110
        assert regs.read_gr(6) == 40
        assert regs.read_gr(7) == 5
        assert regs.read_gr(8) == 34

    def test_logicals(self):
        _, core = _run(
            """
            mov r1=12
            mov r2=10
            and r3=r1,r2
            or r4=r1,r2
            xor r5=r1,r2
            halt
            """
        )
        assert core.regs.read_gr(3) == 8
        assert core.regs.read_gr(4) == 14
        assert core.regs.read_gr(5) == 6

    def test_compares_set_both_predicates(self):
        _, core = _run(
            """
            mov r1=5
            mov r2=9
            cmp.lt p6,p7=r1,r2
            cmp.eq p8,p9=r1,r2
            cmp.ne p10,p11=r1,5
            cmp.le p12,p13=r1,5
            halt
            """
        )
        regs = core.regs
        assert regs.read_pr(6) and not regs.read_pr(7)
        assert not regs.read_pr(8) and regs.read_pr(9)
        assert not regs.read_pr(10) and regs.read_pr(11)
        assert regs.read_pr(12)


class TestPredication:
    def test_predicated_off_instruction_skipped(self):
        _, core = _run(
            """
            mov r1=1
            cmp.eq p6,p7=r1,0
            (p6) mov r2=111
            (p7) mov r3=222
            halt
            """
        )
        assert core.regs.read_gr(2) == 0
        assert core.regs.read_gr(3) == 222

    def test_conditional_branch(self):
        _, core = _run(
            """
            mov r1=0
            mov r2=5
            cmp.ne p6,p7=r2,0
            (p6) br.cond.sptk .skip
            mov r1=99
            .skip:
            halt
            """
        )
        assert core.regs.read_gr(1) == 0


class TestLoops:
    def test_cloop_iterates_lc_plus_one_times(self):
        _, core = _run(
            """
            mov ar.lc=4
            mov r1=0
            .loop:
            add r1=1,r1
            br.cloop.sptk .loop
            halt
            """
        )
        assert core.regs.read_gr(1) == 5

    def test_ctop_rotation_pipeline(self):
        """Values written to r32 appear one name later each iteration."""
        _, core = _run(
            """
            clrrrb
            alloc rot=8
            mov pr.rot=0x10000
            mov ar.lc=3
            mov ar.ec=1
            mov r1=0
            .loop:
            (p16) add r1=1,r1
            (p16) add r32=1,r1
            br.ctop.sptk .loop
            halt
            """
        )
        assert core.regs.read_gr(1) == 4

    def test_ctop_epilog_drains_with_ec(self):
        _, core = _run(
            """
            clrrrb
            alloc rot=8
            mov pr.rot=0x10000
            mov ar.lc=2
            mov ar.ec=3
            mov r1=0
            mov r2=0
            .loop:
            (p16) add r1=1,r1
            (p18) add r2=1,r2
            br.ctop.sptk .loop
            halt
            """
        )
        # kernel runs 3 times (LC=2); stage p18 sees each, two stages later
        assert core.regs.read_gr(1) == 3
        assert core.regs.read_gr(2) == 3

    def test_wtop_runs_while_predicate_true(self):
        _, core = _run(
            """
            mov r1=0
            mov ar.ec=1
            .loop:
            cmp.lt p6,p7=r1,7
            (p6) add r1=1,r1
            (p6) br.wtop.sptk .loop
            halt
            """
        )
        assert core.regs.read_gr(1) == 7

    def test_btb_records_last_four_taken(self):
        _, core = _run(
            """
            mov ar.lc=9
            .loop:
            br.cloop.sptk .loop
            halt
            """
        )
        assert len(core.btb) == 4
        assert all(target <= branch for branch, target in core.btb)


class TestMemoryOps:
    def test_load_store_roundtrip(self, smp2):
        machine = smp2
        a = machine.mem.alloc("a", 128)
        image = assemble(
            f"""
            mov r2={a.base}
            mov r3=77
            st8 [r2]=r3
            ld8 r4=[r2]
            halt
            """
        )
        machine.load_image(image)
        core = machine.cores[0]
        core.start(image.base)
        Scheduler(machine.cores).run_until_halt(10_000)
        assert core.regs.read_gr(4) == 77

    def test_post_increment(self, smp2):
        machine = smp2
        a = machine.mem.alloc("a", 128)
        machine.mem.write_f64(a.base, 1.5)
        machine.mem.write_f64(a.base + 8, 2.5)
        image = assemble(
            f"""
            mov r2={a.base}
            ldfd f4=[r2],8
            ldfd f5=[r2]
            halt
            """
        )
        machine.load_image(image)
        core = machine.cores[0]
        core.start(image.base)
        Scheduler(machine.cores).run_until_halt(10_000)
        assert core.regs.read_fr(4) == 1.5
        assert core.regs.read_fr(5) == 2.5
        assert core.regs.read_gr(2) == a.base + 8

    def test_fetchadd_returns_old_value(self, smp2):
        machine = smp2
        a = machine.mem.alloc("a", 128)
        machine.mem.write_i64(a.base, 41)
        image = assemble(
            f"""
            mov r2={a.base}
            fetchadd8 r3=[r2],1
            ld8 r4=[r2]
            halt
            """
        )
        machine.load_image(image)
        core = machine.cores[0]
        core.start(image.base)
        Scheduler(machine.cores).run_until_halt(10_000)
        assert core.regs.read_gr(3) == 41
        assert core.regs.read_gr(4) == 42

    def test_float_ops(self, smp2):
        machine = smp2
        a = machine.mem.alloc("a", 128)
        machine.mem.write_f64(a.base, 2.0)
        image = assemble(
            f"""
            mov r2={a.base}
            ldfd f4=[r2]
            fma.d f5=f4,f4,f1
            fadd.d f6=f4,f1
            fsub.d f7=f4,f1
            fmul.d f8=f4,f4
            fabs f9=f7
            fmax.d f10=f4,f1
            setf.d f11=r2
            getf.d r3=f8
            halt
            """
        )
        machine.load_image(image)
        core = machine.cores[0]
        core.start(image.base)
        Scheduler(machine.cores).run_until_halt(10_000)
        regs = core.regs
        assert regs.read_fr(5) == 5.0
        assert regs.read_fr(6) == 3.0
        assert regs.read_fr(7) == 1.0
        assert regs.read_fr(8) == 4.0
        assert regs.read_fr(9) == 1.0
        assert regs.read_fr(10) == 2.0
        assert regs.read_fr(11) == float(a.base)
        assert regs.read_gr(3) == 4


class TestCalls:
    def test_call_and_return(self):
        _, core = _run(
            """
            mov r1=1
            br.call fn
            mov r3=3
            halt
            fn:
            mov r2=2
            br.ret
            """
        )
        assert core.regs.read_gr(1) == 1
        assert core.regs.read_gr(2) == 2
        assert core.regs.read_gr(3) == 3

    def test_ret_without_call_faults(self):
        with pytest.raises(SimulationFault):
            _run("br.ret\n")

    def test_bad_pc_faults(self):
        machine = Machine(itanium2_smp(1))
        image = assemble("br 0x7000000\n")
        machine.load_image(image)
        core = machine.cores[0]
        core.start(image.base)
        with pytest.raises(SimulationFault):
            Scheduler(machine.cores).run_until_halt(10_000)


class TestTiming:
    def test_two_bundles_per_cycle(self):
        _, core = _run("mov r1=1\nmov r2=2\nmov r3=3\nmov r4=4\nhalt\n")
        # 5 instructions -> 2+ bundles; cycles ~ bundles/2 (plus halt)
        assert core.cycles <= core.bundles_executed

    def test_sampling_hook_fires_and_charges_overhead(self):
        machine = Machine(itanium2_smp(1))
        image = assemble("mov ar.lc=999\n.loop:\nbr.cloop.sptk .loop\nhalt\n")
        machine.load_image(image)
        core = machine.cores[0]
        fired = []
        core.enable_sampling(100, lambda c: fired.append(c.cycles), overhead=50)
        core.start(image.base)
        Scheduler(machine.cores).run_until_halt(100_000)
        assert len(fired) >= 9
        assert core.cycles >= 50 * len(fired)
        core.disable_sampling()
        assert core.sample_interval == 0


#: the faulting instruction sits predicated off in a hot loop and is
#: switched on in iteration 10 — long after a JIT-on core has tried to
#: compile the loop (and refused: hardwired destinations, ``br.ret``),
#: so both modes must fault in the same state
_FAULT_LOOP = """
mov ar.lc=20
mov r8=0
.loop:
add r8=1,r8
cmp.eq p6,p7=r8,r9
{{
(p6) mov r5=7
(p6) {faulting}
(p6) mov r6=9
}}
br.cloop.sptk .loop
halt
"""

#: (faulting instruction, exception, message, what the fault left behind)
FAULTS = [
    # the prefetch is issued, then its post-increment finds r0
    ("lfetch [r0],8", RegisterError, "r0 is read-only",
     lambda regs, ev, a: ev.prefetches == 1 and regs.gr[0] == 0),
    # the load is issued and read; r0 faults before the post-increment
    ("ld8 r0=[r4],8", RegisterError, "r0 is read-only",
     lambda regs, ev, a: ev.loads == 1 and regs.gr[0] == 0 and regs.read_gr(4) == a),
    ("ldfd f1=[r4],8", RegisterError, "f1 is read-only",
     lambda regs, ev, a: ev.loads == 1 and regs.fr[1] == 1.0 and regs.read_gr(4) == a),
    ("setf f0=r4", RegisterError, "f0 is read-only",
     lambda regs, ev, a: regs.fr[0] == 0.0),
    ("getf r0=f1", RegisterError, "r0 is read-only",
     lambda regs, ev, a: regs.gr[0] == 0),
    # the first compare target is written before the second is looked at
    ("cmp.eq p10,p0=r0,r0", RegisterError, "p0 is read-only",
     lambda regs, ev, a: regs.read_pr(10) and regs.pr[0] is True),
    ("cmp.eq p0,p10=r0,r0", RegisterError, "p0 is read-only",
     lambda regs, ev, a: not regs.read_pr(10) and regs.pr[0] is True),
    ("br.ret", SimulationFault, "br.ret with empty call stack",
     lambda regs, ev, a: True),
]


class TestFaultOrder:
    """Every fault leaves the writes that preceded it, and nothing else."""

    @pytest.mark.parametrize("jit", (True, False), ids=("jit", "interp"))
    @pytest.mark.parametrize("row", FAULTS, ids=[row[0] for row in FAULTS])
    def test_fault_leaves_the_earlier_writes(self, smp2, row, jit):
        faulting, error, message, left = row
        machine = smp2
        a = machine.mem.alloc("a", 128).base
        image = assemble(_FAULT_LOOP.format(faulting=faulting))
        machine.load_image(image)
        core = machine.cores[0]
        core.jit_enabled = jit
        core.regs.write_gr(4, a)
        core.regs.write_gr(9, 10)
        core.start(image.base)
        with pytest.raises(error, match=message) as caught:
            Scheduler(machine.cores).run_until_halt(10_000)
        regs = core.regs
        # nine whole iterations, then the faulting bundle's first slot
        assert regs.read_gr(8) == 10 and regs.lc == 11
        assert regs.read_gr(5) == 7 and regs.read_gr(6) == 0
        assert left(regs, machine.caches[0].events, a)
        # the faulting bundle did not retire: the core still points at it
        bundle = core.pc
        assert image.bundles[bundle].slots[0].r1 == 5
        if error is SimulationFault:
            assert (caught.value.pc, caught.value.cpu) == (bundle, 0)

    @pytest.mark.parametrize("jit", (True, False), ids=("jit", "interp"))
    def test_mid_bundle_entry_skips_the_earlier_slots(self, jit):
        machine = Machine(itanium2_smp(1))
        image = assemble(
            "{\nmov r5=7\nmov r6=8\nmov r7=9\n}\n"
            "{\nmov r10=1\nmov r11=2\nbr.ret\n}\n"
        )
        machine.load_image(image)
        core = machine.cores[0]
        core.jit_enabled = jit
        core.start(image.base + 1)
        assert core.run(1) == 1
        assert [core.regs.read_gr(r) for r in (5, 6, 7)] == [0, 8, 9]
        assert (core.pc, core.retired) == (image.base + 16, 2)
        # a fault names the slot the bundle was entered at
        core.pc += 2
        with pytest.raises(SimulationFault, match="empty call stack") as caught:
            core.run(1)
        assert caught.value.pc == image.base + 18
        assert [core.regs.read_gr(r) for r in (10, 11)] == [0, 0]
        assert (core.pc, core.retired) == (image.base + 18, 2)


class TestSlices:
    """``run`` resumes one suspended body per core, slice after slice:
    what may change between two slices must take effect at the next."""

    FAULT_SRC = (
        "mov ar.lc=60\n.loop:\nadd r1=1,r1\nbr.cloop.sptk .loop\nbr.ret\n"
        ".back:\nadd r2=1,r2\nhalt\n"
    )

    @pytest.mark.parametrize("jit", (True, False), ids=("jit", "interp"))
    def test_a_fault_mid_slice_publishes_and_the_core_reenters(self, jit):
        machine = Machine(itanium2_smp(1))
        image = assemble(self.FAULT_SRC)
        machine.load_image(image)
        core = machine.cores[0]
        core.jit_enabled = jit
        core.start(image.base)
        with pytest.raises(SimulationFault, match="empty call stack") as caught:
            core.run(512)
        # the loop ran (compiled, with the JIT on) and the faulting
        # bundle did not retire: the core points at it
        assert caught.value.pc == core.pc == image.base + 0x20
        assert (core.cycles, core.retired, core.bundles_executed) == (31, 186, 62)
        assert core.trace_jit.compiled_bundles == (58 if jit else 0)
        core.call_stack.append(image.labels[".back"])
        assert core.run(512) == 2 and core.halted
        assert core.regs.read_gr(2) == 1
        assert (core.cycles, core.retired, core.bundles_executed) == (32, 191, 64)

    def test_flags_and_a_validator_take_effect_at_the_next_slice(self):
        machine = Machine(itanium2_smp(1))
        image = assemble(
            "mov ar.lc=400\n.loop:\nld8 r3=[r4]\nadd r1=1,r1\nadd r2=1,r2\n"
            "add r5=1,r5\nbr.cloop.sptk .loop\nhalt\n"
        )
        machine.load_image(image)
        core = machine.cores[0]
        core.jit_enabled = core.osr_enabled = True
        core.regs.write_gr(4, machine.mem.alloc("d", 128).base)
        core.start(image.base)
        tjit = core.trace_jit

        def entries_in_a_slice():
            before = tjit.entries
            assert core.run(20) == 20
            return tjit.entries - before

        while not tjit.traces:
            entries_in_a_slice()
        assert entries_in_a_slice() > 0
        core.jit_enabled = False
        assert entries_in_a_slice() == 0
        core.jit_enabled = True
        assert entries_in_a_slice() > 0
        assert len(tjit.dispatch) > len(tjit.traces)    # every covered bundle
        core.osr_enabled = False
        entries_in_a_slice()
        assert tjit.osr is False and set(tjit.dispatch) == set(tjit.traces)
        seen = []

        class Recorder:
            def after_access(self, cache, line, kind):
                seen.append(line)

            def on_evict(self, *args):
                pass

        machine.attach_validator(Recorder())
        assert entries_in_a_slice() == 0 and seen
        machine.detach_validator()
        assert entries_in_a_slice() > 0
