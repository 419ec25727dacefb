"""Trace-compilation fast path: equivalence, patch-under-trace, invalidation.

The compiled fast path is an *optimization*, never a semantics change:
every test here runs the same program with the JIT enabled and disabled
and demands bit-identical architectural state — registers, predicates,
loop counters, cycle/retirement counters, branch history.  The
patch-under-trace tests drive the contract COBRA's live rewriting
relies on: a patch landing inside a compiled loop must deoptimize it
via the decode journal before the stale trace can run again, and a
byte-identical rollback must restore the original behaviour exactly.
"""

from __future__ import annotations

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler
from repro.cpu.tracejit import (
    _OPERAND,
    _REG_OPS,
    DEOPT_REASONS,
    HOT_THRESHOLD,
    MAX_TRACE_BUNDLES,
)
from repro.isa import assemble
from repro.isa.instructions import Instruction, Op, operands
from repro.workloads import build_daxpy


def _arch_state(core):
    """Everything the generic interpreter and the fast path must agree on."""
    regs = core.regs
    return (
        tuple(regs.read_gr(r) for r in range(64)),
        tuple(regs.read_fr(f) for f in range(64)),
        tuple(regs.read_pr(p) for p in range(64)),
        regs.lc, regs.ec, regs.rrb_gr, regs.rrb_fr, regs.rrb_pr,
        core.pc, core.cycles, core.retired, core.bundles_executed,
        core.taken_branches, tuple(core.btb),
    )


def _run(src: str, jit: bool, osr: bool = True, interval: int = 0):
    machine = Machine(itanium2_smp(1))
    image = assemble(src)
    machine.load_image(image)
    core = machine.cores[0]
    core.jit_enabled = jit
    core.osr_enabled = jit and osr
    if interval:
        core.enable_sampling(interval, lambda c: None)
    core.start(image.base)
    Scheduler(machine.cores).run_until_halt(1_000_000)
    return core, machine


def _assert_equivalent(
    src: str, expect_compile: bool = True, expect_iters: bool = True
):
    ref, ref_machine = _run(src, jit=False)
    fast, fast_machine = _run(src, jit=True)
    assert _arch_state(ref) == _arch_state(fast)
    assert (
        ref_machine.aggregate_events().snapshot()
        == fast_machine.aggregate_events().snapshot()
    )
    assert ref.trace_jit.compiles == 0
    if expect_compile:
        stats = fast.trace_jit.stats()
        assert stats["compiles"] >= 1
        if expect_iters:  # linear-only coverage runs one-pass regions
            assert stats["iterations"] > 0
        assert stats["compiled_bundles"] > 0
    return fast


CTOP_SRC = """
clrrrb
alloc rot=8
mov pr.rot=0x10000
mov ar.lc=199
mov ar.ec=3
mov r1=0
mov r2=0
.loop:
(p16) add r1=1,r1
(p16) add r32=2,r1
(p18) add r2=1,r2
br.ctop.sptk .loop
halt
"""

CLOOP_SRC = """
mov ar.lc=299
mov r1=0
.loop:
add r1=2,r1
br.cloop.sptk .loop
halt
"""

WTOP_SRC = """
mov r1=0
mov r2=0
mov ar.ec=1
.loop:
cmp.lt p6,p7=r1,150
(p6) add r1=1,r1
(p6) add r2=3,r2
(p6) br.wtop.sptk .loop
halt
"""


class TestEquivalence:
    def test_ctop_pipeline_with_epilog(self):
        fast = _assert_equivalent(CTOP_SRC)
        assert fast.regs.read_gr(1) == 200

    def test_cloop(self):
        fast = _assert_equivalent(CLOOP_SRC)
        assert fast.regs.read_gr(1) == 600

    def test_wtop(self):
        fast = _assert_equivalent(WTOP_SRC)
        assert fast.regs.read_gr(1) == 150

    def test_every_register_op_row(self):
        # one instruction from every row of the emitter's op table
        src = """
        mov ar.lc=40
        mov r1=-7
        mov r2=3
        .loop:
        add r3=r1,r2
        add r1=5,r1
        sub r4=r3,r2
        mov r5=r4
        mov r6=-123456789
        and r7=r3,r2
        or r8=r3,r2
        xor r9=r3,r2
        shl r10=r3,59
        shr r11=r10,2
        shladd r12=r3,2,r1
        setf f2=r3
        fabs f3=f2
        fmax f4=f2,f3
        fmax f5=f3,f2
        fma f6=f2,f3,f4
        fadd f7=f6,f2
        fsub f8=f7,f3
        fmul f9=f8,f2
        getf r13=f9
        cmp.lt p6,p7=r3,r2
        cmp.le p8,p9=r3,r2
        cmp.eq p10,p11=r3,r2
        cmp.ne p12,p13=r3,r2
        cmp.lt p14,p15=r3,3
        (p6) cmp.le p6,p7=r3,3
        (p9) cmp.eq p8,p9=r3,3
        (p12) cmp.ne p10,p11=r3,3
        (p14) add r14=1,r14
        br.cloop.sptk .loop
        halt
        """
        ops = {int(slot.op) for bundle in assemble(src).bundles.values()
               for slot in bundle.slots}
        assert ops >= set(_REG_OPS)
        fast = _assert_equivalent(src)
        assert fast.regs.read_fr(4) == fast.regs.read_fr(5) == 196.0

    def test_register_op_rows_name_the_isa_tables_operands(self):
        # the emitter keeps its own table (the value expressions are its
        # business); which file and field each operand names is the ISA's
        for op, (dest, value, _) in _REG_OPS.items():
            kinds = [kind.replace("r", "g") for kind in operands(Op(op))]
            written = dest.split()
            assert kinds[:len(written)] == written, Op(op).name
            assert set(kinds[len(written):]) == set(_OPERAND.findall(value)), Op(op).name

    def test_cold_loop_never_compiles(self):
        # fewer back-edges than the hot threshold: the generic
        # interpreter handles everything and nothing is compiled
        src = CLOOP_SRC.replace("ar.lc=299", f"ar.lc={HOT_THRESHOLD - 2}")
        fast = _assert_equivalent(src, expect_compile=False)
        assert fast.trace_jit.compiles == 0

    OVERLONG_SRC_TEMPLATE = (
        "mov ar.lc=99\nmov r1=0\n.loop:\n"
        "{filler}\nadd r1=1,r1\nbr.cloop.sptk .loop\nhalt\n"
    )

    def _overlong_src(self) -> str:
        filler = "\n".join(
            f"add r{2 + (i % 6)}=1,r{2 + (i % 6)}"
            for i in range(3 * (MAX_TRACE_BUNDLES + 2))
        )
        return self.OVERLONG_SRC_TEMPLATE.format(filler=filler)

    def test_overlong_loop_covered_by_linear_chain(self):
        # the body exceeds MAX_TRACE_BUNDLES, so no single loop trace
        # fits — with trace trees the prefix compiles as a linear node
        # and hot exit sites chain further linear nodes down the body
        fast = _assert_equivalent(self._overlong_src(), expect_iters=False)
        stats = fast.trace_jit.stats()
        assert stats["compiles"] >= 2
        assert stats["tree_links"] >= 1
        assert any(
            tr.kind == "linear" for tr in fast.trace_jit.traces.values()
        )

    def test_overlong_loop_osr_off_blacklisted_not_miscompiled(self):
        # without OSR/trees the pre-tree contract holds: the loop is
        # blacklisted and everything runs through the interpreter
        src = self._overlong_src()
        ref, ref_machine = _run(src, jit=False)
        fast, fast_machine = _run(src, jit=True, osr=False)
        assert _arch_state(ref) == _arch_state(fast)
        assert (
            ref_machine.aggregate_events().snapshot()
            == fast_machine.aggregate_events().snapshot()
        )
        assert fast.trace_jit.compiles == 0
        assert fast.trace_jit.blacklist

    def test_loop_compiled_before_an_alloc_runs_compiled_after_it(self):
        # the same counted loop twice, the second time under a rotating
        # region an `alloc` opened: a body that names no r32+ and rotates
        # nothing is the same code at any sor, so its one trace must serve
        # both passes — the head's hot counter is past the trigger by
        # then, so a trace refused here would never be compiled again
        src = """
        mov r2=0
        .outer:
        mov ar.lc=20
        .loop:
        add r1=1,r1
        br.cloop.sptk .loop
        alloc rot=8
        add r2=1,r2
        cmp.lt p6,p7=r2,2
        (p6) br.cond .outer
        halt
        """
        fast = _assert_equivalent(src)
        assert fast.regs.sor == 8 and fast.regs.read_gr(1) == 42
        # 21 iterations a pass; only the first pass's ramp is interpreted
        # (the HOT_THRESHOLD back-edges it takes to compile the loop)
        assert fast.trace_jit.compiled_bundles == 2 * 21 - HOT_THRESHOLD
        loops = [tr for tr in fast.trace_jit.traces.values() if tr.kind == "loop"]
        assert [(tr.sor, tr.sor_free) for tr in loops] == [(0, True)]

    def test_daxpy_memory_loop(self):
        # ld/st/float path through a real workload, end to end
        def run(jit):
            machine = Machine(itanium2_smp(2, scale=4))
            for core in machine.cores:
                core.jit_enabled = jit
            prog = build_daxpy(machine, 1024, 2, outer_reps=4)
            result = prog.run()
            return result, machine

        ref, _ = run(False)
        fast, machine = run(True)
        assert ref.cycles == fast.cycles
        assert ref.retired == fast.retired
        assert ref.events.snapshot() == fast.events.snapshot()
        assert sum(c.trace_jit.compiles for c in machine.cores) >= 1
        assert sum(c.trace_jit.iters for c in machine.cores) > 0


class _SplitRun:
    """Drive the same program through identical run-slice boundaries so a
    mid-run patch lands at the exact same bundle count with and without
    the JIT — the only way 'bit-identical' is even well-defined."""

    def __init__(self, src: str, jit: bool, osr: bool = True):
        self.machine = Machine(itanium2_smp(1))
        self.image = assemble(src)
        self.machine.load_image(self.image)
        self.core = self.machine.cores[0]
        self.core.jit_enabled = jit
        # pin OSR explicitly so the suite is REPRO_TRACE_JIT-independent
        self.core.osr_enabled = jit and osr
        self.core.start(self.image.base)

    def run(self, bundles: int):
        self.core.run(bundles)
        return self

    def finish(self):
        while not self.core.halted:
            self.core.run(65536)
        return self.core


def _patched_add(imm: int) -> Instruction:
    return Instruction(Op.ADDI, r1=1, r2=1, imm=imm)


class TestPatchUnderTrace:
    SRC = CLOOP_SRC  # body bundle: slot 0 `add r1=2,r1`, slot 1 back-edge

    def _loop_head(self, image) -> int:
        return image.labels[".loop"]

    def test_trace_resident_before_patch(self):
        run = _SplitRun(self.SRC, jit=True).run(120)
        head = self._loop_head(run.image)
        assert head in run.core.trace_jit.traces
        assert run.core.trace_jit.entries >= 1

    def test_patch_while_resident_deoptimizes_bit_identical(self):
        def scenario(jit):
            run = _SplitRun(self.SRC, jit=jit).run(120)
            run.image.patch_slot(
                self._loop_head(run.image), 0, _patched_add(5), reason="test"
            )
            return run, run.finish()

        run_fast, fast = scenario(True)
        _, ref = scenario(False)
        assert fast.trace_jit.invalidations >= 1
        assert _arch_state(ref) == _arch_state(fast)
        # prefix ran at +2/iter, the patched remainder at +5/iter
        assert fast.regs.read_gr(1) == ref.regs.read_gr(1)
        assert fast.regs.read_gr(1) > 0
        # after re-proving hot, the *patched* body compiles again
        assert fast.trace_jit.compiles >= 2

    def test_patch_plus_rollback_bit_identical(self):
        def scenario(jit):
            run = _SplitRun(self.SRC, jit=jit).run(120)
            head = self._loop_head(run.image)
            run.image.patch_slot(head, 0, _patched_add(9), reason="test")
            run.run(90)  # execute some patched iterations
            run.image.revert_patch(run.image.patches[-1])
            return run.finish()

        fast = scenario(True)
        ref = scenario(False)
        assert _arch_state(ref) == _arch_state(fast)
        # patch invalidated the original trace; the rollback invalidated
        # the recompiled patched trace in turn
        assert fast.trace_jit.invalidations >= 1

    def test_immediate_rollback_keeps_trace(self):
        # patch + byte-identical revert before any further execution:
        # the journal epoch bumps, but the content keys still match, so
        # the resident trace survives (no deopt, no recompile)
        run = _SplitRun(self.SRC, jit=True).run(120)
        head = self._loop_head(run.image)
        before = run.core.trace_jit.compiles
        run.image.patch_slot(head, 0, _patched_add(9), reason="test")
        run.image.revert_patch(run.image.patches[-1])
        core = run.finish()
        assert core.trace_jit.invalidations == 0
        assert core.trace_jit.compiles == before
        assert core.regs.read_gr(1) == 600  # identical to the unpatched run


class TestMultiVersionPatchCycle:
    """COBRA's multi-version dispatch patches the same loop head
    repeatedly: deploy (redirect on), rollback (redirect off), redeploy
    reusing the resident trace (the identical redirect re-applied).
    Every transition must deoptimize any compiled trace of the head via
    the decode journal and remain bit-identical to the interpreter."""

    SRC = CLOOP_SRC

    def _cycle(self, jit: bool):
        run = _SplitRun(self.SRC, jit=jit).run(120)
        head = run.image.labels[".loop"]
        run.image.patch_slot(head, 0, _patched_add(5), reason="deploy")
        run.run(90)                                  # patched body executes
        run.image.revert_patch(run.image.patches[-1])  # rollback
        run.run(90)                                  # untouched body again
        run.image.patch_slot(head, 0, _patched_add(5), reason="redeploy")
        return run.finish()

    def test_deploy_rollback_redeploy_bit_identical(self):
        fast = self._cycle(jit=True)
        ref = self._cycle(jit=False)
        assert _arch_state(ref) == _arch_state(fast)
        # the first patch invalidated the original compiled trace; the
        # rollback invalidated the patched one in turn
        assert fast.trace_jit.invalidations >= 1
        assert ref.trace_jit.invalidations == 0

    def test_final_patch_state_recompiles_hot(self):
        core = self._cycle(jit=True)
        assert core.halted
        # the re-patched body re-proved hot and compiled again after
        # the rollback invalidated it
        assert core.trace_jit.compiles >= 2


NESTED_SRC = """
mov r1=0
mov r2=0
mov r3=0
.outer:
mov ar.lc=24
.inner:
add r1=1,r1
br.cloop.sptk .inner
add r2=7,r2
add r2=1,r2
add r3=1,r3
cmp.lt p6,p7=r3,120
(p6) br.cond.sptk .outer
halt
"""


class TestTraceTrees:
    """Side-exit chaining: nested loops and epilogue regions become
    secondary trace nodes rooted at the first hot trace, and tree-wide
    invalidation treats the union of covered bundles as one validity
    domain."""

    def _grown_tree(self, bundles: int = 2000) -> _SplitRun:
        # ~30 bundles per outer iteration x 120 iterations: at 2000 the
        # tree (inner loop + epilogue + outer loop) is warm and the
        # program is still mid-flight, so patches land under live traces
        run = _SplitRun(NESTED_SRC, jit=True).run(bundles)
        assert not run.core.halted
        return run

    def test_nested_loop_grows_tree_bit_identical(self):
        fast = _assert_equivalent(NESTED_SRC)
        stats = fast.trace_jit.stats()
        # inner loop compiles from back-edge hotness; the drain
        # epilogue and the outer loop join via exit-site promotion
        assert stats["promotions"] >= 1
        assert stats["tree_links"] >= 1
        assert len(fast.trace_jit.traces) >= 2
        roots = {tr.root for tr in fast.trace_jit.traces.values()}
        assert len(roots) == 1  # one tree, rooted at the inner head
        assert stats["exit_sites"]  # per-site counters exposed

    def test_osr_off_still_compiles_inner_only(self):
        ref, _ = _run(NESTED_SRC, jit=False)
        fast, _ = _run(NESTED_SRC, jit=True, osr=False)
        assert _arch_state(ref) == _arch_state(fast)
        stats = fast.trace_jit.stats()
        assert stats["promotions"] == 0
        assert stats["osr_entries"] == 0
        assert all(
            tr.kind == "loop" for tr in fast.trace_jit.traces.values()
        )

    def test_patch_under_tree_deoptimizes_whole_tree(self):
        def scenario(jit):
            run = _SplitRun(NESTED_SRC, jit=jit).run(2000)
            # patch the *epilogue* adds — a bundle covered by promoted
            # nodes but not by the inner loop's own trace
            epi = run.image.labels[".inner"] + 16
            run.image.patch_slot(epi, 0, _patched_add(3), reason="test")
            return run, run.finish()

        run_fast, fast = scenario(True)
        _, ref = scenario(False)
        tjit = run_fast.core.trace_jit
        n_nodes = 3  # inner loop + epilogue + outer loop at minimum
        assert tjit.invalidations >= n_nodes
        # the inner loop's own bundles were untouched, yet its node died
        # with the tree (shared root => shared validity domain)
        assert _arch_state(ref) == _arch_state(fast)
        assert fast.regs.read_gr(1) == ref.regs.read_gr(1)

    def test_rollback_keeps_tree_resident(self):
        run = self._grown_tree()
        tjit = run.core.trace_jit
        resident = set(tjit.traces)
        assert len(resident) >= 2
        compiles = tjit.compiles
        epi = run.image.labels[".inner"] + 16
        run.image.patch_slot(epi, 0, _patched_add(3), reason="test")
        run.image.revert_patch(run.image.patches[-1])
        run.finish()
        # byte-identical rollback: epoch bumped, content keys match —
        # every node of the tree survives untouched
        assert tjit.invalidations == 0
        assert set(tjit.traces) >= resident
        assert tjit.compiles >= compiles


class TestOsrEntry:
    def test_sample_exit_reenters_mid_trace(self):
        # a sampling interrupt leaves the trace mid-body; with OSR the
        # next dispatch enters at that bundle instead of interpreting
        # back to the loop head
        ref, _ = _run(CTOP_SRC, jit=False, interval=37)
        fast, _ = _run(CTOP_SRC, jit=True, interval=37)
        assert _arch_state(ref) == _arch_state(fast)
        assert fast.trace_jit.osr_entries > 0

    def test_osr_off_never_enters_mid_trace(self):
        ref, _ = _run(CTOP_SRC, jit=False, interval=37)
        fast, _ = _run(CTOP_SRC, jit=True, osr=False, interval=37)
        assert _arch_state(ref) == _arch_state(fast)
        assert fast.trace_jit.osr_entries == 0

    def test_budget_exit_resumes_without_reprobe(self):
        def scenario(jit):
            run = _SplitRun(CLOOP_SRC, jit=jit)
            for _ in range(60):
                run.run(7)  # tiny slices force EXIT_BUDGET boundaries
            return run.core, run.finish()

        core, fast = scenario(True)
        _, ref = scenario(False)
        assert _arch_state(ref) == _arch_state(fast)
        stats = core.trace_jit.stats()
        assert stats["resume_hits"] > 0
        assert stats["deopts"]["budget"] >= stats["resume_hits"]


class TestObservability:
    def test_stats_shape_and_deopt_reasons(self):
        fast, _ = _run(CLOOP_SRC, jit=True)
        stats = fast.trace_jit.stats()
        assert set(stats) == {
            "compiles", "invalidations", "entries", "iterations",
            "compiled_bundles", "osr_entries", "tree_links",
            "resume_hits", "promotions", "evicted", "exit_sites",
            "deopts", "spin_forwards", "spin_iters_skipped",
            "line_runs", "line_run_iters", "line_run_chains", "rotated_runs",
        }
        assert set(stats["deopts"]) == set(DEOPT_REASONS)
        # the loop eventually exits through the back-edge falling through
        assert stats["deopts"]["loop-exit"] >= 1
        assert stats["iterations"] >= stats["entries"] > 0

    def test_exit_site_counters(self):
        fast, _ = _run(NESTED_SRC, jit=True)
        sites = fast.trace_jit.stats()["exit_sites"]
        assert sites
        assert all(
            isinstance(k, str) and "->" in k and v > 0
            for k, v in sites.items()
        )
