"""The interpreter core: one CPU executing bundles with a timing model.

Semantics are IA-64-flavoured: three slots per bundle, qualifying
predicates, register rotation driven by the modulo-scheduled loop
branches, non-blocking hinted prefetches, post-increment addressing.

Timing: one cycle per executed bundle plus memory stalls returned by
the CPU's cache hierarchy.  Absolute cycle counts are not meant to match
real hardware — every paper result is a normalized ratio (DESIGN.md §5).

Hot-path structure: bundles are fetched from a per-core
:class:`~repro.isa.decode.DecodeCache` — one dict lookup over all loaded
images, serving pre-decoded ``(op, qp, r1, r2, r3, r4, imm, excl)``
slot tuples — and register renaming is a lookup in the shared
:func:`~repro.isa.registers.rename_table` rows selected by the rename
bases, which live in locals together with the counters (published to
the core and its register file at every exit, fault, and sampling
interrupt).  Operand ranges are validated once at decode time; only
the hardwired registers (r0, f0, f1, p0) keep their write guards in the
interpreter.  The cache stays coherent with runtime patching through
the images' journaled versions, checked once per ``run()`` slice —
COBRA only patches between scheduler slices.

This loop is the reference the compiled traces are checked against
(``REPRO_TRACE_JIT=0``), and it executes only what no trace covers — a
few percent of a warm run's bundles (EXPERIMENTS.md "Interpreter
traffic") — so it is written to be short, not fast: every memory op
calls ``CpuCacheSystem.access_fn`` for timing and
:class:`~repro.memory.dram.MemorySystem` for data.  The L2-hit fast
path lives in ``CpuCacheSystem._access`` (authoritative) and in the
trace emitter's replica of it; the interpreter reaches it by call.

PMU hooks kept directly on the core for speed:

* ``retired`` / ``cycles`` — the base counters;
* ``btb`` — the last four (branch, target) pairs (Branch Trace Buffer);
* ``dear`` — the most recent data-miss event ``(pc, addr, latency)``
  whose latency exceeded ``dear_threshold`` (Data Event Address
  Register with latency filtering, paper §4);
* ``on_sample`` — callback fired every ``sample_interval`` retired
  instructions (the perfmon sampling interrupt).  The callback's cost
  on the monitored thread is charged via ``sample_overhead``.
"""

from __future__ import annotations

from typing import Callable

from ..config import env_value
from ..errors import RegisterError, SimulationFault
from ..isa.binary import BUNDLE_BYTES, BinaryImage
from ..isa.decode import DecodeCache
from ..isa.instructions import Op
from ..isa.registers import (
    FR_ROT_SIZE,
    FR_ROT_START,
    GR_ROT_START,
    PR_ROT_SIZE,
    PR_ROT_START,
    RegisterFile,
    rename_table,
)
from ..memory.dram import MemorySystem
from ..memory.hierarchy import (
    ATOMIC,
    LOAD,
    LOAD_BIAS,
    PREFETCH,
    PREFETCH_EXCL,
    STORE,
    CpuCacheSystem,
)
from .tracejit import EXIT_BUDGET, EXIT_SAMPLE, TraceJit

__all__ = ["Core"]


def _jit_defaults() -> tuple[bool, bool]:
    """(jit_enabled, osr_enabled) for a new core.

    Trace compilation is on by default; ``REPRO_TRACE_JIT=0`` forces
    every bundle through the generic interpreter (the differential
    harness uses this to prove the two paths bit-identical), and
    ``REPRO_TRACE_JIT=osr-off`` keeps the JIT but pins loop-head-only
    dispatch — no OSR entries, no trace trees, no closed-form spin-wait
    forwarding (CI regression bisection; the forwarding's oracle).
    """
    mode = env_value("REPRO_TRACE_JIT") or "1"
    return mode != "0", mode == "1"


# opcode constants hoisted for dispatch speed
_ADD = int(Op.ADD)
_ADDI = int(Op.ADDI)
_SUB = int(Op.SUB)
_MOV = int(Op.MOV)
_MOVI = int(Op.MOVI)
_AND = int(Op.AND)
_OR = int(Op.OR)
_XOR = int(Op.XOR)
_SHL = int(Op.SHL)
_SHR = int(Op.SHR)
_SHLADD = int(Op.SHLADD)
_CMP_LT = int(Op.CMP_LT)
_CMPI_LT = int(Op.CMPI_LT)
_CMPI_NE = int(Op.CMPI_NE)
_MOV_LC_IMM = int(Op.MOV_LC_IMM)
_MOV_LC_REG = int(Op.MOV_LC_REG)
_MOV_EC_IMM = int(Op.MOV_EC_IMM)
_ALLOC = int(Op.ALLOC)
_MOV_PR_ROT = int(Op.MOV_PR_ROT)
_LD8 = int(Op.LD8)
_ST8 = int(Op.ST8)
_LDFD = int(Op.LDFD)
_STFD = int(Op.STFD)
_LFETCH = int(Op.LFETCH)
_FMA = int(Op.FMA)
_FADD = int(Op.FADD)
_FSUB = int(Op.FSUB)
_FMUL = int(Op.FMUL)
_SETF = int(Op.SETF)
_GETF = int(Op.GETF)
_FABS = int(Op.FABS)
_FMAX = int(Op.FMAX)
_BR = int(Op.BR)
_BR_COND = int(Op.BR_COND)
_BR_CTOP = int(Op.BR_CTOP)
_BR_CLOOP = int(Op.BR_CLOOP)
_BR_WTOP = int(Op.BR_WTOP)
_BR_CALL = int(Op.BR_CALL)
_BR_RET = int(Op.BR_RET)
_HALT = int(Op.HALT)
_FETCHADD8 = int(Op.FETCHADD8)

_BTB_SIZE = 4

# 64-bit two's-complement wrap constants (match RegisterFile.write_gr)
_B63 = 1 << 63
_M64 = (1 << 64) - 1

_BMASK = ~(BUNDLE_BYTES - 1)
_SMASK = BUNDLE_BYTES - 1


class Core:
    """One simulated CPU (and the thread bound to it)."""

    __slots__ = (
        "cpu_id",
        "regs",
        "cache",
        "mem",
        "images",
        "pc",
        "cycles",
        "retired",
        "bundles_executed",
        "halted",
        "call_stack",
        "btb",
        "dear",
        "on_sample",
        "sample_interval",
        "sample_overhead",
        "_sample_countdown",
        "taken_branches",
        "bundles_per_cycle",
        "_issue_tick",
        "_dcache",
        "_tjit",
        "jit_enabled",
        "osr_enabled",
        "_resume",
    )

    def __init__(
        self,
        cpu_id: int,
        cache: CpuCacheSystem,
        mem: MemorySystem,
        bundles_per_cycle: int = 2,
    ) -> None:
        self.cpu_id = cpu_id
        self.regs = RegisterFile()
        self.cache = cache
        self.mem = mem
        self.images: list[BinaryImage] = []
        self._dcache = DecodeCache()
        self.pc = 0
        self.cycles = 0
        self.retired = 0
        self.bundles_executed = 0
        self.halted = True
        self.call_stack: list[int] = []
        self.btb: list[tuple[int, int]] = []
        self.dear: tuple[int, int, int] | None = None
        self.on_sample: Callable[["Core"], None] | None = None
        self.sample_interval = 0           # 0 -> sampling off
        self.sample_overhead = 0
        self._sample_countdown = 0
        self.taken_branches = 0
        # Itanium 2 disperses two bundles per cycle; issue cost is
        # accounted per bundle pair (memory stalls are charged in full)
        self.bundles_per_cycle = bundles_per_cycle
        self._issue_tick = 0
        self._tjit = TraceJit()
        self.jit_enabled, self.osr_enabled = _jit_defaults()
        # budget-exit resume hint: (tjit generation, pc, entry point);
        # lets the next slice re-enter the interrupted trace without a
        # dispatch re-probe (invalidation/eviction bumps the generation)
        self._resume: tuple | None = None

    # -- program control -----------------------------------------------------

    def add_image(self, image: BinaryImage) -> None:
        if image not in self.images:
            self.images.append(image)
        self._dcache.attach(image)

    @property
    def decode_cache(self) -> DecodeCache:
        """This core's decoded-bundle cache (exposed for audits/tests)."""
        return self._dcache

    @property
    def trace_jit(self) -> TraceJit:
        """This core's trace-compilation registry (audits/observability)."""
        return self._tjit

    def start(self, entry: int) -> None:
        """Point the core at ``entry`` and mark it runnable."""
        self.pc = entry
        self.halted = False

    def enable_sampling(
        self,
        interval: int,
        on_sample: Callable[["Core"], None],
        overhead: int = 0,
    ) -> None:
        self.sample_interval = interval
        self.on_sample = on_sample
        self.sample_overhead = overhead
        self._sample_countdown = interval

    def disable_sampling(self) -> None:
        self.sample_interval = 0
        self.on_sample = None

    # -- execution --------------------------------------------------------------

    def run(self, max_bundles: int, cycle_limit: int | None = None) -> int:
        """Execute up to ``max_bundles`` bundles; return how many ran.

        ``cycle_limit`` stops execution once ``self.cycles`` exceeds it —
        the scheduler uses this to keep all cores' clocks closely
        synchronized (time-ordered simulation), which is what makes
        shared-bus queueing physically meaningful.
        """
        if self.halted:
            return 0
        if cycle_limit is None:
            cycle_limit = 1 << 62
        dcache = self._dcache
        dmap = dcache.sync()
        dmap_get = dmap.get
        # Trace dispatch state.  sync() revalidates compiled traces
        # against the decode journal at the same once-per-slice cadence
        # the decoded map itself refreshes, so a patched bundle can
        # never execute through a stale trace (COBRA patches between
        # scheduler slices; within a slice both views are equally live).
        tjit = self._tjit if self.jit_enabled else None
        if tjit is not None:
            osr_on = self.osr_enabled
            if tjit.osr != osr_on:
                # flag flipped since the last slice (differ axes, CI
                # modes): republish entry points under the new policy
                tjit.osr = osr_on
                tjit._rebuild_dispatch()
            dispatch_get = tjit.sync(dcache).get
            hot = tjit.hot
            hot_get = hot.get
            jit_threshold = tjit.threshold
            sites = tjit.sites
            sites_get = sites.get
            # read after sync(): invalidation may have bumped it
            generation = tjit.generation
            resume = self._resume
            self._resume = None
            if resume is not None and resume[0] != generation:
                resume = None   # traces changed under the hint
        else:
            hot = None
        regs = self.regs
        grl = regs.gr
        frl = regs.fr
        prl = regs.pr
        fmaps = rename_table(128, FR_ROT_START, FR_ROT_SIZE)
        pmaps = rename_table(64, PR_ROT_START, PR_ROT_SIZE)
        cache = self.cache
        mem = self.mem
        mem_read_f64 = mem.read_f64
        mem_write_f64 = mem.write_f64
        mem_read_i64 = mem.read_i64
        mem_write_i64 = mem.write_i64
        btb = self.btb
        btb_append = btb.append
        call_stack = self.call_stack
        bundles_per_cycle = self.bundles_per_cycle
        executed = 0

        while True:
            # One pass per sampling interrupt.  Architectural and timing
            # state lives in locals while bundles execute and is
            # published by the one ``finally`` below — at the end of the
            # slice, at a fault, and before the sample handler runs.
            # The handler may charge cycles, re-arm sampling or attach a
            # validator, so everything it can touch is (re)loaded here.
            pc = self.pc
            cycles = self.cycles
            retired = self.retired
            bundles_executed = self.bundles_executed
            taken_branches = self.taken_branches
            issue_tick = self._issue_tick
            countdown = self._sample_countdown
            sampling = self.sample_interval
            lc = regs.lc
            ec = regs.ec
            sor = regs.sor
            rrb_gr = regs.rrb_gr
            rrb_fr = regs.rrb_fr
            rrb_pr = regs.rrb_pr
            gmaps = rename_table(128, GR_ROT_START, sor)
            cache_access = cache.access_fn
            # compiled traces inline the L2-hit path: legal only while
            # no validator has to see every access
            tracing = tjit is not None and cache.validator is None
            try:
                while executed < max_bundles and cycles <= cycle_limit:
                    if tracing:
                        if resume is not None:
                            # budget exit from the previous slice: the hint
                            # is single-use and pre-validated by generation
                            if resume[1] == pc:
                                ep = resume[2]
                                tjit.resume_hits += 1
                            else:
                                ep = dispatch_get(pc)
                            resume = None
                        else:
                            ep = dispatch_get(pc)
                        # a base a shrinking `alloc` left >= sor is read modulo
                        # sor here; a trace indexes its sor-row tables with it
                        if ep is not None and ep.trace.sor == sor and rrb_gr < (sor or 1):
                            tr = ep.trace
                            before = bundles_executed
                            (
                                pc, lc, ec, rrb_gr, rrb_fr, rrb_pr, cycles,
                                retired, bundles_executed, taken_branches,
                                issue_tick, countdown, executed, t_iters, flag,
                            ) = tr.fn(
                                self, cache, mem, grl, frl, prl, btb, lc, ec,
                                rrb_gr, rrb_fr, rrb_pr, cycles, retired,
                                bundles_executed, taken_branches, issue_tick,
                                countdown, sampling, executed, max_bundles,
                                cycle_limit, ep.idx, tr.head,
                            )
                            tjit.entries += 1
                            tr.last_used = tjit.entries
                            if ep.idx:
                                tjit.osr_entries += 1
                            tjit.iters += t_iters
                            tjit.compiled_bundles += bundles_executed - before
                            tjit.deopts[flag] += 1
                            if flag == EXIT_SAMPLE:
                                # the trace retired a bundle that expired
                                # the sampling countdown
                                break
                            if flag == EXIT_BUDGET:
                                # the slice ends here; remember the probe so
                                # the next slice resumes without paying it
                                nep = dispatch_get(pc)
                                if nep is not None:
                                    self._resume = (generation, pc, nep)
                            elif osr_on:
                                # architectural exit (loop/side/link): count
                                # the (head, target) site; a hot site grows
                                # the trace tree at the target
                                site = (tr.head, pc)
                                n = sites_get(site, 0) + 1
                                sites[site] = n
                                if n == jit_threshold:
                                    tjit.promote(
                                        tr, pc, dmap, dcache.keys, sor,
                                        bundles_per_cycle,
                                    )
                                if dispatch_get(pc) is not None:
                                    tjit.tree_links += 1
                            continue
                    base = pc & _BMASK
                    decoded = dmap_get(base)
                    if decoded is None:
                        raise SimulationFault(
                            "no code at address", pc=base, cpu=self.cpu_id
                        )
                    slot = pc & _SMASK
                    n_total = decoded[0]
                    entries = decoded[1]
                    if slot:  # mid-bundle entry (rare: branch targets are slot 0)
                        entries = tuple(e for e in entries if e[0] >= slot)
                    target = None
                    stall = 0
                    # logical -> physical register numbers under the
                    # current rename bases (refreshed after an in-bundle
                    # rotation, clrrrb or alloc)
                    gm = gmaps[rrb_gr % len(gmaps)]
                    fm = fmaps[rrb_fr]
                    pm = pmaps[rrb_pr]
                    for idx, op, qp, r1, r2, r3, r4, imm, excl in entries:
                        # predicated off; br.wtop still evaluates (below)
                        if qp and not prl[pm[qp]] and op != _BR_WTOP:
                            continue
                        if op <= _SHLADD:
                            # integer ALU: gr[r1] = f(gr[r2], gr[r3] | imm)
                            a = grl[gm[r2]]
                            if op == _ADD:
                                v = a + grl[gm[r3]]
                            elif op == _ADDI:
                                v = a + imm
                            elif op == _SUB:
                                v = a - grl[gm[r3]]
                            elif op == _MOV:
                                v = a
                            elif op == _MOVI:
                                v = imm
                            elif op == _AND:
                                v = a & grl[gm[r3]]
                            elif op == _OR:
                                v = a | grl[gm[r3]]
                            elif op == _XOR:
                                v = a ^ grl[gm[r3]]
                            elif op == _SHL:
                                v = a << imm
                            elif op == _SHR:
                                v = a >> imm
                            else:
                                v = (a << imm) + grl[gm[r3]]
                            if not r1:
                                raise RegisterError("r0 is read-only")
                            grl[gm[r1]] = ((v + _B63) & _M64) - _B63
                        elif op <= _CMPI_NE:
                            # compares: (pr[r1], pr[r2]) = (c, not c);
                            # CMPI_xx sits four above CMP_xx
                            a = grl[gm[r3]]
                            b = imm if op >= _CMPI_LT else grl[gm[r4]]
                            rel = (op - _CMP_LT) & 3
                            if rel == 0:
                                c = a < b
                            elif rel == 1:
                                c = a <= b
                            elif rel == 2:
                                c = a == b
                            else:
                                c = a != b
                            if not r1:
                                raise RegisterError("p0 is read-only")
                            prl[pm[r1]] = c
                            if not r2:
                                raise RegisterError("p0 is read-only")
                            prl[pm[r2]] = not c
                        elif op <= _MOV_PR_ROT:
                            # application registers / SWP setup
                            if op == _MOV_LC_IMM:
                                lc = imm
                            elif op == _MOV_LC_REG:
                                lc = grl[gm[r2]]
                            elif op == _MOV_EC_IMM:
                                ec = imm
                            elif op == _MOV_PR_ROT:
                                # note: writes physical rotating predicates
                                # (rrb-independent only when rrb is 0, which
                                # is how compilers use it)
                                mask = int(imm)
                                for i in range(16, 64):
                                    prl[i] = bool(mask & (1 << i))
                            else:
                                if op == _ALLOC:
                                    regs.alloc_rotating(imm)
                                    sor = regs.sor
                                    gmaps = rename_table(128, GR_ROT_START, sor)
                                else:  # clrrrb
                                    rrb_gr = rrb_fr = rrb_pr = 0
                                gm = gmaps[rrb_gr % len(gmaps)]
                                fm = fmaps[rrb_fr]
                                pm = pmaps[rrb_pr]
                        elif op <= _LFETCH:
                            # memory: timing from the cache hierarchy, data
                            # from the backing store, one post-increment
                            a = grl[gm[r2]]
                            if op == _LFETCH:
                                # non-blocking: never stalls the issuer
                                cache_access(
                                    cycles, a, PREFETCH_EXCL if excl else PREFETCH
                                )
                            else:
                                if op == _ST8 or op == _STFD:
                                    kind = STORE
                                else:
                                    kind = LOAD_BIAS if excl else LOAD
                                stall += cache_access(cycles, a, kind)
                                dp = cache.dear_pending
                                if dp is not None:
                                    self.dear = (base + idx, a, dp)
                                    cache.dear_pending = None
                                if op == _LD8:
                                    v = mem_read_i64(a)
                                    if not r1:
                                        raise RegisterError("r0 is read-only")
                                    grl[gm[r1]] = v
                                elif op == _LDFD:
                                    v = mem_read_f64(a)
                                    if r1 < 2:
                                        raise RegisterError(f"f{r1} is read-only")
                                    frl[fm[r1]] = v
                                elif op == _ST8:
                                    mem_write_i64(a, grl[gm[r3]])
                                else:
                                    mem_write_f64(a, frl[fm[r3]])
                            if imm:
                                if not r2:
                                    raise RegisterError("r0 is read-only")
                                grl[gm[r2]] = ((a + imm + _B63) & _M64) - _B63
                        elif op == _GETF:
                            # the one op of the FP range that writes a GR
                            v = int(frl[fm[r2]])
                            if not r1:
                                raise RegisterError("r0 is read-only")
                            grl[gm[r1]] = ((v + _B63) & _M64) - _B63
                        elif op <= _FMAX:
                            # floating point: fr[r1] = f(fr[r2], fr[r3], fr[r4])
                            if op == _SETF:
                                v = float(grl[gm[r2]])
                            else:
                                a = frl[fm[r2]]
                                if op == _FMA:
                                    v = a * frl[fm[r3]] + frl[fm[r4]]
                                elif op == _FADD:
                                    v = a + frl[fm[r3]]
                                elif op == _FSUB:
                                    v = a - frl[fm[r3]]
                                elif op == _FMUL:
                                    v = a * frl[fm[r3]]
                                elif op == _FABS:
                                    v = abs(a)
                                else:  # fmax
                                    b = frl[fm[r3]]
                                    v = a if a >= b else b
                            if r1 < 2:
                                raise RegisterError(f"f{r1} is read-only")
                            frl[fm[r1]] = v
                        elif op <= _BR_RET:
                            # branches only decide ``target``; the taken-
                            # branch bookkeeping follows the slot loop
                            if op == _BR or op == _BR_COND:
                                # guard already passed (qp true) -> taken
                                target = imm
                            elif op == _BR_CLOOP:
                                if lc > 0:
                                    lc -= 1
                                    target = imm
                            elif op == _BR_CALL:
                                call_stack.append(base + BUNDLE_BYTES)
                                target = imm
                            elif op == _BR_RET:
                                if not call_stack:
                                    raise SimulationFault(
                                        "br.ret with empty call stack",
                                        pc=base + slot,
                                        cpu=self.cpu_id,
                                    )
                                target = call_stack.pop()
                            else:
                                # br.ctop / br.wtop: continue while the
                                # count (ctop) or the branch predicate
                                # (wtop: qp, not a guard) holds, then drain
                                # EC epilog stages; rotate either way
                                stage = False
                                if op == _BR_CTOP and lc > 0:
                                    lc -= 1
                                    stage = True
                                    target = imm
                                elif op == _BR_WTOP and prl[pm[qp]]:
                                    target = imm
                                elif ec > 1:
                                    ec -= 1
                                    target = imm
                                elif ec > 0:
                                    ec -= 1
                                if sor:
                                    rrb_gr = (rrb_gr - 1) % sor
                                rrb_fr = (rrb_fr - 1) % FR_ROT_SIZE
                                rrb_pr = (rrb_pr - 1) % PR_ROT_SIZE
                                prl[PR_ROT_START + rrb_pr] = stage
                                gm = gmaps[rrb_gr % len(gmaps)]
                                fm = fmaps[rrb_fr]
                                pm = pmaps[rrb_pr]
                            if target is not None:
                                break
                        elif op == _HALT:
                            self.halted = True
                            retired += idx + 1 - slot
                            cycles += 1 + stall
                            bundles_executed += 1
                            return executed + 1
                        elif op == _FETCHADD8:
                            a = grl[gm[r2]]
                            stall += cache_access(cycles, a, ATOMIC)
                            old = mem_read_i64(a)
                            mem_write_i64(a, old + imm)
                            if not r1:
                                raise RegisterError("r0 is read-only")
                            grl[gm[r1]] = old
                        else:  # pragma: no cover - defensive
                            raise SimulationFault(
                                f"illegal opcode {op}", pc=base + slot, cpu=self.cpu_id
                            )

                    # architectural slots this bundle retired: everything
                    # up to the taken branch, or the whole (possibly
                    # partial) bundle — NOP padding retires without being
                    # iterated
                    if target is None:
                        n_slots = n_total - slot
                        pc = base + BUNDLE_BYTES
                    else:
                        n_slots = idx + 1 - slot
                        pc = target
                        taken_branches += 1
                        btb_append((base + idx, target))
                        if len(btb) > _BTB_SIZE:
                            del btb[0]
                        # loop back-edges arm their head for compilation;
                        # so do backward conditional branches (spin-waits,
                        # compiler-generated outer loops)
                        if hot is not None and (
                            _BR_CTOP <= op <= _BR_WTOP
                            or op == _BR_COND and target <= base
                        ):
                            hits = hot_get(target, 0) + 1
                            hot[target] = hits
                            if hits == jit_threshold:
                                tjit.compile(
                                    target, dmap, dcache.keys, sor,
                                    bundles_per_cycle,
                                )
                    retired += n_slots
                    issue_tick += 1
                    if issue_tick >= bundles_per_cycle:
                        issue_tick = 0
                        cycles += 1 + stall
                    else:
                        cycles += stall
                    bundles_executed += 1
                    executed += 1
                    if sampling:
                        countdown -= n_slots
                        if countdown <= 0:
                            break
                else:
                    return executed
                # sampling interrupt (generic and EXIT_SAMPLE paths alike):
                # re-arm the countdown and charge the handler's cost on
                # the monitored thread before it observes the state
                countdown = sampling
                cycles += self.sample_overhead
            finally:
                self.pc = pc
                self.cycles = cycles
                self.retired = retired
                self.bundles_executed = bundles_executed
                self.taken_branches = taken_branches
                self._issue_tick = issue_tick
                self._sample_countdown = countdown
                regs.lc = lc
                regs.ec = ec
                regs.rrb_gr = rrb_gr
                regs.rrb_fr = rrb_fr
                regs.rrb_pr = rrb_pr
            self.on_sample(self)  # type: ignore[misc]
