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
slot tuples — and the register-rename arithmetic of
:class:`~repro.isa.registers.RegisterFile` is inlined with the rename
bases held in locals (synced back to the register file at every exit,
fault, and sampling interrupt).  Operand ranges are validated once at
decode time; only the hardwired registers (r0, f0, f1, p0) keep their
write guards in the interpreter.  The cache stays coherent with runtime
patching through the images' journaled versions, checked once per
``run()`` slice — COBRA only patches between scheduler slices.

Two memory fast paths are additionally inlined into the interpreter
loop (both are exact replicas of the slow path's hit case, which stays
authoritative): an L2-hit check against the cache's own tag-array set
dicts, active only while no invariant validator is attached (the same
condition that binds ``CpuCacheSystem.access_fn``), and the functional
DRAM transfer via the backing ndarray's ``item``/``__setitem__`` with
the in-range/aligned test done locally — out-of-range or unaligned
addresses fall back to :class:`~repro.memory.dram.MemorySystem` for its
precise errors.

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
from ..isa.registers import RegisterFile
from ..memory.address import LINE_SHIFT
from ..memory.coherence import MODIFIED, SHARED
from ..memory.dram import DATA_BASE, MemorySystem
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
_NOP = int(Op.NOP)
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
_CMP_LE = int(Op.CMP_LE)
_CMP_EQ = int(Op.CMP_EQ)
_CMP_NE = int(Op.CMP_NE)
_CMPI_LT = int(Op.CMPI_LT)
_CMPI_LE = int(Op.CMPI_LE)
_CMPI_EQ = int(Op.CMPI_EQ)
_CMPI_NE = int(Op.CMPI_NE)
_MOV_LC_IMM = int(Op.MOV_LC_IMM)
_MOV_LC_REG = int(Op.MOV_LC_REG)
_MOV_EC_IMM = int(Op.MOV_EC_IMM)
_ALLOC = int(Op.ALLOC)
_CLRRRB = int(Op.CLRRRB)
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
            dispatch = tjit.sync(dcache)
            dispatch_get = dispatch.get
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
            dispatch_get = None
            hot = None
            osr_on = False
            resume = None
        regs = self.regs
        grl = regs.gr
        frl = regs.fr
        prl = regs.pr
        lc = regs.lc
        ec = regs.ec
        sor = regs.sor
        sor32 = 32 + sor
        rrb_gr = regs.rrb_gr
        rrb_fr = regs.rrb_fr
        rrb_pr = regs.rrb_pr
        cache = self.cache
        cache_access = cache.access_fn
        # Inline L2-hit fast path, mirroring ``CpuCacheSystem._access``'s
        # (same transitions, same ``l2_hit`` charge; the del/re-insert is
        # the LRU promotion).  Bound to the no-validator condition exactly
        # like ``access_fn``, and re-read after every sample callback.
        # During this core's slice only this core mutates its own L2
        # (snoops go to *other* caches), so the hoisted refs stay live;
        # ``CacheArray.clear`` empties the set dicts in place.
        fast_mem = cache.validator is None
        if fast_mem:
            l2_sets = cache._l2_sets
            l2_nsets = cache._l2_nsets
            l2_hit_lat = cache._l2_hit
            line_state = cache.state
            l2_dirty = cache.l2_dirty
            mem_events = cache.events
        mem = self.mem
        mem_read_f64 = mem.read_f64
        mem_write_f64 = mem.write_f64
        mem_read_i64 = mem.read_i64
        mem_write_i64 = mem.write_i64
        # Functional data access inlined: the in-range/aligned check runs
        # here and the ndarray ``item``/``__setitem__`` bound methods do
        # the transfer (``item`` yields a Python scalar, same as the
        # ``float()``/``int()`` in MemorySystem); out-of-range or
        # unaligned addresses fall back to the wrappers for their
        # precise errors.  The backing arrays are created once in
        # MemorySystem.__init__ and never rebound.
        mem_cap = mem.capacity
        mem_f64_item = mem._f64.item
        mem_f64_set = mem._f64.__setitem__
        mem_i64_item = mem._i64.item
        mem_i64_set = mem._i64.__setitem__
        btb = self.btb
        btb_append = btb.append
        call_stack = self.call_stack
        bundles_per_cycle = self.bundles_per_cycle
        pc = self.pc
        cycles = self.cycles
        retired = self.retired
        bundles_executed = self.bundles_executed
        taken_branches = self.taken_branches
        issue_tick = self._issue_tick
        countdown = self._sample_countdown
        # only the sample handler can change the interval mid-run, and
        # the reload block below re-reads it after every callback
        sampling = self.sample_interval
        executed = 0

        try:
            while executed < max_bundles and cycles <= cycle_limit:
                if dispatch_get is not None and fast_mem:
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
                    if ep is not None and ep.trace.sor == sor:
                        tr = ep.trace
                        fn = ep.fn
                        if fn is None:
                            # first entry at this mid-trace index: build
                            # the OSR suffix closure (cached thereafter)
                            fn = tjit.materialize(ep)
                        before = bundles_executed
                        (
                            pc, lc, ec, rrb_gr, rrb_fr, rrb_pr, cycles,
                            retired, bundles_executed, taken_branches,
                            issue_tick, countdown, executed, t_iters, flag,
                        ) = fn(
                            self, cache, mem, grl, frl, prl, btb, lc, ec,
                            rrb_gr, rrb_fr, rrb_pr, cycles, retired,
                            bundles_executed, taken_branches, issue_tick,
                            countdown, sampling, executed, max_bundles,
                            cycle_limit,
                        )
                        tjit.entries += 1
                        tr.last_used = tjit.entries
                        if ep.idx:
                            tjit.osr_entries += 1
                        tjit.iters += t_iters
                        tjit.compiled_bundles += bundles_executed - before
                        tjit.deopts[flag] += 1
                        if flag == EXIT_SAMPLE:
                            # the trace retired a bundle that expired the
                            # sampling countdown: fire the PMU interrupt
                            # exactly as the generic path below does
                            countdown = sampling
                            cycles += self.sample_overhead
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
                            pc = self.pc
                            cycles = self.cycles
                            retired = self.retired
                            bundles_executed = self.bundles_executed
                            taken_branches = self.taken_branches
                            issue_tick = self._issue_tick
                            countdown = self._sample_countdown
                            sampling = self.sample_interval
                            fast_mem = cache.validator is None
                            if fast_mem:
                                l2_sets = cache._l2_sets
                                l2_nsets = cache._l2_nsets
                                l2_hit_lat = cache._l2_hit
                                line_state = cache.state
                                l2_dirty = cache.l2_dirty
                                mem_events = cache.events
                            cache_access = cache.access_fn
                            lc = regs.lc
                            ec = regs.ec
                            sor = regs.sor
                            sor32 = 32 + sor
                            rrb_gr = regs.rrb_gr
                            rrb_fr = regs.rrb_fr
                            rrb_pr = regs.rrb_pr
                        elif flag == EXIT_BUDGET:
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
                taken = False
                stall = 0
                if slot:  # mid-bundle entry (rare: branch targets are slot 0)
                    entries = tuple(e for e in entries if e[0] >= slot)
                for idx, op, qp, r1, r2, r3, r4, imm, excl in entries:
                    if qp:
                        pv = (
                            prl[qp]
                            if qp < 16
                            else prl[16 + (qp - 16 + rrb_pr) % 48]
                        )
                        # predicated off; br.wtop still evaluates (below)
                        if not pv and op != _BR_WTOP:
                            continue
                    if op == _LDFD:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        hit = fast_mem
                        if hit:
                            line = a >> LINE_SHIFT
                            lru = l2_sets[line % l2_nsets]
                            if line in lru:
                                mem_events.loads += 1
                                del lru[line]
                                lru[line] = None
                                stall += l2_hit_lat
                            else:
                                hit = False
                        if not hit:
                            stall += cache_access(cycles, a, LOAD)
                            dp = cache.dear_pending
                            if dp is not None:
                                self.dear = (base + idx, a, dp)
                                cache.dear_pending = None
                        off = a - DATA_BASE
                        if 0 <= off < mem_cap and not off & 7:
                            v = mem_f64_item(off >> 3)
                        else:
                            v = mem_read_f64(a)
                        if r1 < 32:
                            if r1 > 1:
                                frl[r1] = v
                            else:
                                raise RegisterError(f"f{r1} is read-only")
                        else:
                            frl[32 + (r1 - 32 + rrb_fr) % 96] = v
                        if imm:
                            na = ((a + imm + _B63) & _M64) - _B63
                            if r2 < 32 or r2 >= sor32:
                                if r2:
                                    grl[r2] = na
                                else:
                                    raise RegisterError("r0 is read-only")
                            else:
                                grl[32 + (r2 - 32 + rrb_gr) % sor] = na
                    elif op == _STFD:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        hit = fast_mem
                        if hit:
                            line = a >> LINE_SHIFT
                            lru = l2_sets[line % l2_nsets]
                            if line in lru:
                                st = line_state[line]
                                if st != SHARED:
                                    mem_events.stores += 1
                                    if st != MODIFIED:
                                        line_state[line] = MODIFIED
                                    l2_dirty.add(line)
                                    del lru[line]
                                    lru[line] = None
                                    stall += l2_hit_lat
                                else:
                                    hit = False
                            else:
                                hit = False
                        if not hit:
                            stall += cache_access(cycles, a, STORE)
                            dp = cache.dear_pending
                            if dp is not None:
                                self.dear = (base + idx, a, dp)
                                cache.dear_pending = None
                        v = (
                            frl[r3]
                            if r3 < 32
                            else frl[32 + (r3 - 32 + rrb_fr) % 96]
                        )
                        off = a - DATA_BASE
                        if 0 <= off < mem_cap and not off & 7:
                            mem_f64_set(off >> 3, v)
                        else:
                            mem_write_f64(a, v)
                        if imm:
                            na = ((a + imm + _B63) & _M64) - _B63
                            if r2 < 32 or r2 >= sor32:
                                if r2:
                                    grl[r2] = na
                                else:
                                    raise RegisterError("r0 is read-only")
                            else:
                                grl[32 + (r2 - 32 + rrb_gr) % sor] = na
                    elif op == _LFETCH:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        hit = fast_mem
                        if hit:
                            line = a >> LINE_SHIFT
                            lru = l2_sets[line % l2_nsets]
                            if line in lru and (
                                not excl or line_state[line] == MODIFIED
                            ):
                                mem_events.prefetches += 1
                                del lru[line]
                                lru[line] = None
                            else:
                                hit = False
                        if not hit:
                            cache_access(
                                cycles, a, PREFETCH_EXCL if excl else PREFETCH
                            )
                        if imm:
                            na = ((a + imm + _B63) & _M64) - _B63
                            if r2 < 32 or r2 >= sor32:
                                if r2:
                                    grl[r2] = na
                                else:
                                    raise RegisterError("r0 is read-only")
                            else:
                                grl[32 + (r2 - 32 + rrb_gr) % sor] = na
                    elif op == _FMA:
                        v = (
                            frl[r2] if r2 < 32 else frl[32 + (r2 - 32 + rrb_fr) % 96]
                        ) * (
                            frl[r3] if r3 < 32 else frl[32 + (r3 - 32 + rrb_fr) % 96]
                        ) + (
                            frl[r4] if r4 < 32 else frl[32 + (r4 - 32 + rrb_fr) % 96]
                        )
                        if r1 < 32:
                            if r1 > 1:
                                frl[r1] = v
                            else:
                                raise RegisterError(f"f{r1} is read-only")
                        else:
                            frl[32 + (r1 - 32 + rrb_fr) % 96] = v
                    elif op == _ADD:
                        v = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        ) + (
                            grl[r3]
                            if r3 < 32 or r3 >= sor32
                            else grl[32 + (r3 - 32 + rrb_gr) % sor]
                        )
                        v = ((v + _B63) & _M64) - _B63
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                    elif op == _ADDI:
                        v = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        ) + imm
                        v = ((v + _B63) & _M64) - _B63
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                    elif op == _LD8:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        hit = fast_mem and not excl
                        if hit:
                            line = a >> LINE_SHIFT
                            lru = l2_sets[line % l2_nsets]
                            if line in lru:
                                mem_events.loads += 1
                                del lru[line]
                                lru[line] = None
                                stall += l2_hit_lat
                            else:
                                hit = False
                        if not hit:
                            stall += cache_access(
                                cycles, a, LOAD_BIAS if excl else LOAD
                            )
                            dp = cache.dear_pending
                            if dp is not None:
                                self.dear = (base + idx, a, dp)
                                cache.dear_pending = None
                        off = a - DATA_BASE
                        if 0 <= off < mem_cap and not off & 7:
                            v = mem_i64_item(off >> 3)
                        else:
                            v = mem_read_i64(a)
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                        if imm:
                            na = ((a + imm + _B63) & _M64) - _B63
                            if r2 < 32 or r2 >= sor32:
                                if r2:
                                    grl[r2] = na
                                else:
                                    raise RegisterError("r0 is read-only")
                            else:
                                grl[32 + (r2 - 32 + rrb_gr) % sor] = na
                    elif op == _ST8:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        hit = fast_mem
                        if hit:
                            line = a >> LINE_SHIFT
                            lru = l2_sets[line % l2_nsets]
                            if line in lru:
                                st = line_state[line]
                                if st != SHARED:
                                    mem_events.stores += 1
                                    if st != MODIFIED:
                                        line_state[line] = MODIFIED
                                    l2_dirty.add(line)
                                    del lru[line]
                                    lru[line] = None
                                    stall += l2_hit_lat
                                else:
                                    hit = False
                            else:
                                hit = False
                        if not hit:
                            stall += cache_access(cycles, a, STORE)
                            dp = cache.dear_pending
                            if dp is not None:
                                self.dear = (base + idx, a, dp)
                                cache.dear_pending = None
                        v = (
                            grl[r3]
                            if r3 < 32 or r3 >= sor32
                            else grl[32 + (r3 - 32 + rrb_gr) % sor]
                        )
                        off = a - DATA_BASE
                        if 0 <= off < mem_cap and not off & 7:
                            # registers hold wrapped signed-64 values, but
                            # mirror write_i64's defensive wrap exactly
                            mem_i64_set(off >> 3, ((v + _B63) & _M64) - _B63)
                        else:
                            mem_write_i64(a, v)
                        if imm:
                            na = ((a + imm + _B63) & _M64) - _B63
                            if r2 < 32 or r2 >= sor32:
                                if r2:
                                    grl[r2] = na
                                else:
                                    raise RegisterError("r0 is read-only")
                            else:
                                grl[32 + (r2 - 32 + rrb_gr) % sor] = na
                    elif op == _BR_CTOP:
                        if lc > 0:
                            lc -= 1
                            if sor:
                                rrb_gr = (rrb_gr - 1) % sor
                            rrb_fr = (rrb_fr - 1) % 96
                            rrb_pr = (rrb_pr - 1) % 48
                            prl[16 + rrb_pr] = True
                            taken = True
                        elif ec > 1:
                            ec -= 1
                            if sor:
                                rrb_gr = (rrb_gr - 1) % sor
                            rrb_fr = (rrb_fr - 1) % 96
                            rrb_pr = (rrb_pr - 1) % 48
                            prl[16 + rrb_pr] = False
                            taken = True
                        else:
                            if ec > 0:
                                ec -= 1
                            if sor:
                                rrb_gr = (rrb_gr - 1) % sor
                            rrb_fr = (rrb_fr - 1) % 96
                            rrb_pr = (rrb_pr - 1) % 48
                            prl[16 + rrb_pr] = False
                        if taken:
                            pc = imm
                            taken_branches += 1
                            btb_append((base + idx, imm))
                            if len(btb) > _BTB_SIZE:
                                del btb[0]
                            if hot is not None:
                                hits = hot_get(imm, 0) + 1
                                hot[imm] = hits
                                if hits == jit_threshold:
                                    tjit.compile(
                                        imm, dmap, dcache.keys, sor,
                                        bundles_per_cycle,
                                    )
                            break
                    elif op == _BR_CLOOP:
                        if lc > 0:
                            lc -= 1
                            pc = imm
                            taken = True
                            taken_branches += 1
                            btb_append((base + idx, imm))
                            if len(btb) > _BTB_SIZE:
                                del btb[0]
                            if hot is not None:
                                hits = hot_get(imm, 0) + 1
                                hot[imm] = hits
                                if hits == jit_threshold:
                                    tjit.compile(
                                        imm, dmap, dcache.keys, sor,
                                        bundles_per_cycle,
                                    )
                            break
                    elif op == _BR_WTOP:
                        # qp is the *branch* predicate here, not a guard
                        if (
                            prl[qp]
                            if qp < 16
                            else prl[16 + (qp - 16 + rrb_pr) % 48]
                        ):
                            if sor:
                                rrb_gr = (rrb_gr - 1) % sor
                            rrb_fr = (rrb_fr - 1) % 96
                            rrb_pr = (rrb_pr - 1) % 48
                            prl[16 + rrb_pr] = False
                            taken = True
                        elif ec > 1:
                            ec -= 1
                            if sor:
                                rrb_gr = (rrb_gr - 1) % sor
                            rrb_fr = (rrb_fr - 1) % 96
                            rrb_pr = (rrb_pr - 1) % 48
                            prl[16 + rrb_pr] = False
                            taken = True
                        else:
                            if ec > 0:
                                ec -= 1
                            if sor:
                                rrb_gr = (rrb_gr - 1) % sor
                            rrb_fr = (rrb_fr - 1) % 96
                            rrb_pr = (rrb_pr - 1) % 48
                            prl[16 + rrb_pr] = False
                        if taken:
                            pc = imm
                            taken_branches += 1
                            btb_append((base + idx, imm))
                            if len(btb) > _BTB_SIZE:
                                del btb[0]
                            if hot is not None:
                                hits = hot_get(imm, 0) + 1
                                hot[imm] = hits
                                if hits == jit_threshold:
                                    tjit.compile(
                                        imm, dmap, dcache.keys, sor,
                                        bundles_per_cycle,
                                    )
                            break
                    elif op == _BR_COND:
                        # guard already passed (qp true) -> taken
                        pc = imm
                        taken = True
                        taken_branches += 1
                        btb_append((base + idx, imm))
                        if len(btb) > _BTB_SIZE:
                            del btb[0]
                        if hot is not None and imm <= base:
                            # backward conditional branch: spin-waits,
                            # compiler-generated outer loops — arm the
                            # target like a modulo-loop back-edge
                            hits = hot_get(imm, 0) + 1
                            hot[imm] = hits
                            if hits == jit_threshold:
                                tjit.compile(
                                    imm, dmap, dcache.keys, sor,
                                    bundles_per_cycle,
                                )
                        break
                    elif op == _BR:
                        pc = imm
                        taken = True
                        taken_branches += 1
                        btb_append((base + idx, imm))
                        if len(btb) > _BTB_SIZE:
                            del btb[0]
                        break
                    elif _CMP_LT <= op <= _CMPI_NE:
                        a = (
                            grl[r3]
                            if r3 < 32 or r3 >= sor32
                            else grl[32 + (r3 - 32 + rrb_gr) % sor]
                        )
                        if op >= _CMPI_LT:
                            b = imm
                            op -= 4  # CMPI_xx -> CMP_xx for one compare chain
                        else:
                            b = (
                                grl[r4]
                                if r4 < 32 or r4 >= sor32
                                else grl[32 + (r4 - 32 + rrb_gr) % sor]
                            )
                        if op == _CMP_LT:
                            c = a < b
                        elif op == _CMP_LE:
                            c = a <= b
                        elif op == _CMP_EQ:
                            c = a == b
                        else:
                            c = a != b
                        if r1 < 16:
                            if r1:
                                prl[r1] = c
                            else:
                                raise RegisterError("p0 is read-only")
                        else:
                            prl[16 + (r1 - 16 + rrb_pr) % 48] = c
                        if r2 < 16:
                            if r2:
                                prl[r2] = not c
                            else:
                                raise RegisterError("p0 is read-only")
                        else:
                            prl[16 + (r2 - 16 + rrb_pr) % 48] = not c
                    elif op == _MOV:
                        v = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                    elif op == _MOVI:
                        v = ((imm + _B63) & _M64) - _B63
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                    elif op == _SUB or op == _AND or op == _OR or op == _XOR:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        b = (
                            grl[r3]
                            if r3 < 32 or r3 >= sor32
                            else grl[32 + (r3 - 32 + rrb_gr) % sor]
                        )
                        if op == _SUB:
                            v = a - b
                        elif op == _AND:
                            v = a & b
                        elif op == _OR:
                            v = a | b
                        else:
                            v = a ^ b
                        v = ((v + _B63) & _M64) - _B63
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                    elif op == _SHL or op == _SHR or op == _SHLADD:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        if op == _SHL:
                            v = a << imm
                        elif op == _SHR:
                            v = a >> imm
                        else:
                            v = (a << imm) + (
                                grl[r3]
                                if r3 < 32 or r3 >= sor32
                                else grl[32 + (r3 - 32 + rrb_gr) % sor]
                            )
                        v = ((v + _B63) & _M64) - _B63
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                    elif op == _FADD or op == _FSUB or op == _FMUL or op == _FMAX:
                        a = frl[r2] if r2 < 32 else frl[32 + (r2 - 32 + rrb_fr) % 96]
                        b = frl[r3] if r3 < 32 else frl[32 + (r3 - 32 + rrb_fr) % 96]
                        if op == _FADD:
                            v = a + b
                        elif op == _FSUB:
                            v = a - b
                        elif op == _FMUL:
                            v = a * b
                        else:
                            v = a if a >= b else b
                        if r1 < 32:
                            if r1 > 1:
                                frl[r1] = v
                            else:
                                raise RegisterError(f"f{r1} is read-only")
                        else:
                            frl[32 + (r1 - 32 + rrb_fr) % 96] = v
                    elif op == _FABS:
                        v = abs(
                            frl[r2] if r2 < 32 else frl[32 + (r2 - 32 + rrb_fr) % 96]
                        )
                        if r1 < 32:
                            if r1 > 1:
                                frl[r1] = v
                            else:
                                raise RegisterError(f"f{r1} is read-only")
                        else:
                            frl[32 + (r1 - 32 + rrb_fr) % 96] = v
                    elif op == _SETF:
                        v = float(
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        if r1 < 32:
                            if r1 > 1:
                                frl[r1] = v
                            else:
                                raise RegisterError(f"f{r1} is read-only")
                        else:
                            frl[32 + (r1 - 32 + rrb_fr) % 96] = v
                    elif op == _GETF:
                        v = int(
                            frl[r2] if r2 < 32 else frl[32 + (r2 - 32 + rrb_fr) % 96]
                        )
                        v = ((v + _B63) & _M64) - _B63
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = v
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = v
                    elif op == _FETCHADD8:
                        a = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                        stall += cache_access(cycles, a, ATOMIC)
                        old = mem_read_i64(a)
                        mem_write_i64(a, old + imm)
                        if r1 < 32 or r1 >= sor32:
                            if r1:
                                grl[r1] = old
                            else:
                                raise RegisterError("r0 is read-only")
                        else:
                            grl[32 + (r1 - 32 + rrb_gr) % sor] = old
                    elif op == _MOV_LC_IMM:
                        lc = imm
                    elif op == _MOV_LC_REG:
                        lc = (
                            grl[r2]
                            if r2 < 32 or r2 >= sor32
                            else grl[32 + (r2 - 32 + rrb_gr) % sor]
                        )
                    elif op == _MOV_EC_IMM:
                        ec = imm
                    elif op == _ALLOC:
                        regs.alloc_rotating(imm)
                        sor = regs.sor
                        sor32 = 32 + sor
                    elif op == _MOV_PR_ROT:
                        mask = int(imm)
                        for i in range(16, 64):
                            prl[i] = bool(mask & (1 << i))
                        # note: writes physical rotating predicates
                        # (rrb-independent only when rrb is 0, which is
                        # how compilers use it)
                    elif op == _CLRRRB:
                        regs.clear_rrb()
                        rrb_gr = rrb_fr = rrb_pr = 0
                    elif op == _BR_CALL:
                        call_stack.append(base + BUNDLE_BYTES)
                        pc = imm
                        taken = True
                        taken_branches += 1
                        btb_append((base + idx, imm))
                        if len(btb) > _BTB_SIZE:
                            del btb[0]
                        break
                    elif op == _BR_RET:
                        if not call_stack:
                            raise SimulationFault(
                                "br.ret with empty call stack",
                                pc=base + slot,
                                cpu=self.cpu_id,
                            )
                        pc = call_stack.pop()
                        taken = True
                        taken_branches += 1
                        btb_append((base + idx, pc))
                        if len(btb) > _BTB_SIZE:
                            del btb[0]
                        break
                    elif op == _HALT:
                        self.halted = True
                        retired += idx + 1 - slot
                        cycles += 1 + stall
                        bundles_executed += 1
                        return executed + 1
                    else:  # pragma: no cover - defensive
                        raise SimulationFault(
                            f"illegal opcode {op}", pc=base + slot, cpu=self.cpu_id
                        )

                # architectural slots this bundle retired: everything up
                # to the taken branch, or the whole (possibly partial)
                # bundle — NOP padding retires without being iterated
                n_slots = (idx + 1 - slot) if taken else (n_total - slot)
                if not taken:
                    pc = base + BUNDLE_BYTES
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
                        countdown = sampling
                        cycles += self.sample_overhead
                        # publish the architectural state the observer sees
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
                        # the handler may have charged cycles or re-armed
                        # sampling: reload everything it can touch
                        pc = self.pc
                        cycles = self.cycles
                        retired = self.retired
                        bundles_executed = self.bundles_executed
                        taken_branches = self.taken_branches
                        issue_tick = self._issue_tick
                        countdown = self._sample_countdown
                        sampling = self.sample_interval
                        fast_mem = cache.validator is None
                        if fast_mem:
                            l2_sets = cache._l2_sets
                            l2_nsets = cache._l2_nsets
                            l2_hit_lat = cache._l2_hit
                            line_state = cache.state
                            l2_dirty = cache.l2_dirty
                            mem_events = cache.events
                        cache_access = cache.access_fn
                        lc = regs.lc
                        ec = regs.ec
                        sor = regs.sor
                        sor32 = 32 + sor
                        rrb_gr = regs.rrb_gr
                        rrb_fr = regs.rrb_fr
                        rrb_pr = regs.rrb_pr

            return executed
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
