"""Code generation: kernel templates -> IA-64-like machine code.

Calling convention (all templates):

* parameters in ``r16..r23`` — an iteration count first, then one
  address per load/store stream (see each ``Function``'s ``params``);
* kernels clobber ``r2..r15``, rotating GRs, ``f8..f31``, rotating FRs,
  ``p6..p9``, rotating predicates, and LC/EC;
* return via ``br.ret`` (the driver stub calls with ``br.call``).

:class:`StreamLoop` lowers to a three-stage modulo-scheduled loop in
the style of the paper's Figure 2: stage p16 loads (and runs the
rotating prefetch queue), stage p17 computes, stage p18 stores, with
``br.ctop`` driving LC/EC and the register rotation.  The prefetch
queue reads logical ``r(32+k)`` and re-queues at logical ``r32`` with
an ``8*k``-byte advance, exactly the Figure-2 ``lfetch [r43]`` /
``add r41=16,r43`` idiom generalized to ``k`` streams.

Bundling follows IA-64 dispersal limits loosely: at most two memory
ops per bundle, branches end a bundle in its last slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import LINE_SIZE
from ..errors import CompilerError
from ..isa.binary import BinaryImage
from ..isa.bundle import Bundle
from ..isa.instructions import Instruction, Op, nop
from ..memory.dram import MemorySystem
from .kernels import (
    ComputeLoop,
    GatherLoop,
    HistogramLoop,
    IntSumLoop,
    KernelTemplate,
    ReduceLoop,
    StreamLoop,
    Term,
)
from .prefetch import AGGRESSIVE, PrefetchPlan

__all__ = ["ParamSpec", "Function", "KernelCompiler", "Emitter"]

_PARAM_BASE = 16
_MAX_PARAMS = 12  # r16..r27; r2..r15 stay scratch


@dataclass(frozen=True)
class ParamSpec:
    """One register parameter of a compiled kernel function.

    ``kind`` is ``"count"`` (iterations/rows), ``"addr"`` (byte address
    of element ``chunk_start + shift`` of ``array``), or ``"raw"``
    (precomputed value, e.g. an array base).
    """

    reg: int
    kind: str
    array: str | None = None
    shift: int = 0


@dataclass
class Function:
    """A compiled kernel: entry point, params, and rewrite targets."""

    name: str
    entry: int
    region: tuple[int, int]
    params: list[ParamSpec]
    loop_head: int
    lfetch_sites: list[tuple[int, int]] = field(default_factory=list)


class Emitter:
    """Accumulates instructions and packs them into bundles."""

    def __init__(self, image: BinaryImage) -> None:
        self.image = image
        self._pending: list[Instruction] = []

    def emit(self, instr: Instruction) -> None:
        self._pending.append(instr)
        if instr.is_branch or instr.op is Op.HALT:
            self.flush()

    def label(self, name: str) -> int:
        self.flush()
        return self.image.mark(name)

    def here(self) -> int:
        self.flush()
        return self.image.here()

    def flush(self) -> None:
        pending = self._pending
        while pending:
            slots: list[Instruction] = []
            mem_ops = 0
            while pending and len(slots) < 3:
                head = pending[0]
                if head.is_memory and mem_ops == 2:
                    break
                if head.is_branch or head.op is Op.HALT:
                    # branches (and halt) go in the last slot of their bundle
                    while len(slots) < 2:
                        slots.append(nop("M" if not slots else "I"))
                    slots.append(pending.pop(0))
                    break
                if head.is_memory:
                    mem_ops += 1
                slots.append(pending.pop(0))
            while len(slots) < 3:
                slots.append(nop("I"))
            self.image.append(Bundle(slots))


def _sor_for(k: int) -> int:
    """Rotating-region size covering logical r32..r(32+k), rounded to 8."""
    need = k + 1
    return ((need + 7) // 8) * 8


class KernelCompiler:
    """Compiles kernel templates into a shared binary image."""

    def __init__(self, image: BinaryImage, mem: MemorySystem) -> None:
        self.image = image
        self.mem = mem
        self.functions: dict[str, Function] = {}

    # -- public API ---------------------------------------------------------

    def compile(self, template: KernelTemplate, plan: PrefetchPlan = AGGRESSIVE) -> Function:
        if template.name in self.functions:
            raise CompilerError(f"kernel {template.name!r} already compiled")
        if isinstance(template, StreamLoop):
            fn = self._compile_stream(template, plan)
        elif isinstance(template, ReduceLoop):
            fn = self._compile_reduce(template, plan)
        elif isinstance(template, GatherLoop):
            fn = self._compile_gather(template, plan)
        elif isinstance(template, HistogramLoop):
            fn = self._compile_histogram(template, plan)
        elif isinstance(template, IntSumLoop):
            fn = self._compile_intsum(template, plan)
        elif isinstance(template, ComputeLoop):
            fn = self._compile_compute(template)
        else:  # pragma: no cover - defensive
            raise CompilerError(f"unknown template {template!r}")
        self.functions[template.name] = fn
        return fn

    def link(self) -> None:
        self.image.link()
        # record lfetch sites post-link (addresses are final at append time,
        # but collecting here keeps one code path)
        for fn in self.functions.values():
            fn.lfetch_sites = self.image.find_ops(Op.LFETCH, fn.region)

    # -- shared helpers ----------------------------------------------------------

    def _const_pool(self, name: str, values: list[float]) -> int:
        alloc = self.mem.alloc(f"__const_{name}", max(len(values), 1) * 8)
        view = self.mem.view_f64(alloc)
        for i, v in enumerate(values):
            view[i] = v
        return alloc.base

    def _emit_pool_loads(self, em: Emitter, pool: int, n: int, first_fr: int = 8) -> None:
        em.emit(Instruction(Op.MOVI, r1=14, imm=pool))
        for j in range(n):
            em.emit(Instruction(Op.LDFD, r1=first_fr + j, r2=14, imm=8, unit="M"))

    def _emit_prologue_prefetch(
        self, em: Emitter, plan: PrefetchPlan, addr_regs: list[int]
    ) -> None:
        """Per-stream prologue lfetches covering the first cache lines."""
        if not plan.enabled or plan.prologue_count == 0:
            return
        for reg in addr_regs:
            em.emit(Instruction(Op.MOV, r1=2, r2=reg))
            for _ in range(plan.prologue_count):
                em.emit(
                    Instruction(
                        Op.LFETCH, r2=2, imm=LINE_SIZE, hint=plan.hint,
                        excl=plan.excl, unit="M",
                    )
                )

    def _loop_count_setup(self, em: Emitter, count_reg: int) -> None:
        """LC = count - 1 (count >= 1 is the caller's contract)."""
        em.emit(Instruction(Op.ADDI, r1=15, r2=count_reg, imm=-1))
        em.emit(Instruction(Op.MOV_LC_REG, r2=15))

    # -- StreamLoop -----------------------------------------------------------------

    def _compile_stream(self, template: StreamLoop, plan: PrefetchPlan) -> Function:
        em = Emitter(self.image)
        name = template.name

        # distinct (array, shift) load streams, in first-use order
        load_streams: list[tuple[str, int]] = []
        for term in template.terms:
            key = (term.array, term.shift)
            if key not in load_streams:
                load_streams.append(key)
        if template.scale is not None and (template.scale, 0) not in load_streams:
            load_streams.append((template.scale, 0))

        params: list[ParamSpec] = [ParamSpec(_PARAM_BASE, "count")]
        params.append(ParamSpec(_PARAM_BASE + 1, "addr", template.dest, 0))
        for j, (array, shift) in enumerate(load_streams):
            params.append(ParamSpec(_PARAM_BASE + 2 + j, "addr", array, shift))
        if len(params) > _MAX_PARAMS:
            raise CompilerError(f"{name}: too many streams for the calling convention")
        dest_reg = _PARAM_BASE + 1
        load_regs = {ls: _PARAM_BASE + 2 + j for j, ls in enumerate(load_streams)}

        # prefetch targets: one stream per distinct array (first use), dest last
        pf_arrays: dict[str, int] = {}
        for (array, _shift), reg in load_regs.items():
            pf_arrays.setdefault(array, reg)
        pf_arrays.setdefault(template.dest, dest_reg)
        pf_regs = list(pf_arrays.values())

        entry = em.label(name)

        coefs = [t.coef for t in template.terms]
        pool = self._const_pool(name, coefs)
        self._emit_pool_loads(em, pool, len(coefs))

        if plan.multiversion and plan.enabled:
            # §2: "generate multi-version code to select the noprefetch
            # version when the iteration count is small"
            em.emit(
                Instruction(Op.CMPI_LT, r1=6, r2=7, r3=_PARAM_BASE,
                            imm=plan.multiversion_cutoff)
            )
            em.emit(Instruction(Op.BR_COND, qp=6, label=f".{name}_small", unit="B"))
            loop_head = self._emit_stream_body(
                em, template, plan, name, "", load_streams, load_regs, dest_reg, pf_regs
            )
            em.label(f".{name}_small")
            self._emit_stream_body(
                em, template, PrefetchPlan(enabled=False), name, "_small",
                load_streams, load_regs, dest_reg, pf_regs,
            )
        else:
            loop_head = self._emit_stream_body(
                em, template, plan, name, "", load_streams, load_regs, dest_reg, pf_regs
            )
        end = em.here()
        self.image.mark_region(name, entry, end)
        return Function(name, entry, (entry, end), params, loop_head)

    def _emit_stream_body(
        self,
        em: Emitter,
        template: StreamLoop,
        plan: PrefetchPlan,
        name: str,
        suffix: str,
        load_streams: list[tuple[str, int]],
        load_regs: dict[tuple[str, int], int],
        dest_reg: int,
        pf_regs: list[int],
    ) -> int:
        """One software-pipelined loop body (ends with br.ret)."""
        k = len(pf_regs)

        # conditional prefetching (§2): per-stream end-of-chunk limits so
        # the in-loop lfetches are nullified outside the intended range
        # ("one more register, one more compare ... per stream")
        conditional = plan.enabled and plan.conditional
        # pointers live in r2..r(1+k); limits in r(2+k)..r(1+2k).  Both
        # must fit the scratch window r2..r15 — a kernel wide enough to
        # overflow it (k > 7) falls back to unconditional prefetching
        # rather than spilling limit registers into the parameter window.
        if conditional and 2 * k > 14:
            conditional = False
        limit_base = 2 + k
        if conditional:
            for j, reg in enumerate(pf_regs):
                em.emit(
                    Instruction(
                        Op.SHLADD, r1=limit_base + j, r2=_PARAM_BASE, imm=3, r3=reg
                    )
                )

        # prologue prefetches cover the head of every stream's chunk —
        # the in-loop queue only reaches lines >= distance, so without a
        # prologue the chunk head is never re-acquired after a neighbour's
        # overshooting prefetch stole it (paper Figure 2 shows this
        # prologue for y; we close icc's coverage hole for all streams)
        self._emit_prologue_prefetch(em, plan, pf_regs)

        # SWP setup
        em.emit(Instruction(Op.CLRRRB))
        em.emit(Instruction(Op.ALLOC, imm=_sor_for(k)))
        em.emit(Instruction(Op.MOV_PR_ROT, imm=1 << 16))
        self._loop_count_setup(em, _PARAM_BASE)
        em.emit(Instruction(Op.MOV_EC_IMM, imm=3))

        # prefetch addressing: read-modify-write two-stream kernels
        # (DAXPY's y = y + a*x) get the Figure-2 rotating queue (one
        # lfetch alternating streams); everything else gets one prefetch
        # register per stream (icc's multi-stream form — which is also
        # what lets a binary optimizer associate each lfetch with its
        # stream by scanning the `add rPF = dist, rBASE` init)
        rmw = any(array == template.dest for array, _ in load_streams)
        use_queue = plan.enabled and k <= 2 and rmw and not conditional
        if plan.enabled:
            if use_queue:
                for idx, reg in enumerate(pf_regs):
                    em.emit(
                        Instruction(
                            Op.ADDI, r1=32 + k - idx, r2=reg, imm=plan.distance_bytes
                        )
                    )
            else:
                for j, reg in enumerate(pf_regs):
                    em.emit(
                        Instruction(Op.ADDI, r1=2 + j, r2=reg, imm=plan.distance_bytes)
                    )

        loop_head = em.label(f".{name}{suffix}_loop")

        # stage p16: loads + prefetches
        for (array, shift) in load_streams:
            fr = 32 + 2 * load_streams.index((array, shift))
            em.emit(
                Instruction(
                    Op.LDFD, qp=16, r1=fr, r2=load_regs[(array, shift)], imm=8, unit="M"
                )
            )
        if plan.enabled:
            if use_queue:
                em.emit(
                    Instruction(
                        Op.LFETCH, qp=16, r2=32 + k, hint=plan.hint, excl=plan.excl, unit="M"
                    )
                )
                em.emit(Instruction(Op.ADDI, qp=16, r1=32, r2=32 + k, imm=8 * k))
            else:
                for j in range(k):
                    if conditional:
                        em.emit(
                            Instruction(
                                Op.CMP_LT, qp=16, r1=6, r2=7, r3=2 + j,
                                r4=limit_base + j,
                            )
                        )
                        em.emit(
                            Instruction(
                                Op.LFETCH, qp=6, r2=2 + j, imm=8,
                                hint=plan.hint, excl=plan.excl, unit="M",
                            )
                        )
                    else:
                        em.emit(
                            Instruction(
                                Op.LFETCH, qp=16, r2=2 + j, imm=8,
                                hint=plan.hint, excl=plan.excl, unit="M",
                            )
                        )

        # stage p17: compute into rotating f60 (read as f61 by the store)
        def stream_fr(term: Term) -> int:
            return 33 + 2 * load_streams.index((term.array, term.shift))

        terms = template.terms
        if template.scale is None and len(terms) == 1:
            em.emit(
                Instruction(Op.FMA, qp=17, r1=60, r2=8, r3=stream_fr(terms[0]), r4=0)
            )
        else:
            em.emit(Instruction(Op.FMUL, qp=17, r1=24, r2=8, r3=stream_fr(terms[0])))
            for j, term in enumerate(terms[1:-1], start=1):
                em.emit(
                    Instruction(Op.FMA, qp=17, r1=24, r2=8 + j, r3=stream_fr(term), r4=24)
                )
            if len(terms) > 1:
                last = terms[-1]
                dest_fr = 24 if template.scale is not None else 60
                em.emit(
                    Instruction(
                        Op.FMA, qp=17, r1=dest_fr, r2=8 + len(terms) - 1,
                        r3=stream_fr(last), r4=24,
                    )
                )
            if template.scale is not None:
                scale_fr = 33 + 2 * load_streams.index((template.scale, 0))
                em.emit(Instruction(Op.FMUL, qp=17, r1=60, r2=24, r3=scale_fr))

        # stage p18: store
        em.emit(Instruction(Op.STFD, qp=18, r2=dest_reg, r3=61, imm=8, unit="M"))
        em.emit(Instruction(Op.BR_CTOP, label=f".{name}{suffix}_loop", hint="sptk", unit="B"))

        em.emit(Instruction(Op.BR_RET, unit="B"))
        return loop_head

    # -- ReduceLoop ---------------------------------------------------------------

    def _compile_reduce(self, template: ReduceLoop, plan: PrefetchPlan) -> Function:
        em = Emitter(self.image)
        name = template.name
        dot = template.src_b is not None

        params = [
            ParamSpec(_PARAM_BASE, "count"),
            ParamSpec(_PARAM_BASE + 1, "addr", template.src_a, 0),
        ]
        a_reg = _PARAM_BASE + 1
        b_reg = None
        next_reg = _PARAM_BASE + 2
        if dot:
            params.append(ParamSpec(next_reg, "addr", template.src_b, 0))
            b_reg = next_reg
            next_reg += 1
        params.append(ParamSpec(next_reg, "raw", None))
        result_reg = next_reg

        entry = em.label(name)
        em.emit(Instruction(Op.FADD, r1=24, r2=0, r3=0))  # acc = 0
        pf_regs = [a_reg] + ([b_reg] if dot and template.src_b != template.src_a else [])
        self._emit_prologue_prefetch(em, plan, pf_regs)
        if plan.enabled:
            em.emit(Instruction(Op.ADDI, r1=2, r2=a_reg, imm=plan.distance_bytes))
            if b_reg is not None:
                em.emit(Instruction(Op.ADDI, r1=3, r2=b_reg, imm=plan.distance_bytes))
        self._loop_count_setup(em, _PARAM_BASE)

        loop_head = em.label(f".{name}_loop")
        em.emit(Instruction(Op.LDFD, r1=26, r2=a_reg, imm=8, unit="M"))
        if dot:
            em.emit(Instruction(Op.LDFD, r1=27, r2=b_reg, imm=8, unit="M"))
        if plan.enabled:
            em.emit(
                Instruction(Op.LFETCH, r2=2, imm=8, hint=plan.hint, excl=plan.excl, unit="M")
            )
            if b_reg is not None:
                em.emit(
                    Instruction(
                        Op.LFETCH, r2=3, imm=8, hint=plan.hint, excl=plan.excl, unit="M"
                    )
                )
        if dot:
            em.emit(Instruction(Op.FMA, r1=24, r2=26, r3=27, r4=24))
        else:
            em.emit(Instruction(Op.FADD, r1=24, r2=24, r3=26))
        em.emit(Instruction(Op.BR_CLOOP, label=f".{name}_loop", hint="sptk", unit="B"))

        em.emit(Instruction(Op.STFD, r2=result_reg, r3=24, unit="M"))
        em.emit(Instruction(Op.BR_RET, unit="B"))
        end = em.here()
        self.image.mark_region(name, entry, end)
        return Function(name, entry, (entry, end), params, loop_head)

    # -- GatherLoop (CSR SpMV rows; inner br.wtop) ------------------------------------

    def _compile_gather(self, template: GatherLoop, plan: PrefetchPlan) -> Function:
        em = Emitter(self.image)
        name = template.name
        params = [
            ParamSpec(_PARAM_BASE, "count"),                       # rows
            ParamSpec(_PARAM_BASE + 1, "addr", template.ptr, 0),   # &ptr[row0]
            ParamSpec(_PARAM_BASE + 2, "raw", template.col),       # col base
            ParamSpec(_PARAM_BASE + 3, "raw", template.val),       # val base
            ParamSpec(_PARAM_BASE + 4, "raw", template.x),         # x base
            ParamSpec(_PARAM_BASE + 5, "addr", template.y, 0),     # &y[row0]
        ]
        r_rows, r_ptr, r_col, r_val, r_x, r_y = range(_PARAM_BASE, _PARAM_BASE + 6)

        entry = em.label(name)
        em.emit(Instruction(Op.LD8, r1=8, r2=r_ptr, imm=8, unit="M"))  # cur = ptr[0]
        # streaming address regs for col/val follow cur
        em.emit(Instruction(Op.SHLADD, r1=12, r2=8, imm=3, r3=r_col))
        em.emit(Instruction(Op.SHLADD, r1=14, r2=8, imm=3, r3=r_val))
        if plan.enabled:
            self._emit_prologue_prefetch(em, plan, [12, 14])
            em.emit(Instruction(Op.ADDI, r1=2, r2=12, imm=plan.distance_bytes))
            em.emit(Instruction(Op.ADDI, r1=3, r2=14, imm=plan.distance_bytes))
        self._loop_count_setup(em, r_rows)

        loop_head = em.label(f".{name}_row")
        em.emit(Instruction(Op.LD8, r1=9, r2=r_ptr, imm=8, unit="M"))  # end = ptr[i+1]
        em.emit(Instruction(Op.FADD, r1=24, r2=0, r3=0))               # acc = 0
        em.emit(Instruction(Op.MOV_EC_IMM, imm=1))

        em.label(f".{name}_k")
        em.emit(Instruction(Op.CMP_LT, r1=6, r2=7, r3=8, r4=9))
        em.emit(Instruction(Op.LD8, qp=6, r1=11, r2=12, imm=8, unit="M"))   # col[k]
        em.emit(Instruction(Op.SHLADD, qp=6, r1=13, r2=11, imm=3, r3=r_x))  # &x[col]
        em.emit(Instruction(Op.LDFD, qp=6, r1=28, r2=13, unit="M"))
        em.emit(Instruction(Op.LDFD, qp=6, r1=29, r2=14, imm=8, unit="M"))  # a[k]
        if plan.enabled:
            em.emit(Instruction(Op.LFETCH, qp=6, r2=2, imm=8, hint=plan.hint, excl=plan.excl, unit="M"))
            em.emit(Instruction(Op.LFETCH, qp=6, r2=3, imm=8, hint=plan.hint, excl=plan.excl, unit="M"))
        em.emit(Instruction(Op.FMA, qp=6, r1=24, r2=28, r3=29, r4=24))
        em.emit(Instruction(Op.ADDI, qp=6, r1=8, r2=8, imm=1))
        em.emit(Instruction(Op.BR_WTOP, qp=6, label=f".{name}_k", hint="sptk", unit="B"))

        # y[i] += acc
        em.emit(Instruction(Op.LDFD, r1=30, r2=r_y, unit="M"))
        em.emit(Instruction(Op.FADD, r1=30, r2=30, r3=24))
        em.emit(Instruction(Op.STFD, r2=r_y, r3=30, imm=8, unit="M"))
        em.emit(Instruction(Op.BR_CLOOP, label=f".{name}_row", hint="sptk", unit="B"))

        em.emit(Instruction(Op.BR_RET, unit="B"))
        end = em.here()
        self.image.mark_region(name, entry, end)
        return Function(name, entry, (entry, end), params, loop_head)

    # -- HistogramLoop -----------------------------------------------------------------

    def _compile_histogram(self, template: HistogramLoop, plan: PrefetchPlan) -> Function:
        em = Emitter(self.image)
        name = template.name
        params = [
            ParamSpec(_PARAM_BASE, "count"),
            ParamSpec(_PARAM_BASE + 1, "addr", template.key, 0),
            ParamSpec(_PARAM_BASE + 2, "raw", template.cnt),
        ]
        r_n, r_key, r_cnt = range(_PARAM_BASE, _PARAM_BASE + 3)

        entry = em.label(name)
        self._emit_prologue_prefetch(em, plan, [r_key])
        if plan.enabled:
            em.emit(Instruction(Op.ADDI, r1=2, r2=r_key, imm=plan.distance_bytes))
        self._loop_count_setup(em, r_n)

        loop_head = em.label(f".{name}_loop")
        em.emit(Instruction(Op.LD8, r1=8, r2=r_key, imm=8, unit="M"))
        em.emit(Instruction(Op.SHLADD, r1=9, r2=8, imm=3, r3=r_cnt))
        em.emit(Instruction(Op.LD8, r1=10, r2=9, unit="M"))
        em.emit(Instruction(Op.ADDI, r1=10, r2=10, imm=1))
        em.emit(Instruction(Op.ST8, r2=9, r3=10, unit="M"))
        if plan.enabled:
            em.emit(Instruction(Op.LFETCH, r2=2, imm=8, hint=plan.hint, excl=plan.excl, unit="M"))
        em.emit(Instruction(Op.BR_CLOOP, label=f".{name}_loop", hint="sptk", unit="B"))

        em.emit(Instruction(Op.BR_RET, unit="B"))
        end = em.here()
        self.image.mark_region(name, entry, end)
        return Function(name, entry, (entry, end), params, loop_head)

    # -- IntSumLoop -------------------------------------------------------------------

    def _compile_intsum(self, template: IntSumLoop, plan: PrefetchPlan) -> Function:
        em = Emitter(self.image)
        name = template.name
        params: list[ParamSpec] = [ParamSpec(_PARAM_BASE, "count")]
        params.append(ParamSpec(_PARAM_BASE + 1, "addr", template.dest, 0))
        dest_reg = _PARAM_BASE + 1
        src_regs = []
        for j, (array, shift) in enumerate(template.sources):
            params.append(ParamSpec(_PARAM_BASE + 2 + j, "addr", array, shift))
            src_regs.append(_PARAM_BASE + 2 + j)
        if len(params) > _MAX_PARAMS:
            raise CompilerError(f"{name}: too many sources for the calling convention")

        entry = em.label(name)
        self._emit_prologue_prefetch(em, plan, src_regs[:2])
        if plan.enabled:
            em.emit(Instruction(Op.ADDI, r1=2, r2=src_regs[0], imm=plan.distance_bytes))
        self._loop_count_setup(em, _PARAM_BASE)

        loop_head = em.label(f".{name}_loop")
        em.emit(Instruction(Op.LD8, r1=8, r2=src_regs[0], imm=8, unit="M"))
        for reg in src_regs[1:]:
            em.emit(Instruction(Op.LD8, r1=9, r2=reg, imm=8, unit="M"))
            em.emit(Instruction(Op.ADD, r1=8, r2=8, r3=9))
        if plan.enabled:
            em.emit(Instruction(Op.LFETCH, r2=2, imm=8, hint=plan.hint, excl=plan.excl, unit="M"))
        em.emit(Instruction(Op.ST8, r2=dest_reg, r3=8, imm=8, unit="M"))
        em.emit(Instruction(Op.BR_CLOOP, label=f".{name}_loop", hint="sptk", unit="B"))

        em.emit(Instruction(Op.BR_RET, unit="B"))
        end = em.here()
        self.image.mark_region(name, entry, end)
        return Function(name, entry, (entry, end), params, loop_head)

    # -- ComputeLoop ----------------------------------------------------------------------

    def _compile_compute(self, template: ComputeLoop) -> Function:
        em = Emitter(self.image)
        name = template.name
        params = [ParamSpec(_PARAM_BASE, "count")]

        entry = em.label(name)
        pool = self._const_pool(name, [1.0000001, 1e-7])
        self._emit_pool_loads(em, pool, 2)
        em.emit(Instruction(Op.FADD, r1=24, r2=0, r3=1))  # x = 1.0
        self._loop_count_setup(em, _PARAM_BASE)

        loop_head = em.label(f".{name}_loop")
        for j in range(template.flops_per_iter):
            dest = 24 + (j % 4)
            em.emit(Instruction(Op.FMA, r1=dest, r2=24 + ((j + 3) % 4), r3=8, r4=9))
        em.emit(Instruction(Op.BR_CLOOP, label=f".{name}_loop", hint="sptk", unit="B"))

        em.emit(Instruction(Op.BR_RET, unit="B"))
        end = em.here()
        self.image.mark_region(name, entry, end)
        return Function(name, entry, (entry, end), params, loop_head)
