"""Trace compilation for the interpreter: hot loops become closures.

COBRA's own premise — steady-state loop traces dominate runtime and
deserve a specialized fast path — applied to the simulator itself.  The
generic interpreter pays, for every slot of every iteration, a decoded-
tuple unpack, a predicate check, a ~30-arm opcode dispatch chain and
static-vs-rotating register tests.  For the modulo-scheduled kernels
that make up essentially all simulated cycles, none of that changes
between iterations: the decoded slots, the predicate register numbers,
the rotation classification of every operand, the lfetch hints and the
memory-op kinds are all loop invariants.

:func:`compile_trace` therefore flattens the decoded bundles of one
loop body — from a hot ``br.ctop``/``br.cloop``/``br.wtop`` back-edge
target up to and including the back-edge bundle — into Python source
specialized for exactly that trace (operand indices folded to
constants, dispatch eliminated, hardwired-register guards proven away
at compile time), ``exec``s it once, and hands the interpreter a *step
closure* that runs steady-state iterations until the trace exits.

On top of single-loop traces the registry grows **trace trees** with
OSR-style mid-body entry (DESIGN.md §9):

* **OSR entry** — every covered bundle address of a compiled trace is a
  legal entry point.  The interpreter's dispatch map resolves any pc to
  an :class:`_EntryPoint` ``(trace, bundle index)`` and passes the index
  to the trace's one closure as ``start``: the closure ingests the
  current architectural state (rotation indices, predicates, LC/EC,
  sampling countdown — the 24-argument capture contract), skips the
  bundles before ``start`` in its per-bundle body and, at the back-edge
  of a loop, carries on into steady state in the same call;
* **side-exit chaining** — architectural trace exits (``EXIT_LOOP``,
  ``EXIT_SIDE``, ``EXIT_LINK``) are counted per ``(head, target)`` exit
  site; a site crossing the hot threshold promotes the target into a
  secondary trace rooted at the parent's tree.  Promotion compiles a
  loop trace when the target is itself a loop head (nested loops) and a
  straight-line *linear trace* otherwise (epilogue drains after
  ``cloop``/``wtop``, early-exit tails, >``MAX_TRACE_BUNDLES`` loop
  prefixes) — so control chains from compiled code to compiled code
  instead of falling back to the interpreter forever;
* **tree invalidation** — every node keys its covered bundles by decode
  content exactly like a root trace, and staleness is evaluated on the
  *union* of the tree's covered bundles: a live patch under any node
  deoptimizes the whole tree before the next slice, while a
  byte-identical rollback leaves the whole tree resident.

Identical work is done once (DESIGN.md §9): generated closures are
position-independent — the head arrives as the argument ``H`` — and
content-addressed: :func:`_trace_fn` memoises the ready function under
everything :func:`_generate` reads, so the cores of a machine, the
machines of a process and every text address one kernel template is
instantiated at share one function per distinct trace shape — and a
spin-wait trace (:func:`_idempotent_iteration`) advances, at its taken
back-edge, all the iterations no exit can interrupt in closed form.
Every other loop trace pays per iteration, not per bundle: a guard at
the loop head proves that no budget or sample exit can fire inside the
iteration and runs a version of the body that defers what that makes
static, handing over to the per-bundle version when it fails.

The contract with the generic interpreter (DESIGN.md §9):

* **bit-identical observables** — the closure replicates the generic
  loop's cycle accounting, DEAR/BTB updates and retirement arithmetic
  statement for statement, and its L2-hit arm replicates
  ``CpuCacheSystem._access``'s (which the interpreter reaches by call,
  not by copy: an access hook sees every access of an interpreted
  bundle and only the calls out of a compiled one); per-bundle it checks
  the same ``max_bundles``/``cycle_limit`` budget the scheduler uses to
  keep cores' clocks entangled, so even *slice boundaries* fall on the
  same bundle as the generic path;
* **fall back on anything unusual** — predicate/LC/EC divergence simply
  steers the coded exits (the trace is the specialized version; the
  generic interpreter is the always-correct fallback, cf. multi-version
  rewriting); sampling boundaries return control to the interpreter's
  sample-interrupt block; traces never compile over ``alloc``,
  ``clrrrb``, calls, returns or ``halt``;
* **deoptimize on patches** — compiled traces key every covered bundle
  by the decode cache's content bytes and are revalidated whenever the
  decode journal observes a mutation (:meth:`TraceJit.sync`), so
  lfetch→nop / lfetch→lfetch.excl rewrites and their rollbacks — or a
  chaos schedule tearing them mid-run — invalidate exactly the trees
  they touch before the next slice executes.

The closure executes only while the memory fast path is legal (no
coherence validator attached) and while ``sor`` matches the compiled
rotation geometry; the interpreter guards both at every entry.
"""

from __future__ import annotations

import re

from ..isa.binary import BUNDLE_BYTES
from ..isa.instructions import Op, operands
from ..memory.address import LINE_SHIFT
from ..memory.coherence import MODIFIED, SHARED
from ..memory.dram import DATA_BASE
from ..memory.hierarchy import (
    ATOMIC,
    LOAD,
    LOAD_BIAS,
    PREFETCH,
    PREFETCH_EXCL,
    STORE,
)

__all__ = [
    "CompiledTrace",
    "TraceJit",
    "WORK_COUNTERS",
    "fastpath_stats",
    "compile_trace",
    "compile_linear_trace",
    "DEOPT_REASONS",
    "MAX_TRACE_BUNDLES",
    "HOT_THRESHOLD",
]

# deopt/exit flags returned by compiled traces (index into DEOPT_REASONS)
EXIT_LOOP = 0      # loop completed (back-edge not taken) — normal epilog exit
EXIT_SAMPLE = 1    # sampling countdown expired — fire the PMU interrupt
EXIT_BUDGET = 2    # max_bundles / cycle_limit slice boundary reached
EXIT_SIDE = 3      # a conditional branch left the trace mid-body
EXIT_LINK = 4      # normal completion handoff (linear region end)

DEOPT_REASONS = ("loop-exit", "sample", "budget", "side-exit", "link")

#: Longest loop body (in bundles) the compiler will flatten.
MAX_TRACE_BUNDLES = 32

#: Shortest straight-line region worth a closure call (a 1-bundle
#: linear trace would pay the call overhead for zero dispatch savings).
MIN_LINEAR_BUNDLES = 2

#: Back-edge executions before a loop head is considered hot.  The same
#: threshold promotes hot trace-exit sites into secondary tree nodes.
#: OSR entry makes early compilation cheap — the interpreter transfers
#: in at the current iteration state instead of waiting for a cold
#: re-entry — so the ramp is exactly this many interpreted iterations
#: and a wrong guess costs one blacklisted compile attempt.  Three taken
#: back-edges separate steady-state loops from if-else diamonds well
#: enough to hold the fastpath bench's >=97% coverage floor.
HOT_THRESHOLD = 3

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
_MOV_LC_IMM = int(Op.MOV_LC_IMM)
_MOV_LC_REG = int(Op.MOV_LC_REG)
_MOV_EC_IMM = int(Op.MOV_EC_IMM)
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
_FETCHADD8 = int(Op.FETCHADD8)

_B63 = 1 << 63
_M64 = (1 << 64) - 1
_SMASK = BUNDLE_BYTES - 1
_BTB_SIZE = 4

_LOOP_BRANCHES = (_BR_CTOP, _BR_CLOOP, _BR_WTOP)
#: the ops a trace may hold whose ``imm`` is a code address
_BRANCHES = (_BR, _BR_COND, *_LOOP_BRANCHES)

#: L2-hit event counter -> the ops whose fast arm bumps it
_HIT_EVENTS = {
    "loads": (_LD8, _LDFD),
    "stores": (_ST8, _STFD),
    "prefetches": (_LFETCH,),
}
#: placeholder line of :func:`_generate`: which rotating registers the
#: whole-iteration body loads is known once it has been emitted
_UNPACK = "\0unpack"

#: Straight-line register ops: op -> (destination, value, wraps).  The
#: value is an expression over operand reads named by register file
#: (g/f) and operand field (2..4 = r2..r4), ``imm`` and ``wimm`` (the
#: immediate wrapped to 64 bits); the destination names what ``r1``
#: (compares: ``r1`` and, negated, ``r2``) selects the same way.
#: ``wraps``: the value can leave the signed 64-bit range — & | ^ >> of
#: wrapped operands cannot.  :func:`_generate` emits each from its row.
_REG_OPS = {
    _ADD: ("g1", "{g2} + {g3}", True),
    _ADDI: ("g1", "{g2} + {imm}", True),
    _SUB: ("g1", "{g2} - {g3}", True),
    _MOV: ("g1", "{g2}", False),
    _MOVI: ("g1", "{wimm}", False),
    _AND: ("g1", "{g2} & {g3}", False),
    _OR: ("g1", "{g2} | {g3}", False),
    _XOR: ("g1", "{g2} ^ {g3}", False),
    _SHL: ("g1", "{g2} << {imm}", True),
    _SHR: ("g1", "{g2} >> {imm}", False),
    _SHLADD: ("g1", "({g2} << {imm}) + {g3}", True),
    _GETF: ("g1", "int({f2})", True),
    _SETF: ("f1", "float({g2})", False),
    _FMA: ("f1", "{f2} * {f3} + {f4}", False),
    _FADD: ("f1", "{f2} + {f3}", False),
    _FSUB: ("f1", "{f2} - {f3}", False),
    _FMUL: ("f1", "{f2} * {f3}", False),
    _FABS: ("f1", "abs({f2})", False),
    _FMAX: ("f1", "{f2} if {f2} >= {f3} else {f3}", False),
    # cmp.lt/le/eq/ne against r4, then the same four against imm
    **{
        first + n: ("p1 p2", f"{{g3}} {rel} {{{other}}}", False)
        for first, other in ((_CMP_LT, "g4"), (_CMPI_LT, "imm"))
        for n, rel in enumerate(("<", "<=", "==", "!="))
    },
}

_OPERAND = re.compile(r"\{([gf]\d)\}")

_SUPPORTED = frozenset(_REG_OPS) | frozenset((
    _LD8, _ST8, _LDFD, _STFD, _LFETCH, _FETCHADD8,
    _MOV_LC_IMM, _MOV_LC_REG, _MOV_EC_IMM,
    _BR, _BR_COND, _BR_CTOP, _BR_CLOOP, _BR_WTOP,
))

#: The operands of every op an idempotent iteration may hold besides its
#: closing branch: op -> (registers read, registers written), each named
#: by register file (g/f/p) and operand field (1..4 = r1..r4).  The two
#: loads come from their ISA rows (destination first, GRs spelt ``r``).
_SPIN_OPERANDS = {
    **{op: tuple(kind.replace("r", "g") for kind in reversed(operands(Op(op))))
       for op in (_LD8, _LDFD)},
    **{op: (" ".join(_OPERAND.findall(value)), dest)
       for op, (dest, value, _) in _REG_OPS.items()},
}

#: (head, body, sor, bpc, kind) -> the ready ``__trace__`` function; one
#: function sits under the key of every head that decoded its shape and
#: under the shape itself, which is the key of the same trace at head 0
_TRACE_FNS: dict = {}
_TRACE_FNS_CAP = 1024  # oldest-first eviction; the cap is a leak guard


def _relative(head, body):
    """``body`` as it reads at head 0: bundle addresses and branch targets
    minus ``head`` — what traces of one kernel template instantiated at
    different text addresses have in common."""
    return tuple(
        (addr - head, (n_total, tuple(
            (*entry[:7], entry[7] - head, entry[8]) if entry[1] in _BRANCHES else entry
            for entry in entries
        )))
        for addr, (n_total, entries) in body
    )


def _trace_fn(head, body, sor, bpc, kind):
    """The compiled closure for one trace, generated once per shape.

    :func:`_generate` is a pure function of the head-relative body and
    the ``__trace__`` it yields closes over nothing (machine state, the
    entry index and the head arrive as call arguments), so the function
    is content-addressed twice over: every core, machine and run whose
    trace decodes to the same ``body`` finds it under the absolute key
    with one lookup, every head of the same shape under the relative
    one, and a patched bundle is a different key of both kinds.
    """
    key = (head, body, sor, bpc, kind)
    fn = _TRACE_FNS.get(key)
    if fn is None:
        if head:
            fn = _trace_fn(0, _relative(head, body), sor, bpc, kind)
        else:
            namespace: dict = {}
            name = f"<trace +0x0..+{body[-1][0]:#x} {kind}>"
            exec(compile(_generate(body, sor, bpc, kind), name, "exec"), namespace)  # noqa: S102
            fn = namespace["__trace__"]
        if len(_TRACE_FNS) >= _TRACE_FNS_CAP:
            del _TRACE_FNS[next(iter(_TRACE_FNS))]
        _TRACE_FNS[key] = fn
    return fn


class CompiledTrace:
    """One compiled trace node: the closure plus validity/tree metadata."""

    __slots__ = (
        "fn", "head", "sor", "addrs", "keys", "n_bundles",
        "kind", "root", "body", "bpc", "children", "last_used",
    )

    def __init__(self, fn, head, sor, addrs, keys, n_bundles, kind, body, bpc):
        self.fn = fn            # shared by every head of this shape
        self.head = head
        self.sor = sor
        self.addrs = addrs      # covered bundle addresses, in trace order
        self.keys = keys        # decode-cache content keys at compile time
        self.n_bundles = n_bundles
        self.kind = kind        # "loop" (steady-state) or "linear" (one pass)
        self.root = head        # tree root head (== head for root nodes)
        self.body = body        # ((addr, decoded), ...) — the codegen input
        self.bpc = bpc          # bundles_per_cycle baked into the codegen
        self.children: list[int] = []            # promoted side-exit heads
        self.last_used = 0      # entry stamp for cold-first eviction

    def source(self) -> str:
        """The source ``fn`` was compiled from — position-independent, so
        the head it runs at here leads as a comment.  Regenerated from the
        memo key on demand (debugging aid; nothing is stored)."""
        relative = _relative(self.head, self.body)
        return (f"# entered with H = {self.head:#x}\n"
                + _generate(relative, self.sor, self.bpc, self.kind))


class _EntryPoint:
    """One dispatch-map slot: a trace and the covered-bundle index."""

    __slots__ = ("trace", "idx")

    def __init__(self, trace: CompiledTrace, idx: int) -> None:
        self.trace = trace
        self.idx = idx


# -- code generation ----------------------------------------------------------


class _Emit:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def __call__(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1


class _TraceAbort(Exception):
    """Raised by the emitter when the trace cannot be specialized."""


def _walk(head: int, dmap: dict, relax: bool = False) -> list[tuple[int, tuple]]:
    """Collect the straight-line loop body ``head..back-edge`` bundles.

    With ``relax`` (trace trees enabled) a loop branch targeting a
    *different* head — an inner loop's back-edge inside the walked body
    — is allowed and becomes a plain side exit instead of aborting the
    walk, so outer loops of a nest compile too.

    Returns ``[(addr, decoded), ...]`` or raises :class:`_TraceAbort`.
    """
    if head & _SMASK:
        raise _TraceAbort("mid-bundle loop head")
    body: list[tuple[int, tuple]] = []
    addr = head
    for _ in range(MAX_TRACE_BUNDLES):
        decoded = dmap.get(addr)
        if decoded is None:
            raise _TraceAbort("trace runs off the decoded image")
        body.append((addr, decoded))
        closed = False
        for entry in decoded[1]:
            op = entry[1]
            if op not in _SUPPORTED:
                raise _TraceAbort(f"unsupported opcode {op}")
            if op in _LOOP_BRANCHES:
                if entry[7] == head:
                    closed = True
                elif not relax:
                    raise _TraceAbort("loop branch to a different head")
                # relaxed: the inner back-edge is a side exit when taken
            elif op == _BR:
                if entry[2] == 0 and entry[7] != head:
                    # unconditional goto elsewhere: not a loop body
                    raise _TraceAbort("unconditional branch out of trace")
                if entry[7] == head:
                    closed = True
            elif op == _BR_COND and entry[7] == head:
                closed = True
        if closed:
            return body
        addr += BUNDLE_BYTES
    raise _TraceAbort("loop body longer than MAX_TRACE_BUNDLES")


def _walk_linear(start: int, dmap: dict) -> list[tuple[int, tuple]]:
    """Collect a straight-line region ``start..`` for a linear trace.

    The region extends until an unconditional transfer (which closes
    it), an unsupported bundle, the edge of the decoded image, or
    ``MAX_TRACE_BUNDLES`` — whichever comes first; execution past a
    truncated end simply links back to the interpreter.
    """
    if start & _SMASK:
        raise _TraceAbort("mid-bundle region start")
    body: list[tuple[int, tuple]] = []
    addr = start
    for _ in range(MAX_TRACE_BUNDLES):
        decoded = dmap.get(addr)
        if decoded is None:
            break
        if any(entry[1] not in _SUPPORTED for entry in decoded[1]):
            break
        body.append((addr, decoded))
        if any(
            entry[1] == _BR and entry[2] == 0 for entry in decoded[1]
        ):
            break   # unconditional transfer closes the region
        addr += BUNDLE_BYTES
    if len(body) < MIN_LINEAR_BUNDLES:
        raise _TraceAbort("straight-line region too short to pay for a call")
    return body


def _idempotent_iteration(head: int, body) -> bool:
    """Whether one pass over ``body`` maps the state it leaves to itself.

    True for a spin-wait: the body closes with a guarded ``br.cond`` to
    its own head (no rotation, no LC/EC change) and otherwise holds only
    unguarded plain loads (no post-increment, not ``ld8.bias``),
    compares and register-to-register ops, and no register is both
    written in the iteration and live into it.  Re-running such an
    iteration from the state it produced — memory untouched, as inside
    a scheduler slice — reads the same inputs, writes the same values
    and takes the same branch (DESIGN.md §9).
    """
    *inner, closer = [entry for _addr, decoded in body for entry in decoded[1]]
    _, op, qp, _, _, _, _, target, _ = closer
    if op != _BR_COND or not qp or target != head:
        return False
    written: set = set()
    live_in: set = set()
    for entry in inner:
        operands = _SPIN_OPERANDS.get(entry[1])
        if operands is None or entry[2]:
            return False    # not a plain load/compare/ALU op, or guarded
        if entry[1] in (_LD8, _LDFD) and (entry[7] or entry[8]):
            return False    # post-increment or .bias
        reads, writes = (
            {(f[0], entry[2 + int(f[1])]) for f in fields.split()}
            for fields in operands
        )
        live_in |= reads - written
        written |= writes
    if ("p", qp) not in written:
        live_in.add(("p", qp))
    live_in.discard(("g", 0))   # r0 reads as zero and cannot be written
    return not written & live_in


def _make_trace(head, body, sor, bpc, keys, kind):
    body = tuple(body)
    addrs = tuple(addr for addr, _ in body)
    return CompiledTrace(
        fn=_trace_fn(head, body, sor, bpc, kind),
        head=head,
        sor=sor,
        addrs=addrs,
        keys=tuple(keys.get(a) for a in addrs),
        n_bundles=len(body),
        kind=kind,
        body=body,
        bpc=bpc,
    )


def compile_trace(
    head: int,
    dmap: dict,
    keys: dict,
    sor: int,
    bundles_per_cycle: int,
    relax: bool = False,
) -> CompiledTrace | None:
    """Compile the loop at ``head`` into a step closure, or ``None``.

    ``dmap``/``keys`` are the core's synced :class:`DecodeCache` views;
    ``sor`` and ``bundles_per_cycle`` are baked into the generated code
    (the interpreter guards ``sor`` equality at every trace entry).
    ``relax`` admits inner-loop back-edges as side exits (trace trees).
    """
    try:
        body = _walk(head, dmap, relax=relax)
        return _make_trace(head, body, sor, bundles_per_cycle, keys, "loop")
    except _TraceAbort:
        return None


def compile_linear_trace(
    start: int,
    dmap: dict,
    keys: dict,
    sor: int,
    bundles_per_cycle: int,
) -> CompiledTrace | None:
    """Compile the straight-line region at ``start``, or ``None``.

    Linear traces cover what loop traces cannot: epilogue drains after
    ``cloop``/``wtop``, early-exit tails, and the prefixes of loop
    bodies longer than ``MAX_TRACE_BUNDLES``.  The closure executes the
    region once and returns ``EXIT_LINK`` at its end (or ``EXIT_SIDE``
    at a taken conditional branch), chaining into the next trace via
    the dispatch map.
    """
    try:
        body = _walk_linear(start, dmap)
        return _make_trace(start, body, sor, bundles_per_cycle, keys, "linear")
    except _TraceAbort:
        return None


def _generate(body, sor: int, bpc: int, kind: str) -> str:
    """Emit the closure source for one trace shape.

    ``body`` is head-relative (:func:`_relative`) and so is the source:
    the trace's head arrives as the argument ``H`` and every code address
    the closure publishes — exit pcs, BTB entries, DEAR pcs — is ``H``
    plus a constant.  The closure is entered at any covered bundle: the
    argument ``start`` is that bundle's index, and the per-bundle body
    skips the bundles before it (DESIGN.md §9 "OSR entry").  ``kind``
    selects the control skeleton around the shared slot emitters:

    * ``"loop"`` — ``while True`` over the whole body, back-edge to the
      head continues in place (and, when the body is an
      :func:`_idempotent_iteration`, first advances the iterations no
      exit can interrupt in closed form);
    * ``"linear"`` — a straight-line region: one pass; the region end or
      its closing unconditional branch returns ``EXIT_LINK``,
      conditional exits ``EXIT_SIDE``.
    """
    sor32 = 32 + sor
    e = _Emit()
    loop = kind == "loop"
    spin = loop and _idempotent_iteration(0, body)
    # A steady-state closure holds its body twice (DESIGN.md §9 "Whole
    # iterations"): ``checked``, every bundle testing budget and sampling,
    # and ahead of it a version behind a loop-head guard that proves
    # neither can fire in this iteration and defers what that makes
    # static.  A spin body is already forwarded in closed form, and one
    # around an inner loop (``relax``) leaves by that loop's back-edge
    # before it ever completes an iteration: neither pays for a second.
    all_slots = [(addr, entry) for addr, decoded in body for entry in decoded[1]]
    whole = loop and not spin and not any(
        entry[1] in _LOOP_BRANCHES and entry[7] for _, entry in all_slots
    )
    checked = True
    at = (0, 0)     # whole-iteration body: (bundles, slots) run, not yet counted
    rotating = {"g": (32, sor), "f": (32, 96), "p": (16, 48)}
    used: dict[str, set] = {"g": set(), "f": set(), "p": set()}
    events = [ev for ev, of in _HIT_EVENTS.items()
              if any(entry[1] in of for _, entry in all_slots)]
    back_edges = {
        addr + entry[0] for addr, entry in all_slots
        if not entry[7] and entry[1] in _BRANCHES
    }
    # one back-edge site: its BTB entries are one constant, so n of them
    # are min(n, BTB size) copies; several sites append as they go
    back_edge = min(back_edges) if len(back_edges) == 1 else None

    # -- operand expressions, resolved at compile time ---------------------

    def code(offset: int) -> str:
        """The code address ``offset`` bytes from the trace's head."""
        return f"H + {offset}" if offset > 0 else f"H - {-offset}" if offset else "H"

    def rot(file: str, r: int) -> str:
        """A rotating register: index arithmetic, or its per-iteration local."""
        first, size = rotating[file]
        if checked:
            return f"{file}rl[{first} + ({r - first} + rrb_{file}r) % {size}]"
        used[file].add(r - first)
        return f"{file}rl[{file}{r - first}]"

    def gr_r(r: int) -> str:
        if r == 0:
            return "0"
        if sor and 32 <= r < sor32:
            return rot("g", r)
        return f"grl[{r}]"

    def gr_w(r: int) -> str:
        if r == 0:
            raise _TraceAbort("write to r0")
        return gr_r(r)

    def fr_r(r: int) -> str:
        if r >= 32:
            return rot("f", r)
        return f"frl[{r}]"

    def fr_w(r: int) -> str:
        if r in (0, 1):
            raise _TraceAbort(f"write to f{r}")
        return fr_r(r)

    def pr_r(p: int) -> str:
        if p >= 16:
            return rot("p", p)
        return f"prl[{p}]"

    def pr_w(p: int) -> str:
        if p == 0:
            raise _TraceAbort("write to p0")
        return pr_r(p)

    read = {"g": gr_r, "f": fr_r}
    write = {"g": gr_w, "f": fr_w}

    def ret(pc_expr: str, flag: int, slots: int | None = None) -> str:
        """Leave the trace.  An exit of the whole-iteration body is a row
        of static data for the epilogue below the loop: where, and the
        (bundles, slots) run but not counted (``slots``: this bundle's)."""
        if not checked:
            j, s = at if slots is None else (at[0] + 1, at[1] + slots)
            return f"out = ({pc_expr}, {j}, {s}, {flag}); break"
        return (
            f"return ({pc_expr}, lc, ec, rrb_gr, rrb_fr, rrb_pr, cycles, "
            f"retired, bundles_executed, taken_branches, issue_tick, "
            f"countdown, executed, iters, {flag})"
        )

    def emit_flush() -> None:
        """Publish what the whole-iteration body deferred: at every exit,
        at the hand-over to the checked body and before any call out."""
        if back_edge is not None:
            e(f"btb.extend((({code(back_edge)}, H),) * min(n_back, {_BTB_SIZE}))")
            e(f"del btb[:-{_BTB_SIZE}]")
            e("n_back = 0")
        for ev in events:
            e(f"mem_events.{ev} += n_{ev}")
            e(f"n_{ev} = 0")

    def emit_hit(ev: str) -> None:
        e(f"mem_events.{ev} += 1" if checked else f"n_{ev} += 1")

    def emit_wrapped(dest: str, expr: str) -> None:
        """``dest = expr`` as a signed 64-bit value; the mask runs on overflow only."""
        e(f"v = {expr}")
        e(f"if not {-_B63} <= v < {_B63}:")
        e.indent()
        e(f"v = ((v + {_B63}) & {_M64}) - {_B63}")
        e.dedent()
        e(f"{dest} = v")

    def emit_retire(n_slots: int, next_pc: int) -> None:
        """The generic loop's end-of-bundle bookkeeping, constants folded."""
        if checked:
            e(f"retired += {n_slots}")
        e("issue_tick += 1")
        e(f"if issue_tick >= {bpc}:")
        e.indent()
        e("issue_tick = 0")
        e("cycles += 1 + stall")
        e.dedent()
        e("else:")
        e.indent()
        e("cycles += stall")
        e.dedent()
        if not checked:
            return  # the guard at the loop head stands for the rest
        e("bundles_executed += 1")
        e("executed += 1")
        e("if sampling:")
        e.indent()
        e(f"countdown -= {n_slots}")
        e("if countdown <= 0:")
        e.indent()
        e(ret(code(next_pc), EXIT_SAMPLE))
        e.dedent()
        e.dedent()

    def emit_taken(base: int, idx: int, target: int, link: bool = False) -> None:
        """Taken-branch exit: bookkeeping + retire, then leave or loop."""
        loop_back = loop and not target
        e("taken_branches += 1")
        if not checked and loop_back and back_edge is not None:
            e("n_back += 1")
        else:
            if not checked:
                emit_flush()    # earlier back-edges precede this entry
            e(f"btb_append(({code(base + idx)}, {code(target)}))")
            e(f"if len(btb) > {_BTB_SIZE}:")
            e.indent()
            e("del btb[0]")
            e.dedent()
        emit_retire(idx + 1, target)
        if loop_back:
            e("iters += 1")
            if spin:
                emit_spin_forward(base + idx, idx + 1)
            if not checked:
                e(f"retired += {at[1] + idx + 1}")
                e(f"bundles_executed += {at[0] + 1}")
                e(f"executed += {at[0] + 1}")
                e("if sampling:")
                e.indent()
                e(f"countdown -= {at[1] + idx + 1}")
                e.dedent()
            else:
                e("start = 0")  # a mid-body entry has run its partial iteration
            e("continue")
        else:
            e(ret(code(target), EXIT_LINK if link else EXIT_SIDE, idx + 1))

    def emit_spin_forward(branch_pc: int, closer_slots: int) -> None:
        """Advance the iterations no per-bundle exit can interrupt.

        Emitted at the taken back-edge of an idempotent iteration whose
        loads all took the L2-hit arm: the next iterations repeat it
        exactly, so ``m`` of them move every counter by a closed form —
        ``m`` being the largest count that still leaves the bundle that
        really exits (budget, cycle limit, sample) to the code above.
        """
        k = len(body)
        slots = sum(decoded[0] for _, decoded in body[:-1]) + closer_slots
        loads = [
            sum(entry[1] in (_LD8, _LDFD) for entry in decoded[1])
            for _, decoded in body
        ]
        n_loads, lead_loads = sum(loads), sum(loads[:-1])
        m_bundles = "m" if k == 1 else f"m * {k}"
        stall = f"{n_loads} * l2_hit_lat"
        e("if hits:")
        e.indent()
        # executed < max_bundles before each skipped bundle
        e(f"m = (max_bundles - executed) // {k}")
        # cycles <= cycle_limit before the last skipped bundle: after
        # n = m - 1 iterations and this one's leading bundles the clock
        # reads cycles + n*stall + lead + (issue_tick + n*k + k-1) // bpc
        lead = f" - {lead_loads} * l2_hit_lat" if lead_loads else ""
        e(f"n = ({bpc} * (cycle_limit - cycles{lead} + 1) - {k} - issue_tick)"
          f" // ({k} + {bpc} * {stall}) + 1")
        e("if n < m:")
        e.indent()
        e("m = n")
        e.dedent()
        e("if sampling:")
        e.indent()
        # countdown > 0 after the last skipped bundle
        e(f"n = (countdown - 1) // {slots}")
        e("if n < m:")
        e.indent()
        e("m = n")
        e.dedent()
        e.dedent()
        e("if m > 0:")
        e.indent()
        e(f"retired += m * {slots}")
        e("if sampling:")
        e.indent()
        e(f"countdown -= m * {slots}")
        e.dedent()
        e(f"bundles_executed += {m_bundles}")
        e(f"executed += {m_bundles}")
        e("taken_branches += m")
        e("iters += m")
        e(f"issue_tick += {m_bundles}")
        e(f"cycles += m * {stall} + issue_tick // {bpc}")
        e(f"issue_tick %= {bpc}")
        e(f"mem_events.loads += m * {n_loads}")
        e(f"btb.extend((({code(branch_pc)}, H),) * min(m, {_BTB_SIZE}))")
        e(f"del btb[:-{_BTB_SIZE}]")
        e("jit = core.trace_jit")
        e("jit.spin_forwards += 1")
        e("jit.spin_iters_skipped += m")
        e.dedent()
        e.dedent()

    def emit_rotate() -> None:
        """One register rotation (shared by ctop/wtop arms)."""
        if sor:
            e(f"rrb_gr = (rrb_gr - 1) % {sor}")
        e("rrb_fr = (rrb_fr - 1) % 96")
        e("rrb_pr = (rrb_pr - 1) % 48")

    def emit_unpack() -> None:
        """Load the rotating-register locals (per iteration; after a rotation)."""
        if not checked:
            e(_UNPACK)

    def emit_post_inc(r2: int, imm: int, in_range: bool = False) -> None:
        """``in_range``: ``a`` just passed the data-segment check, so adding
        a sane immediate cannot leave the 64-bit range."""
        if in_range and -_B63 // 2 <= imm < _B63 // 2:
            e(f"{gr_w(r2)} = a + {imm}")
        else:
            emit_wrapped(gr_w(r2), f"a + {imm}")

    def emit_mem_addr(r2: int) -> None:
        e(f"a = {gr_r(r2)}")

    def emit_l2_probe() -> None:
        e(f"line = a >> {LINE_SHIFT}")
        e("lru = l2_sets[line % l2_nsets]")

    def emit_slow_access(kind: int, base: int, idx: int, charge: bool) -> None:
        if not checked:
            emit_flush()
        if charge:
            e(f"stall += cache_access(cycles, a, {kind})")
        else:
            e(f"cache_access(cycles, a, {kind})")
        if kind in (LOAD, STORE, LOAD_BIAS):
            e("dp = cache.dear_pending")
            e("if dp is not None:")
            e.indent()
            e(f"core.dear = ({code(base + idx)}, a, dp)")
            e("cache.dear_pending = None")
            e.dedent()

    # -- slot emitters -----------------------------------------------------

    def emit_slot(base: int, entry: tuple) -> None:
        idx, op, qp, r1, r2, r3, r4, imm, excl = entry

        guarded = bool(qp) and op != _BR_WTOP
        if guarded:
            e(f"if {pr_r(qp)}:")
            e.indent()

        if op == _LDFD or op == _LD8:
            reader_fast = "mem_f64" if op == _LDFD else "mem_i64"
            reader_slow = "mem_read_f64" if op == _LDFD else "mem_read_i64"
            emit_mem_addr(r2)
            biased = op == _LD8 and excl
            if biased:
                emit_slow_access(LOAD_BIAS, base, idx, charge=True)
            else:
                emit_l2_probe()
                e("if line in lru:")
                e.indent()
                emit_hit("loads")
                e("del lru[line]")
                e("lru[line] = None")
                e("stall += l2_hit_lat")
                e.dedent()
                e("else:")
                e.indent()
                if spin:
                    e("hits = False")
                emit_slow_access(LOAD, base, idx, charge=True)
                e.dedent()
            e(f"off = a - {DATA_BASE}")
            e("if 0 <= off < mem_cap and not off & 7:")
            e.indent()
            e(f"v = {reader_fast}[off >> 3]")
            e.dedent()
            e("else:")
            e.indent()
            e(f"v = {reader_slow}(a)")
            e.dedent()
            e(f"{(fr_w if op == _LDFD else gr_w)(r1)} = v")
            if imm:
                emit_post_inc(r2, imm, in_range=True)
        elif op == _STFD or op == _ST8:
            emit_mem_addr(r2)
            emit_l2_probe()
            e("hit = False")
            e("if line in lru:")
            e.indent()
            e("st = line_state[line]")
            e(f"if st != {SHARED}:")
            e.indent()
            emit_hit("stores")
            e(f"if st != {MODIFIED}:")
            e.indent()
            e(f"line_state[line] = {MODIFIED}")
            e.dedent()
            e("l2_dirty.add(line)")
            e("del lru[line]")
            e("lru[line] = None")
            e("stall += l2_hit_lat")
            e("hit = True")
            e.dedent()
            e.dedent()
            e("if not hit:")
            e.indent()
            emit_slow_access(STORE, base, idx, charge=True)
            e.dedent()
            e(f"off = a - {DATA_BASE}")
            e("if 0 <= off < mem_cap and not off & 7:")
            e.indent()
            if op == _STFD:
                e(f"mem_f64[off >> 3] = {fr_r(r3)}")
            else:
                # a register holds a wrapped value; the view would
                # refuse anything else where write_i64 wraps it
                emit_wrapped("mem_i64[off >> 3]", gr_r(r3))
            e.dedent()
            e("else:")
            e.indent()
            e(f"mem_write_f64(a, {fr_r(r3)})" if op == _STFD
              else f"mem_write_i64(a, {gr_r(r3)})")
            e.dedent()
            if imm:
                emit_post_inc(r2, imm, in_range=True)
        elif op == _LFETCH:
            emit_mem_addr(r2)
            emit_l2_probe()
            cond = "line in lru"
            if excl:
                cond += f" and line_state[line] == {MODIFIED}"
            e(f"if {cond}:")
            e.indent()
            emit_hit("prefetches")
            e("del lru[line]")
            e("lru[line] = None")
            e.dedent()
            e("else:")
            e.indent()
            emit_slow_access(
                PREFETCH_EXCL if excl else PREFETCH, base, idx, charge=False
            )
            e.dedent()
            if imm:
                emit_post_inc(r2, imm)
        elif op in _REG_OPS:
            dest, value, wraps = _REG_OPS[op]
            value = value.format(
                imm=imm, wimm=((imm + _B63) & _M64) - _B63,
                **{f: read[f[0]](entry[2 + int(f[1])]) for f in _OPERAND.findall(value)},
            )
            if dest == "p1 p2":
                e(f"c = {value}")
                e(f"{pr_w(r1)} = c")
                e(f"{pr_w(r2)} = not c")
            elif wraps:
                emit_wrapped(write[dest[0]](r1), value)
            else:
                e(f"{write[dest[0]](r1)} = {value}")
        elif op == _FETCHADD8:
            emit_mem_addr(r2)
            e(f"stall += cache_access(cycles, a, {ATOMIC})")
            e("old = mem_read_i64(a)")
            e(f"mem_write_i64(a, old + {imm})")
            e(f"{gr_w(r1)} = old")
        elif op == _MOV_LC_IMM:
            e(f"lc = {imm}")
        elif op == _MOV_LC_REG:
            e(f"lc = {gr_r(r2)}")
        elif op == _MOV_EC_IMM:
            e(f"ec = {imm}")
        elif op == _BR_CTOP:
            e("if lc > 0:")
            e.indent()
            e("lc -= 1")
            emit_rotate()
            e("prl[16 + rrb_pr] = True")
            emit_taken(base, idx, imm)
            e.dedent()
            e("elif ec > 1:")
            e.indent()
            e("ec -= 1")
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_taken(base, idx, imm)
            e.dedent()
            e("else:")
            e.indent()
            e("if ec > 0:")
            e.indent()
            e("ec -= 1")
            e.dedent()
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_unpack()
            e.dedent()
        elif op == _BR_CLOOP:
            e("if lc > 0:")
            e.indent()
            e("lc -= 1")
            emit_taken(base, idx, imm)
            e.dedent()
        elif op == _BR_WTOP:
            # qp is the *branch* predicate here, evaluated even when false
            e(f"if {pr_r(qp)}:")
            e.indent()
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_taken(base, idx, imm)
            e.dedent()
            e("elif ec > 1:")
            e.indent()
            e("ec -= 1")
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_taken(base, idx, imm)
            e.dedent()
            e("else:")
            e.indent()
            e("if ec > 0:")
            e.indent()
            e("ec -= 1")
            e.dedent()
            emit_rotate()
            e("prl[16 + rrb_pr] = False")
            emit_unpack()
            e.dedent()
        elif op == _BR or op == _BR_COND:
            # guard already evaluated (qp wrapper above) -> taken; an
            # unconditional br closing a linear region is its normal
            # exit (link), not a deviation from the trace
            emit_taken(
                base, idx, imm,
                link=(not loop and op == _BR and qp == 0),
            )
        else:  # pragma: no cover — the walkers filter unsupported ops
            raise _TraceAbort(f"unsupported opcode {op}")

        if guarded:
            e.dedent()

    # -- function body -----------------------------------------------------

    e("def __trace__(core, cache, mem, grl, frl, prl, btb, lc, ec, rrb_gr, "
      "rrb_fr, rrb_pr, cycles, retired, bundles_executed, taken_branches, "
      "issue_tick, countdown, sampling, executed, max_bundles, cycle_limit, "
      "start, H):")
    e.indent()
    e("cache_access = cache.access_fn")
    e("l2_sets = cache._l2_sets")
    e("l2_nsets = cache._l2_nsets")
    e("l2_hit_lat = cache._l2_hit")
    e("line_state = cache.state")
    e("l2_dirty = cache.l2_dirty")
    e("mem_events = cache.events")
    e("mem_cap = mem.capacity")
    e("mem_f64 = mem._f64_mv")
    e("mem_i64 = mem._i64_mv")
    e("mem_read_f64 = mem.read_f64")
    e("mem_write_f64 = mem.write_f64")
    e("mem_read_i64 = mem.read_i64")
    e("mem_write_i64 = mem.write_i64")
    e("btb_append = btb.append")
    e("iters = 0")
    if whole:
        for name in ([] if back_edge is None else ["back"]) + events:
            e(f"n_{name} = 0")
    if spin:
        # osr-off replays every iteration: it is the forward's oracle
        e("forward = core.osr_enabled")

    def emit_body() -> None:
        """One pass over the bundles, as the ``checked`` version or not."""
        nonlocal at
        at = (0, 0)
        for n, (addr, decoded) in enumerate(body):
            n_total, entries = decoded
            e(f"# -- bundle +{addr:#x}")
            skippable = checked and n < len(body) - 1   # the last never is
            if skippable:
                e(f"if start <= {n}:")  # entered at or before this bundle
                e.indent()
            e("if executed >= max_bundles or cycles > cycle_limit:" if checked
              else "if cycles > cycle_limit:")
            e.indent()
            e(ret(code(addr), EXIT_BUDGET))
            e.dedent()
            e("stall = 0")
            for entry in entries:
                emit_slot(addr, entry)
            # fall-through retirement (no branch taken in this bundle)
            emit_retire(n_total, addr + BUNDLE_BYTES)
            if not checked:
                at = (at[0] + 1, at[1] + n_total)
            if n == len(body) - 1:
                # fell past the back-edge bundle: the loop is done; a
                # region's end chains to whatever follows it
                e(ret(code(addr + BUNDLE_BYTES), EXIT_LOOP if loop else EXIT_LINK))
            if skippable:
                e.dedent()

    if loop:
        e("while True:")
        e.indent()
        if spin:
            # a partial iteration says nothing about the loads it skipped
            e("hits = forward and not start")
        if whole:
            # no budget or sample exit can fire inside this iteration
            # (the longest path retires every slot of every bundle)
            slots = sum(decoded[0] for _, decoded in body)
            e(f"if executed + {len(body)} <= max_bundles and not start and "
              f"(not sampling or countdown > {slots}):")
            e.indent()
            checked = False
            emit_unpack()
            emit_body()
            checked = True
            e.dedent()
            emit_flush()    # hand-over: the checked body finds the exit
    emit_body()
    if loop:
        e.dedent()
    if whole:
        # the one way out of the whole-iteration body
        emit_flush()
        e("pc, done, slots, flag = out")
        e("countdown -= slots if sampling else 0")
        e("retired += slots")
        e("bundles_executed += done")
        e("executed += done")
        e(ret("pc", "flag"))
    e.dedent()
    # the rotating locals the whole-iteration body used, and their tables
    unpack, tables = [], []
    for file, offs in used.items():
        if offs:
            first, size = rotating[file]
            offs = sorted(offs)
            names = "".join(f"{file}{o}, " for o in offs)
            unpack.append(f"{names}= ROT_{file}[rrb_{file}r]")
            tables.append(
                f"ROT_{file} = [tuple({first} + (o + r) % {size} for o in {offs}) "
                f"for r in range({size})]"
            )
    lines = []
    for line in e.lines:
        if line.endswith(_UNPACK):
            lines += [line[: -len(_UNPACK)] + u for u in unpack]
        else:
            lines.append(line)
    return "\n".join(lines + tables) + "\n"


# -- per-core management ------------------------------------------------------


class TraceJit:
    """Per-core trace registry: hotness, compilation, trees, eviction."""

    __slots__ = (
        "traces",
        "hot",
        "blacklist",
        "threshold",
        "epoch_seen",
        "compiles",
        "invalidations",
        "entries",
        "iters",
        "compiled_bundles",
        "deopts",
        "dispatch",
        "sites",
        "osr",
        "generation",
        "osr_entries",
        "tree_links",
        "resume_hits",
        "promotions",
        "evicted",
        "spin_forwards",
        "spin_iters_skipped",
    )

    def __init__(self, threshold: int = HOT_THRESHOLD) -> None:
        #: trace head -> CompiledTrace (every resident tree node)
        self.traces: dict[int, CompiledTrace] = {}
        #: loop head -> taken back-edge count since (re)reset
        self.hot: dict[int, int] = {}
        #: heads/targets that failed to compile (retried after a patch)
        self.blacklist: set[int] = set()
        self.threshold = threshold
        self.epoch_seen = -1
        self.compiles = 0
        self.invalidations = 0
        self.entries = 0            # compiled-trace dispatches
        self.iters = 0              # steady-state iterations run compiled
        self.compiled_bundles = 0   # bundles executed inside traces
        self.deopts = [0, 0, 0, 0, 0]  # indexed by EXIT_* flag
        #: covered bundle address -> _EntryPoint (the interpreter
        #: dispatches on this; index 0 slots win over mid-body slots)
        self.dispatch: dict[int, _EntryPoint] = {}
        #: (parent head, exit target) -> architectural exit count;
        #: crossing the threshold promotes the target into the tree
        self.sites: dict[tuple[int, int], int] = {}
        #: OSR + trace trees enabled (``REPRO_TRACE_JIT=osr-off`` pins
        #: the PR-5 loop-head-only behavior for CI bisection)
        self.osr = True
        #: bumped on every invalidation/eviction — stale-entry fence
        #: for the core's cached budget-resume hint
        self.generation = 0
        self.osr_entries = 0        # dispatches entering at a nonzero index
        self.tree_links = 0         # trace exits chaining into another trace
        self.resume_hits = 0        # budget exits resumed without a re-probe
        self.promotions = 0         # side-exit targets compiled into the tree
        self.evicted = 0            # nodes evicted by the resource governor
        self.spin_forwards = 0      # closed-form advances of a spin-wait trace
        self.spin_iters_skipped = 0  # iterations those advances stood for

    def sync(self, dcache) -> dict[int, _EntryPoint]:
        """Revalidate compiled traces against the decode journal.

        Called once per ``run()`` slice, right after ``DecodeCache.sync``
        — the same cadence the generic interpreter refreshes its decoded
        view, so a patched bundle can never execute through a stale
        trace.  Staleness is tree-wide: a key mismatch under *any* node
        invalidates every node sharing that root (the tree's covered-
        bundle union is its validity domain), while a patch + byte-
        identical rollback leaves the whole tree resident.  Returns the
        entry-point dispatch map.
        """
        epoch = dcache.epoch
        if epoch != self.epoch_seen:
            self.epoch_seen = epoch
            if self.traces:
                keys = dcache.keys
                stale_roots = {
                    tr.root
                    for tr in self.traces.values()
                    if any(keys.get(a) != k for a, k in zip(tr.addrs, tr.keys))
                }
                if stale_roots:
                    dead = [
                        h for h, tr in self.traces.items()
                        if tr.root in stale_roots
                    ]
                    for h in dead:
                        del self.traces[h]
                        self.invalidations += 1
                        self.hot[h] = 0
                    self.generation += 1
                    self._rebuild_dispatch()
            if self.blacklist:
                # patched code may have become compilable — retry after
                # the head re-proves itself hot
                for h in self.blacklist:
                    self.hot[h] = 0
                self.blacklist.clear()
            # exit-site hotness restarts after any patch: dead trees'
            # sites must not promote against stale parents, and patched
            # code re-proves its exits like a blacklisted head does
            self.sites.clear()
        return self.dispatch

    def _register(self, trace: CompiledTrace) -> None:
        """Publish a trace's entry points into the dispatch map.

        Every covered bundle is an OSR entry; on address conflicts a
        trace's *own* head (index 0) wins over another trace's mid-body
        entry.  With OSR off only the head is published (loop-boundary
        dispatch, PR-5 behavior).
        """
        d = self.dispatch
        if not self.osr:
            d[trace.head] = _EntryPoint(trace, 0)
            return
        for i, addr in enumerate(trace.addrs):
            cur = d.get(addr)
            if cur is None or (i == 0 and cur.idx != 0):
                d[addr] = _EntryPoint(trace, i)

    def _rebuild_dispatch(self) -> None:
        # deterministic: traces iterate in compile order, and the
        # conflict rule is order-independent for index-0 slots
        self.dispatch.clear()
        for trace in self.traces.values():
            self._register(trace)

    def _adopt(self, trace: CompiledTrace, root: int) -> None:
        trace.root = root
        self.traces[trace.head] = trace
        self.compiles += 1
        self._register(trace)

    def compile(
        self, head: int, dmap: dict, keys: dict, sor: int, bpc: int
    ) -> CompiledTrace | None:
        existing = self.traces.get(head)
        if existing is not None:
            return existing
        if head in self.blacklist:
            return None
        trace = compile_trace(head, dmap, keys, sor, bpc, relax=self.osr)
        if trace is None and self.osr:
            # not a compilable loop (too long, irregular) — cover its
            # straight-line prefix and chain from there
            trace = compile_linear_trace(head, dmap, keys, sor, bpc)
        if trace is None:
            self.blacklist.add(head)
            return None
        self._adopt(trace, root=head)
        return trace

    def promote(
        self,
        parent: CompiledTrace,
        target: int,
        dmap: dict,
        keys: dict,
        sor: int,
        bpc: int,
    ) -> CompiledTrace | None:
        """Grow the tree: compile a hot exit target off ``parent``.

        Loop-shaped targets (nested-loop heads) become loop nodes even
        when a parent's OSR entry already covers the address — a
        dedicated steady-state closure beats one-iteration mid-body calls
        and takes over the dispatch slot.  Straight-line targets get a
        linear node the same way (head slots win over mid-body slots).
        """
        if (
            not self.osr
            or target & _SMASK
            or target in self.blacklist
            or target in self.traces
        ):
            return None
        covered = self.dispatch.get(target)
        if covered is not None and covered.idx == 0:
            return None
        trace = compile_trace(target, dmap, keys, sor, bpc, relax=True)
        if trace is None:
            # straight-line fallback: a dedicated region node beats a
            # per-call mid-body entry (idx-0 registration takes the slot)
            trace = compile_linear_trace(target, dmap, keys, sor, bpc)
        if trace is None:
            self.blacklist.add(target)
            return None
        self._adopt(trace, root=parent.root)
        parent.children.append(target)
        self.promotions += 1
        return trace

    def compiled_footprint(self) -> int:
        """Resident compiled bundles (tree nodes count like any trace)."""
        return sum(tr.n_bundles for tr in self.traces.values())

    def evict_cold(self, budget: int) -> list[tuple[int, str, int]]:
        """Evict coldest-entered nodes until the footprint fits ``budget``.

        Returns ``[(head, kind, n_bundles), ...]`` victims for the
        governor's ledger.  Coldness is the last-entry stamp (ties break
        on head) — a pure function of the simulated run, so replicas
        evict identically.  Evicted heads re-prove hotness from zero.
        """
        victims: list[tuple[int, str, int]] = []
        total = self.compiled_footprint()
        if total <= budget:
            return victims
        order = sorted(
            self.traces.items(), key=lambda kv: (kv[1].last_used, kv[0])
        )
        for head, trace in order:
            if total <= budget:
                break
            del self.traces[head]
            self.hot[head] = 0
            total -= trace.n_bundles
            victims.append((head, trace.kind, trace.n_bundles))
            self.evicted += 1
        self.generation += 1
        self._rebuild_dispatch()
        return victims

    def warm_seed(self, shapes, dcache, bpc: int) -> int:
        """Recompile persisted tree shapes before the first instruction.

        ``shapes`` is the profile DB's ``jit_trees`` list —
        ``[root, start, kind, sor]`` per node, recorded at a prior run's
        end.  Compilation is strictly validated and best-effort: a torn
        or stale shape is skipped (the run stays correct, the node just
        re-proves hotness the cold way).  The stored ``sor`` matters
        because at retired 0 the registers are pre-``alloc`` (sor 0);
        the interpreter's per-entry ``sor`` guard keeps a wrong-rotation
        node inert rather than wrong.
        """
        if not self.osr or not shapes:
            return 0
        dmap = dcache.sync()
        keys = dcache.keys
        count = 0
        for shape in shapes:
            if not isinstance(shape, (list, tuple)) or len(shape) != 4:
                continue
            root, start, kind, tsor = shape
            if (
                not isinstance(root, int)
                or not isinstance(start, int)
                or not isinstance(tsor, int)
                or kind not in ("loop", "linear")
                or start & _SMASK
                or start in self.traces
                or not 0 <= tsor <= 96
            ):
                continue
            if kind == "loop":
                trace = compile_trace(start, dmap, keys, tsor, bpc, relax=True)
            else:
                trace = compile_linear_trace(start, dmap, keys, tsor, bpc)
            if trace is None:
                continue
            self._adopt(trace, root=root)
            # already proven hot by a prior run; pin the counter past
            # the exact-threshold trigger so back-edges skip recompiles
            self.hot[start] = self.threshold
            count += 1
        return count

    def stats(self) -> dict:
        """Observability snapshot (bench / CobraReport fast-path lines).

        Every key is a deterministic function of the simulated run; the
        ones in :data:`WORK_COUNTERS` also depend on how the JIT cuts it
        into closure calls.
        """
        return {
            "compiles": self.compiles,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "iterations": self.iters,
            "compiled_bundles": self.compiled_bundles,
            "osr_entries": self.osr_entries,
            "tree_links": self.tree_links,
            "resume_hits": self.resume_hits,
            "promotions": self.promotions,
            "evicted": self.evicted,
            "spin_forwards": self.spin_forwards,
            "spin_iters_skipped": self.spin_iters_skipped,
            "exit_sites": {
                f"{head:#x}->{target:#x}": count
                for (head, target), count in sorted(self.sites.items())
            },
            "deopts": {
                reason: count
                for reason, count in zip(DEOPT_REASONS, self.deopts)
            },
        }


#: The ``fastpath`` leaves that count host work — how many closure calls
#: a run was cut into (``entries``), the back-edges taken inside them,
#: partial iterations included (``iterations``), how each call ended
#: (``deopts.link`` off a region's end, ``deopts.budget`` on the slice
#: budget), whether the exit landed on another entry point
#: (``tree_links``, under how many ``exit_sites``) and whether the next
#: slice found the resume hint (``resume_hits``) — rather than what the
#: simulated machine did.  A change to the JIT may move these and nothing
#: else (DESIGN.md §9 "Work counters"); ``repro bench --compare`` reads
#: such a move as ``moved (work)``.
WORK_COUNTERS = (
    "entries", "iterations", "tree_links", "resume_hits", "exit_sites",
    "deopts.link", "deopts.budget",
)


def fastpath_stats(machine) -> dict:
    """Aggregate :meth:`TraceJit.stats` over a machine's cores.

    Every int-valued key of ``stats()`` is summed, so a counter added
    there appears here (and in ``CobraReport.fastpath`` and the
    ``repro bench`` matrix) without an edit.  Everything returned is a
    deterministic function of the simulated run.
    """
    totals: dict = {}
    deopts: dict[str, int] = {}
    per_core = []
    exit_sites = bundles = decodes = 0
    for core in machine.cores:
        stats = core.trace_jit.stats()
        for key, value in stats.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
        for reason, count in stats["deopts"].items():
            deopts[reason] = deopts.get(reason, 0) + count
        exit_sites += len(stats["exit_sites"])
        bundles += core.bundles_executed
        decodes += core.decode_cache.decodes
        per_core.append(
            {
                "cpu": core.cpu_id,
                "compiles": stats["compiles"],
                "compiled_bundles": stats["compiled_bundles"],
                "osr_entries": stats["osr_entries"],
                "tree_links": stats["tree_links"],
                "resume_hits": stats["resume_hits"],
                "bundles": core.bundles_executed,
                "decodes": core.decode_cache.decodes,
            }
        )
    totals["exit_sites"] = exit_sites
    totals["coverage_pct"] = (
        round(100.0 * totals["compiled_bundles"] / bundles, 2) if bundles else 0.0
    )
    totals["decode_cache_hit_pct"] = (
        round(100.0 * (1.0 - decodes / bundles), 2) if bundles else 0.0
    )
    totals["deopts"] = {k: deopts[k] for k in sorted(deopts)}
    totals["per_core"] = per_core
    return totals
