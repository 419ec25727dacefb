"""Instruction set of the simulated IA-64-like architecture.

The subset covers everything the paper's code examples use: predicated
ALU/FP ops, post-increment loads/stores, ``lfetch`` with temporal hints
and the ``.excl`` exclusive hint, ``ld8.bias``, the three modulo-
scheduled loop branches (``br.ctop``, ``br.cloop``, ``br.wtop``), and
the SWP setup instructions (``alloc``, ``clrrrb``, ``mov pr.rot``,
``mov lc/ec``).

Instructions are plain slotted objects dispatched by integer opcode in
the interpreter.  What an opcode *does* is the comment on its
:class:`Op` member; how it is *written* — mnemonic, which register file
each of the generic ``r1..r4`` fields (destination first) names, and
the issue unit the assembler gives it — is its row of :data:`SYNTAX`,
the one table the assembler, the disassembler and every per-opcode list
in the package read.  ``imm`` holds immediates, post-increment amounts,
or resolved branch targets; ``label`` holds a symbolic branch target
until link time.
"""

from __future__ import annotations

import functools
import re
from enum import IntEnum
from typing import Any

__all__ = [
    "Op", "Instruction", "SYNTAX", "pieces", "operands", "LFETCH_HINTS",
    "BRANCH_HINTS", "MEMORY_OPS", "BRANCH_OPS", "LOOP_BRANCH_OPS",
]


class Op(IntEnum):
    """Opcodes.  The comment on a member is its effect; its text, operand
    kinds and unit are its row of :data:`SYNTAX`."""

    NOP = 0          # unit: which issue unit the nop fills
    # -- integer ALU --------------------------------------------------
    ADD = 1          # r1 = r2 + r3
    ADDI = 2         # r1 = r2 + imm
    SUB = 3          # r1 = r2 - r3
    MOV = 4          # r1 = r2
    MOVI = 5         # r1 = imm  (also covers movl)
    AND = 6          # r1 = r2 & r3
    OR = 7           # r1 = r2 | r3
    XOR = 8          # r1 = r2 ^ r3
    SHL = 9          # r1 = r2 << imm
    SHR = 10         # r1 = r2 >> imm
    SHLADD = 11      # r1 = (r2 << imm) + r3
    # -- compares (two predicate targets, IA-64 style) ------------------
    CMP_LT = 12      # (r1, r2) = (r3 < r4, !(r3 < r4))
    CMP_LE = 13
    CMP_EQ = 14
    CMP_NE = 15
    CMPI_LT = 16     # (r1, r2) = (r3 < imm, ...)
    CMPI_LE = 17
    CMPI_EQ = 18
    CMPI_NE = 19
    # -- application registers / SWP setup ------------------------------
    MOV_LC_IMM = 20  # LC = imm
    MOV_LC_REG = 21  # LC = r2
    MOV_EC_IMM = 22  # EC = imm
    ALLOC = 23       # rotating GR region size = imm
    CLRRRB = 24      # clear rename bases
    MOV_PR_ROT = 25  # rotating predicates = bitmask imm (bit i -> p_i)
    # -- memory ----------------------------------------------------------
    LD8 = 26         # r1 = mem[gr[r2]]; gr[r2] += imm; excl -> ld8.bias
    ST8 = 27         # mem[gr[r2]] = gr[r3]; gr[r2] += imm
    LDFD = 28        # f[r1] = mem[gr[r2]]; gr[r2] += imm
    STFD = 29        # mem[gr[r2]] = f[r3]; gr[r2] += imm
    LFETCH = 30      # prefetch line at gr[r2]; gr[r2] += imm; hint/excl
    # -- floating point ---------------------------------------------------
    FMA = 31         # f[r1] = f[r2] * f[r3] + f[r4]
    FADD = 32        # f[r1] = f[r2] + f[r3]
    FSUB = 33
    FMUL = 34
    SETF = 35        # f[r1] = float(gr[r2])   (value conversion)
    GETF = 36        # gr[r1] = int(f[r2])
    FABS = 37        # f[r1] = abs(f[r2])
    FMAX = 38        # f[r1] = max(f[r2], f[r3])
    # -- branches ---------------------------------------------------------
    BR = 39          # goto imm
    BR_COND = 40     # if pr[qp]: goto imm   (qp is the qualifying pred)
    BR_CTOP = 41     # modulo-sched counted loop (rotates, LC/EC)
    BR_CLOOP = 42    # simple counted loop (LC, no rotation)
    BR_WTOP = 43     # modulo-sched while loop (rotates, p16 from qp stage)
    BR_CALL = 44     # call imm (return address on core call stack)
    BR_RET = 45      # return
    HALT = 46        # end of the thread's program (simulator pseudo-op)
    FETCHADD8 = 47   # r1 = mem[gr[r2]]; mem[gr[r2]] += imm  (atomic)


#: Completers ``[.hint]`` (lfetch locality) and ``[.bhint]`` (branch
#: whether-hint) accept; any other spelling is an assembly error.
LFETCH_HINTS = ("nt1", "nt2", "nta")
BRANCH_HINTS = ("sptk", "spnt", "dptk")

#: The ISA's syntax, one row per opcode: ``(unit, text)``.  ``unit`` is
#: the issue unit the assembler gives the instruction ('A' = ALU op
#: usable on M or I; a nop's completer overrides it).  ``text`` is the
#: Figure-2 spelling with ``{f1}`` = register file ``f``, field ``r1``;
#: ``{imm}``/``{imm:#x}``/``{target}`` = the immediate, or the label when
#: there is one; and pieces the source may leave out: ``[.bias]``/
#: ``[.excl]`` (printed when ``excl``), ``[.hint]`` (when set),
#: ``[.bhint]`` (always, ``sptk`` by default), ``[.unit]`` (always) and
#: ``[,imm]`` (a post-increment, when non-zero).  Rows that share a
#: mnemonic are tried in this order when parsing.
SYNTAX: dict[Op, tuple[str, str]] = {
    Op.NOP: ("I", "nop[.unit] 0"),
    Op.ADD: ("A", "add {r1}={r2},{r3}"),
    Op.ADDI: ("A", "add {r1}={imm},{r2}"),
    Op.SUB: ("A", "sub {r1}={r2},{r3}"),
    Op.MOV: ("A", "mov {r1}={r2}"),
    Op.MOVI: ("A", "mov {r1}={imm}"),
    Op.AND: ("A", "and {r1}={r2},{r3}"),
    Op.OR: ("A", "or {r1}={r2},{r3}"),
    Op.XOR: ("A", "xor {r1}={r2},{r3}"),
    Op.SHL: ("A", "shl {r1}={r2},{imm}"),
    Op.SHR: ("A", "shr {r1}={r2},{imm}"),
    Op.SHLADD: ("A", "shladd {r1}={r2},{imm},{r3}"),
    Op.CMP_LT: ("A", "cmp.lt {p1},{p2}={r3},{r4}"),
    Op.CMP_LE: ("A", "cmp.le {p1},{p2}={r3},{r4}"),
    Op.CMP_EQ: ("A", "cmp.eq {p1},{p2}={r3},{r4}"),
    Op.CMP_NE: ("A", "cmp.ne {p1},{p2}={r3},{r4}"),
    Op.CMPI_LT: ("A", "cmp.lt {p1},{p2}={r3},{imm}"),
    Op.CMPI_LE: ("A", "cmp.le {p1},{p2}={r3},{imm}"),
    Op.CMPI_EQ: ("A", "cmp.eq {p1},{p2}={r3},{imm}"),
    Op.CMPI_NE: ("A", "cmp.ne {p1},{p2}={r3},{imm}"),
    Op.MOV_LC_IMM: ("A", "mov ar.lc={imm}"),
    Op.MOV_LC_REG: ("A", "mov ar.lc={r2}"),
    Op.MOV_EC_IMM: ("A", "mov ar.ec={imm}"),
    Op.ALLOC: ("A", "alloc rot={imm}"),
    Op.CLRRRB: ("A", "clrrrb"),
    Op.MOV_PR_ROT: ("A", "mov pr.rot={imm:#x}"),
    Op.LD8: ("M", "ld8[.bias] {r1}=[{r2}][,imm]"),
    Op.ST8: ("M", "st8 [{r2}]={r3}[,imm]"),
    Op.LDFD: ("M", "ldfd {f1}=[{r2}][,imm]"),
    Op.STFD: ("M", "stfd [{r2}]={f3}[,imm]"),
    Op.LFETCH: ("M", "lfetch[.excl][.hint] [{r2}][,imm]"),
    Op.FMA: ("A", "fma.d {f1}={f2},{f3},{f4}"),
    Op.FADD: ("A", "fadd.d {f1}={f2},{f3}"),
    Op.FSUB: ("A", "fsub.d {f1}={f2},{f3}"),
    Op.FMUL: ("A", "fmul.d {f1}={f2},{f3}"),
    Op.SETF: ("A", "setf.d {f1}={r2}"),
    Op.GETF: ("A", "getf.d {r1}={f2}"),
    Op.FABS: ("A", "fabs {f1}={f2}"),
    Op.FMAX: ("A", "fmax.d {f1}={f2},{f3}"),
    Op.BR: ("B", "br {target}"),
    Op.BR_COND: ("B", "br.cond[.bhint] {target}"),
    Op.BR_CTOP: ("B", "br.ctop[.bhint] {target}"),
    Op.BR_CLOOP: ("B", "br.cloop[.bhint] {target}"),
    Op.BR_WTOP: ("B", "br.wtop[.bhint] {target}"),
    Op.BR_CALL: ("B", "br.call {target}"),
    Op.BR_RET: ("B", "br.ret"),
    Op.HALT: ("B", "halt"),
    Op.FETCHADD8: ("M", "fetchadd8 {r1}=[{r2}],{imm}"),
}


@functools.cache
def pieces(text: str) -> tuple[str, ...]:
    """A row's text cut into literals, ``{field}``s and ``[optional]``s.

    Cut on first use, not at import: no command that only runs code
    prints or parses any (DESIGN.md §2 "The ISA is described once").
    """
    return tuple(p for p in re.split(r"(\{[\w:#]+\}|\[[.,]\w+\])", text) if p)


def operands(op: Op) -> tuple[str, ...]:
    """Register operands of ``op`` in text order: ``("f1", "r2")`` =
    field ``r1`` names an FR, ``r2`` a GR.

    Plain string work, no regex: the per-opcode sets other modules
    derive from it are built at import.
    """
    return tuple(c[:2] for c in SYNTAX[op][1].split("{")[1:] if c[2:3] == "}")


#: Opcodes that access the data memory hierarchy.
MEMORY_OPS = frozenset(op for op, (unit, _) in SYNTAX.items() if unit == "M")

#: All control-transfer opcodes.
BRANCH_OPS = frozenset(op for op, (_, text) in SYNTAX.items() if text.startswith("br"))

#: The loop branches the paper's Table 1 counts.
LOOP_BRANCH_OPS = frozenset({Op.BR_CTOP, Op.BR_CLOOP, Op.BR_WTOP})

_UNITS = ("M", "I", "F", "B", "A")


class Instruction:
    """One decoded instruction.

    Instances are treated as immutable once placed in a bundle; rewrites
    (COBRA optimizations) create modified copies via :meth:`clone`.
    """

    __slots__ = ("op", "qp", "r1", "r2", "r3", "r4", "imm", "hint", "excl", "unit", "label")

    def __init__(
        self,
        op: Op,
        *,
        qp: int = 0,
        r1: int = 0,
        r2: int = 0,
        r3: int = 0,
        r4: int = 0,
        imm: int | float = 0,
        hint: str | None = None,
        excl: bool = False,
        unit: str = "A",
        label: str | None = None,
    ) -> None:
        if unit not in _UNITS:
            raise ValueError(f"bad unit {unit!r}")
        self.op = op
        self.qp = qp
        self.r1 = r1
        self.r2 = r2
        self.r3 = r3
        self.r4 = r4
        self.imm = imm
        self.hint = hint
        self.excl = excl
        self.unit = unit
        self.label = label

    def clone(self, **changes: Any) -> "Instruction":
        """Copy with selected fields replaced."""
        kwargs = {name: getattr(self, name) for name in self.__slots__ if name != "op"}
        op = changes.pop("op", self.op)
        kwargs.update(changes)
        return Instruction(op, **kwargs)

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_OPS

    @property
    def is_prefetch(self) -> bool:
        return self.op is Op.LFETCH

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, s) for s in self.__slots__))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from .disassembler import format_instruction

        return f"<Instruction {format_instruction(self)}>"


def nop(unit: str = "I") -> Instruction:
    """A nop for the given issue unit (COBRA's noprefetch target)."""
    return Instruction(Op.NOP, unit=unit)
