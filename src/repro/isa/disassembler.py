"""Textual disassembly in the paper's (IA-64 assembly) style.

An instruction prints as its row of
:data:`~repro.isa.instructions.SYNTAX` with each piece filled in from
the instruction's fields — there is no per-opcode code here, so what
this module prints is, row by row, what the assembler parses.
``format_bundle`` reproduces the layout of the paper's Figure 2::

    { .mmb
      (p16) ldfd f38=[r33]
      (p16) lfetch.nt1 [r43]
      nop.b 0 ;;
    }
"""

from __future__ import annotations

import functools

from .bundle import Bundle
from .instructions import SYNTAX, Instruction, Op, pieces

__all__ = ["format_instruction", "format_bundle", "disassemble"]

#: piece of a row -> what it prints for an instruction
_WRITE = {
    "{imm}": lambda i: str(i.imm),
    "{imm:#x}": lambda i: f"{int(i.imm):#x}",
    "{target}": lambda i: i.label if i.label is not None else f"{int(i.imm):#x}",
    "[.unit]": lambda i: f".{i.unit.lower()}",
    "[.bias]": lambda i: ".bias" if i.excl else "",
    "[.excl]": lambda i: ".excl" if i.excl else "",
    "[.hint]": lambda i: f".{i.hint}" if i.hint else "",
    "[.bhint]": lambda i: f".{i.hint or 'sptk'}",
    "[,imm]": lambda i: f",{i.imm}" if i.imm else "",
}


def _writer(piece: str):
    if piece in _WRITE:
        return _WRITE[piece]
    if piece[0] != "{":
        return piece    # literal text
    file, field = piece[1], "r" + piece[2]      # "{f1}": FR named by r1
    return lambda i: f"{file}{getattr(i, field)}"


@functools.cache
def _writers(op: Op) -> tuple:
    return tuple(_writer(piece) for piece in pieces(SYNTAX[op][1]))


def format_instruction(instr: Instruction) -> str:
    """Render one instruction without its qualifying-predicate prefix."""
    return "".join(w if type(w) is str else w(instr) for w in _writers(instr.op))


def format_predicated(instr: Instruction) -> str:
    """Instruction text with its ``(pN)`` prefix when predicated."""
    text = format_instruction(instr)
    return f"(p{instr.qp}) {text}" if instr.qp else text


def format_bundle(bundle: Bundle, indent: str = "  ") -> str:
    """Multi-line rendering of one bundle, Figure-2 style."""
    lines = [f"{{ .{bundle.template}"]
    for i, instr in enumerate(bundle.slots):
        stop = " ;;" if i == len(bundle.slots) - 1 else ""
        lines.append(f"{indent}{format_predicated(instr)}{stop}")
    lines.append("}")
    return "\n".join(lines)


def disassemble(image, start: int | None = None, end: int | None = None) -> str:
    """Disassemble an address range of a :class:`BinaryImage`.

    Labels from the image's symbol table are interleaved at their
    addresses.
    """
    by_addr: dict[int, list[str]] = {}
    for name, addr in image.labels.items():
        by_addr.setdefault(addr, []).append(name)
    out: list[str] = []
    for addr, bundle in image.iter_bundles():
        if start is not None and addr < start:
            continue
        if end is not None and addr >= end:
            continue
        for name in by_addr.get(addr, ()):
            out.append(f"{name}:")
        body = format_bundle(bundle)
        out.append(f"{addr:#010x}  " + body.replace("\n", f"\n{'':12}"))
    return "\n".join(out)
