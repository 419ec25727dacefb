"""A small assembler for the simulated ISA.

Accepts the textual syntax the disassembler emits (which follows the
paper's Figure 2): both read the same rows of
:data:`~repro.isa.instructions.SYNTAX`, so ``assemble(disassemble(img))``
round-trips by construction.  Intended for tests, examples, and
hand-written micro-kernels; the compiler builds
:class:`~repro.isa.instructions.Instruction` objects directly.

Supported forms::

    .b1_22:                         // label (bundle-aligned)
    { .mmb                          // explicit bundle
      (p16) ldfd f38=[r33]
      (p16) lfetch.nt1 [r43]
      nop.b 0 ;;
    }
    add r41=16,r43                  // loose instructions are packed
    br.ctop.sptk .b1_22             // greedily, 3 per bundle

Loose instructions are packed three to a bundle; a label or a branch
flushes the current bundle (labels must land on bundle boundaries).

A line is matched against the rows that share its mnemonic, first match
wins.  A register number outside its file, and anything that matches no
row — an operand of the wrong register file, a missing or extra operand,
a completer the row does not know — is an :class:`AssemblyError`
carrying the line.  Whitespace is free around ``=`` and ``,``.  A
mnemonic whose rows all spell the same plain completers (``fma.d``, or
none) ignores the completers it is given (``fma``, ``setf``); one whose
completers pick the row or set a field (``cmp.eq``, ``br.cond``,
``ld8[.bias]``, ``lfetch[.excl][.hint]``, ``nop[.unit]``) takes exactly
those, the optional ones in any order.
"""

from __future__ import annotations

import functools
import re

from ..errors import AssemblyError
from .binary import BinaryImage
from .bundle import Bundle
from .instructions import BRANCH_HINTS, LFETCH_HINTS, SYNTAX, Instruction, Op, pieces

__all__ = ["assemble", "parse_instruction"]

_LABEL_RE = re.compile(r"^([.\w$]+):$")
_PRED_RE = re.compile(r"^\(p(\d+)\)\s+(.*)$")

#: What only the assembler spells: aliases of a mnemonic, and pseudo-ops
#: written as rows of the opcode they assemble to (fields a row does not
#: name stay 0, so ``mov f4=f5`` is ``fadd.d f4=f5,f0``).
_ALIASES = {"adds": "add", "movl": "mov"}
_PSEUDO = [
    (Op.NOP, "nop"),
    (Op.FADD, "mov {f1}={f2}"),
    (Op.FADD, "mov {f1}=0"),
]

_REGISTERS = {"r": 128, "f": 128, "p": 64}
_IMM = r"(?P<imm>[-+]?\d\w*)"

#: operand piece of a row -> the regex that reads it back
_READ = {
    "{imm}": _IMM,
    "{imm:#x}": _IMM,
    "{target}": r"(?P<target>\S+)",
    "[,imm]": rf"(?:\s*,\s*{_IMM})?",
}

#: completer piece of a row -> word it accepts -> (field, value)
_COMPLETERS = {
    "[.unit]": {u.lower(): ("unit", u) for u in "MIFB"},
    "[.bias]": {"bias": ("excl", True)},
    "[.excl]": {"excl": ("excl", True)},
    "[.hint]": {h: ("hint", h) for h in LFETCH_HINTS},
    "[.bhint]": {h: ("hint", h) for h in BRANCH_HINTS},
}


def _operand_regex(text: str) -> re.Pattern:
    out = []
    for piece in pieces(text):
        if piece in _READ:
            out.append(_READ[piece])
        elif piece[0] == "{":
            out.append(rf"{piece[1]}(?P<{piece[1:3]}>\d+)")     # "{f1}" reads f<n>
        else:
            out.append(re.sub(r"([=,])", r"\\s*\1\\s*", re.escape(piece)))
    return re.compile("".join(out))


@functools.cache
def _forms() -> dict[str, list]:
    """mnemonic -> [[op, fixed completers, optional completers, operands]].

    Built on the first parse: compiling ~50 regexes costs every process
    10+ ms, and only ``assemble`` callers ever need them.
    """
    forms: dict[str, list] = {}
    for op, text in [(op, text) for op, (_, text) in SYNTAX.items()] + _PSEUDO:
        mnemonic, _, operand_text = text.partition(" ")
        head, *optional = pieces(mnemonic)
        name, *fixed = head.split(".")
        words = {w: fv for piece in optional for w, fv in _COMPLETERS[piece].items()}
        forms.setdefault(name, []).append([op, fixed, words, _operand_regex(operand_text)])
    for rows in forms.values():
        # one spelling of plain completers for the whole mnemonic: they
        # pick no row and set no field, so the line's are ignored
        if all(fixed == rows[0][1] and not words for _, fixed, words, _ in rows):
            for row in rows:
                row[1] = None
    return forms


def _completers(given: list[str], fixed: list[str] | None, words: dict) -> dict | None:
    """Fields the line's completers set under one row, None if not its."""
    if fixed is None:
        return {}
    if given[: len(fixed)] != fixed:
        return None
    fields: dict = {}
    for word in given[len(fixed):]:
        field, value = words.get(word, (None, None))
        if field is None or field in fields:
            return None
        fields[field] = value
    return fields


def _register(file: str, number: str, line: int) -> int:
    if int(number) >= _REGISTERS[file]:
        raise AssemblyError(f"no register {file}{number}", line)
    return int(number)


def _operand(key: str, text: str, line: int) -> tuple[str, object]:
    """The field a matched operand sets, and its value."""
    if key not in ("imm", "target"):
        return "r" + key[1], _register(key[0], text, line)
    try:
        return "imm", int(text, 0)
    except ValueError:
        if key == "target":
            return "label", text
        raise AssemblyError(f"bad integer {text!r}", line) from None


def parse_instruction(text: str, line: int = 0) -> Instruction:
    """Parse one instruction (with optional ``(pN)`` prefix)."""
    text = text.strip()
    qp = 0
    m = _PRED_RE.match(text)
    if m:
        qp = _register("p", m.group(1), line)
        text = m.group(2).strip()
    if text.endswith(";;"):
        text = text[:-2].strip()
    mnemonic, body = (text.split(None, 1) + ["", ""])[:2]
    name, *given = mnemonic.split(".")
    rows = _forms().get(_ALIASES.get(name, name))
    if rows is None:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line)
    for op, fixed, words, regex in rows:
        fields = _completers(given, fixed, words)
        m = regex.fullmatch(body)
        if fields is not None and m is not None:
            fields.setdefault("unit", SYNTAX[op][0])
            fields.update(
                _operand(key, value, line)
                for key, value in m.groupdict().items() if value is not None
            )
            return Instruction(op, qp=qp, **fields)
    raise AssemblyError(f"{text!r} is no form of {name!r}", line)


def _pad_bundle(instrs: list[Instruction]) -> Bundle:
    from .instructions import nop

    slots = list(instrs)
    if slots and slots[-1].is_branch:
        # keep the branch in the last slot (IA-64 .mib/.mmb convention)
        while len(slots) < 3:
            slots.insert(len(slots) - 1, nop("M" if len(slots) == 1 else "I"))
    else:
        while len(slots) < 3:
            slots.append(nop("I"))
    return Bundle(slots)


def assemble(text: str, base: int | None = None) -> BinaryImage:
    """Assemble source text into a linked :class:`BinaryImage`."""
    image = BinaryImage() if base is None else BinaryImage(base)
    pending: list[Instruction] = []
    in_bundle = False
    bundle_slots: list[Instruction] = []
    bundle_template: str | None = None

    def flush() -> None:
        while pending:
            chunk, rest = pending[:3], pending[3:]
            # keep a branch (or halt) in the last slot of its bundle
            for i, ins in enumerate(chunk[:-1]):
                if ins.is_branch or ins.op is Op.HALT:
                    chunk, rest = chunk[: i + 1], chunk[i + 1 :] + rest
                    break
            image.append(_pad_bundle(chunk))
            pending[:] = rest

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("//", 1)[0].strip()
        # tolerate disassembler output: strip a leading address column
        m = re.match(r"^0x[0-9a-fA-F]+\s+(.*)$", code)
        if m:
            code = m.group(1).strip()
        if not code:
            continue
        if code.startswith("{"):
            if in_bundle:
                raise AssemblyError("nested bundle", lineno)
            flush()
            in_bundle = True
            bundle_slots = []
            rest = code[1:].strip()
            bundle_template = rest[1:] if rest.startswith(".") else None
            continue
        if code == "}":
            if not in_bundle:
                raise AssemblyError("unmatched '}'", lineno)
            if len(bundle_slots) != 3:
                raise AssemblyError(f"bundle has {len(bundle_slots)} slots", lineno)
            image.append(Bundle(bundle_slots, bundle_template))
            in_bundle = False
            continue
        m = _LABEL_RE.match(code)
        if m:
            if in_bundle:
                raise AssemblyError("label inside bundle", lineno)
            flush()
            image.mark(m.group(1))
            continue
        instr = parse_instruction(code, lineno)
        if in_bundle:
            bundle_slots.append(instr)
        else:
            pending.append(instr)
            if instr.is_branch or instr.op is Op.HALT:
                flush()
    if in_bundle:
        raise AssemblyError("unterminated bundle")
    flush()
    image.link()
    return image
