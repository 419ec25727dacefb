"""ISA-level validation: round-trip fixpoints and patch/rollback identity.

COBRA's whole mechanism is rewriting live code, so the tooling that
reads and writes bundles must be lossless:

* **roundtrip** — ``assemble(disassemble(image))`` reproduces the image
  exactly (canonical byte encoding), and a second disassembly emits
  byte-identical text (the fixpoint);
* **patch-rollback** — applying journaled patches and reverting them
  restores the original bundle bytes exactly.

There is no hardware encoding in the simulator, so "bytes" here is a
canonical serialization (:func:`encode_instruction`): operands, hints,
and flags packed into a fixed record, with default branch hints
normalized the same way the disassembler prints them.  Byte-identical
encodings mean the images are operationally indistinguishable to the
cores and to COBRA's patcher.
"""

from __future__ import annotations

import struct

from ..errors import InvariantViolation, ValidationError
from ..isa.assembler import assemble
from ..isa.binary import BinaryImage
from ..isa.bundle import Bundle
from ..isa.disassembler import disassemble
from ..isa.instructions import BRANCH_HINTS, LFETCH_HINTS, SYNTAX, Instruction, Op, nop

__all__ = [
    "encode_instruction",
    "encode_bundle",
    "encode_image",
    "check_roundtrip",
    "check_patch_rollback",
    "check_image",
]

#: Branch ops whose omitted hint prints (and reparses) as ``sptk``.
_HINTED_BRANCHES = frozenset(op for op, (_, text) in SYNTAX.items() if "[.bhint]" in text)

_UNIT_CODE = {"M": 0, "I": 1, "F": 2, "B": 3, "A": 4}
_HINT_CODE = {hint: code for code, hint in enumerate((None, *BRANCH_HINTS, *LFETCH_HINTS))}


def encode_instruction(instr: Instruction) -> bytes:
    """Canonical 24-byte encoding of one linked instruction."""
    if instr.label is not None:
        raise ValidationError(
            f"cannot encode unlinked instruction (label {instr.label!r})"
        )
    hint = instr.hint
    if hint is None and instr.op in _HINTED_BRANCHES:
        hint = "sptk"  # the disassembler's (and reassembler's) default
    try:
        hint_code = _HINT_CODE[hint]
    except KeyError:
        raise ValidationError(f"unknown hint {hint!r}") from None
    return struct.pack(
        "<BBBBBBqBBBx",
        int(instr.op),
        instr.qp,
        instr.r1,
        instr.r2,
        instr.r3,
        instr.r4,
        int(instr.imm),
        hint_code,
        1 if instr.excl else 0,
        _UNIT_CODE[instr.unit],
    )


def encode_bundle(bundle: Bundle) -> bytes:
    return bundle.template.encode() + b"".join(
        encode_instruction(instr) for instr in bundle.slots
    )


def encode_image(image: BinaryImage) -> bytes:
    """Canonical serialization of every bundle, in address order."""
    chunks = []
    for addr, bundle in image.iter_bundles():
        chunks.append(struct.pack("<q", addr))
        chunks.append(encode_bundle(bundle))
    return b"".join(chunks)


def _report(
    violations: list[InvariantViolation],
    mode: str,
    invariant: str,
    message: str,
) -> None:
    violation = InvariantViolation(message, invariant=invariant)
    if mode == "strict":
        raise violation
    violations.append(violation)


def check_roundtrip(image: BinaryImage, mode: str = "strict") -> list[InvariantViolation]:
    """assemble→disassemble→reassemble must be a fixpoint for ``image``."""
    violations: list[InvariantViolation] = []
    text = disassemble(image)
    try:
        rebuilt = assemble(text, base=image.base)
    except Exception as exc:  # noqa: BLE001 - any parse failure is the finding
        _report(
            violations, mode, "isa-roundtrip",
            f"disassembly does not reassemble: {exc}",
        )
        return violations
    if len(rebuilt) != len(image):
        _report(
            violations, mode, "isa-roundtrip",
            f"bundle count changed: {len(image)} -> {len(rebuilt)}",
        )
        return violations
    for (addr_a, bundle_a), (addr_b, bundle_b) in zip(
        image.iter_bundles(), rebuilt.iter_bundles()
    ):
        if addr_a != addr_b:
            _report(
                violations, mode, "isa-roundtrip",
                f"bundle address drifted: {addr_a:#x} -> {addr_b:#x}",
            )
            return violations
        if encode_bundle(bundle_a) != encode_bundle(bundle_b):
            _report(
                violations, mode, "isa-roundtrip",
                f"bundle at {addr_a:#x} not byte-identical after round-trip "
                f"({bundle_a!r} -> {bundle_b!r})",
            )
            return violations
    if disassemble(rebuilt) != text:
        _report(
            violations, mode, "isa-roundtrip",
            "second disassembly is not a textual fixpoint",
        )
    return violations


def check_patch_rollback(
    image: BinaryImage,
    mode: str = "strict",
    max_sites: int = 8,
) -> list[InvariantViolation]:
    """Patch + revert must restore the original image byte-identically.

    Uses the image's real lfetch sites when present (COBRA's in-place
    rewrite target), falling back to the first bundle's slots, and the
    same journal path COBRA's rollback uses.
    """
    violations: list[InvariantViolation] = []
    before = encode_image(image)
    sites = image.find_ops(Op.LFETCH)[:max_sites]
    if not sites:
        try:
            addr = next(iter(image.iter_bundles()))[0]
        except StopIteration:
            return violations  # empty image: nothing to patch
        sites = [(addr, slot) for slot in range(3)]
    applied = []
    for addr, slot in sites:
        unit = image.fetch_bundle(addr).template[slot].upper()
        if unit == "L":  # movl's long slot issues like an I slot
            unit = "I"
        image.patch_slot(addr, slot, nop(unit), reason="validate: patch/rollback probe")
        applied.append(image.patches[-1])
    if encode_image(image) == before and any(
        p.old != p.new for p in applied
    ):
        _report(
            violations, mode, "isa-patch",
            "patching changed bundles but not the canonical encoding",
        )
    for patch in reversed(applied):
        image.revert_patch(patch)
    after = encode_image(image)
    if after != before:
        _report(
            violations, mode, "isa-patch",
            f"image not byte-identical after rollback of {len(applied)} patch(es)",
        )
    return violations


def check_image(image: BinaryImage, mode: str = "strict") -> list[InvariantViolation]:
    """Run every ISA-level check on one image."""
    violations = check_roundtrip(image, mode)
    violations += check_patch_rollback(image, mode)
    return violations
