"""Instruction bundles.

IA-64 packs three instruction slots into a 16-byte bundle tagged with a
template that names the issue units (``.mii``, ``.mmb``, ``.mfi`` ...).
The simulator keeps the bundle structure because COBRA patches code at
bundle granularity: ``noprefetch`` replaces an ``lfetch`` slot with a
unit-compatible ``nop`` so the bundle shape is preserved, and trace
deployment replaces a whole entry bundle with a branch.
"""

from __future__ import annotations

from ..errors import BundleError
from .instructions import SYNTAX, Instruction, Op, operands

__all__ = ["Bundle", "BUNDLE_BYTES", "SLOTS_PER_BUNDLE"]

#: Size of one bundle in the simulated address space.
BUNDLE_BYTES = 16

SLOTS_PER_BUNDLE = 3

#: Unit letters a slot of each kind may legally hold.  'A'-type ALU ops
#: issue on either an M or an I slot, as on real IA-64.
_COMPATIBLE = {
    "M": {"M", "A"},
    "I": {"I", "A"},
    "F": {"F"},
    "B": {"B"},
    "L": {"I", "A"},  # movl occupies L+X; modeled as one long slot
}

#: Ops the assembler leaves 'A' that touch an FR: they issue on an F unit.
_F_OPS = frozenset(
    op for op, (unit, _) in SYNTAX.items()
    if unit == "A" and any(kind[0] == "f" for kind in operands(op))
)


def _default_unit(instr: Instruction) -> str:
    """Issue unit of an instruction; 'A' = ALU op usable on M or I."""
    if instr.is_memory:
        return "M"
    if instr.is_branch:
        return "B"
    if instr.op in _F_OPS:
        return "F"
    return instr.unit


class Bundle:
    """Three instruction slots plus a template."""

    __slots__ = ("slots", "template")

    def __init__(self, slots: list[Instruction], template: str | None = None) -> None:
        if len(slots) != SLOTS_PER_BUNDLE:
            raise BundleError(f"bundle needs {SLOTS_PER_BUNDLE} slots, got {len(slots)}")
        if template is None:
            template = "".join(
                ("i" if u == "A" else u.lower())
                for u in (_default_unit(i) for i in slots)
            )
        template = template.lower()
        if len(template) != SLOTS_PER_BUNDLE:
            raise BundleError(f"bad template {template!r}")
        for slot_unit, instr in zip(template.upper(), slots):
            if slot_unit not in _COMPATIBLE:
                raise BundleError(f"unknown unit {slot_unit!r} in template")
            if instr.op is Op.NOP or instr.op is Op.HALT:
                continue  # nops fill any slot in the simulator
            unit = _default_unit(instr)
            if unit not in _COMPATIBLE[slot_unit] and unit != slot_unit:
                raise BundleError(
                    f"instruction unit {unit} illegal in {slot_unit} slot "
                    f"(template {template!r})"
                )
        self.slots = list(slots)
        self.template = template

    def with_slot(self, index: int, instr: Instruction) -> "Bundle":
        """A copy of this bundle with one slot replaced.

        The replacement must be unit-compatible with the slot; COBRA's
        rewrites (lfetch -> nop, lfetch -> lfetch.excl) always are.
        """
        if not 0 <= index < SLOTS_PER_BUNDLE:
            raise BundleError(f"slot index {index} out of range")
        slots = list(self.slots)
        slots[index] = instr
        return Bundle(slots, self.template)

    def __iter__(self):
        return iter(self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bundle):
            return NotImplemented
        return self.slots == other.slots and self.template == other.template

    def __hash__(self) -> int:
        return hash((tuple(self.slots), self.template))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        from .disassembler import format_bundle

        return f"<Bundle {format_bundle(self)}>"
