"""The *ld.bias* optimization (paper §4).

"Itanium 2 supports .bias hint for integer load instructions.  When a
load operation with .bias hint misses the cache, it requests the cache
line in the exclusive state ... If a store operation soon follows the
load operation, and it writes to the same cache line, it will not
trigger a coherent bus transaction."

The rewrite targets the read-modify-write idiom (``ld8 r=[a]``; modify;
``st8 [a]=r``) that indexed counters produce: the biased load performs
one read-for-ownership instead of a shared read followed by an
ownership upgrade.  As the paper notes, applicability "is very
limited" — the association requires a plain (non-speculative,
non-post-increment) integer load whose address register is also a store
address in the same loop.
"""

from __future__ import annotations

from typing import Callable

from ...isa.binary import BinaryImage
from ...isa.instructions import Instruction, Op
from ..tracesel import LoopTrace

__all__ = ["make_bias_rewrite", "find_rmw_load_regs"]


def find_rmw_load_regs(image: BinaryImage, loop: LoopTrace) -> set[int]:
    """Address registers of read-modify-write ``ld8``/``st8`` pairs."""
    load_regs: set[int] = set()
    store_regs: set[int] = set()
    for _, bundle in loop.bundles(image):
        for instr in bundle.slots:
            if instr.op is Op.LD8 and not instr.imm and not instr.excl:
                load_regs.add(instr.r2)
            elif instr.op is Op.ST8 and not instr.imm:
                store_regs.add(instr.r2)
    return load_regs & store_regs


def make_bias_rewrite(
    address_regs: set[int],
) -> Callable[[Instruction], Instruction | None]:
    """Build a rewrite adding ``.bias`` to the selected RMW loads."""

    def rewrite(instr: Instruction) -> Instruction | None:
        if (
            instr.op is Op.LD8
            and not instr.excl
            and not instr.imm
            and instr.r2 in address_regs
        ):
            return instr.clone(excl=True)  # excl flag renders as ld8.bias
        return None

    return rewrite
