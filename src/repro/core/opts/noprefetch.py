"""The *noprefetch* optimization (paper §5.2).

"This optimization selectively reduces the aggressiveness of
prefetching to remove unnecessary coherent cache misses.  Our runtime
profiler guides the optimizer to select prefetches in a few loops and
turn them into NOP instructions."

The rewrite replaces ``lfetch`` slots with unit-compatible ``nop``
instructions, preserving the bundle shape exactly — the optimized loop
has identical issue geometry to the original, as the paper's hand-made
comparison binaries do.
"""

from __future__ import annotations

from typing import Callable

from ...isa.instructions import Instruction, Op, nop

__all__ = ["make_noprefetch_rewrite"]


def make_noprefetch_rewrite() -> Callable[[Instruction], Instruction | None]:
    """Build a rewrite turning every lfetch of the trace into a nop.

    Selection happens at loop granularity (paper §4): the loop was
    picked by the profile, so all of its prefetches are implicated.
    """

    def rewrite(instr: Instruction) -> Instruction | None:
        if instr.op is Op.LFETCH:
            return nop("M")
        return None

    return rewrite
