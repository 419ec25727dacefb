"""The *prefetch.excl* optimization (paper §4, §5.2).

"This optimization also selectively chooses prefetch instructions that
cause long latency coherent misses and applies the .excl hint on the
selected prefetches."

``lfetch.excl`` prefetches the line in the Exclusive state, so a store
that soon follows does not trigger an invalidation transaction — the
ownership acquisition happens in the prefetch shadow instead of
stalling the store buffer.

Selectivity matters: exclusive-prefetching a stream that is only *read*
steals lines other threads need ("it could still fetch unnecessary
cache lines from other processors", §5.2.1).  The paper frames this as
"we need to find the prefetch instructions that are associated with the
load [and store] instructions" (§4).  :func:`associate_stored_streams`
performs that association by binary dataflow: an lfetch's address
register is traced back through the ``add rPF = dist, rBASE`` prefetch
initialization to the stream base register; lfetches whose stream base
is also a store's address register are the ones rewritten.
"""

from __future__ import annotations

from typing import Callable

from ...isa.binary import BinaryImage
from ...isa.bundle import BUNDLE_BYTES
from ...isa.instructions import Instruction, Op
from ..tracesel import LoopTrace

__all__ = ["make_excl_rewrite", "associate_stored_streams"]

#: How many bundles of loop preamble to scan for prefetch-register
#: initialization (the compiler emits it just before the loop).
_PREAMBLE_BUNDLES = 48

#: Rotating-register region start: an lfetch addressed by a rotating
#: register is the Figure-2 alternating queue covering *all* streams.
_ROT_BASE = 32


def associate_stored_streams(image: BinaryImage, loop: LoopTrace) -> set[int] | None:
    """Address registers of lfetches associated with stored streams.

    Returns the set of lfetch address registers to rewrite, or ``None``
    when the loop uses a rotating prefetch queue that includes a stored
    stream (the queue is a single instruction covering every stream, so
    it is rewritten whole — exactly what the paper does to DAXPY).
    An empty set means no store-associated prefetch was found.
    """
    store_regs: set[int] = set()
    lfetch_regs: set[int] = set()
    for _, bundle in loop.bundles(image):
        for instr in bundle.slots:
            if instr.op in (Op.STFD, Op.ST8):
                store_regs.add(instr.r2)
            elif instr.op is Op.LFETCH:
                lfetch_regs.add(instr.r2)

    # scan the preamble for prefetch-register derivations rPF = dist + rBASE
    derived: dict[int, set[int]] = {}
    preamble = max(image.base, loop.head - _PREAMBLE_BUNDLES * BUNDLE_BYTES)
    for _, bundle in image.bundles_in(preamble, loop.head - BUNDLE_BYTES):
        for instr in bundle.slots:
            if instr.op is Op.ADDI and instr.imm > 0:
                derived.setdefault(instr.r1, set()).add(instr.r2)

    rotating_queue = any(reg >= _ROT_BASE for reg in lfetch_regs)
    if rotating_queue:
        # a rotating queue alternates over *every* stream of the loop,
        # so it covers the stored stream exactly when the loop stores —
        # rewrite it whole (this is the paper's DAXPY case)
        return None if store_regs else set()

    selected = set()
    for reg in lfetch_regs:
        if derived.get(reg, set()) & store_regs:
            selected.add(reg)
    return selected


def make_excl_rewrite(
    address_regs: set[int] | None = None,
) -> Callable[[Instruction], Instruction | None]:
    """Build a rewrite adding ``.excl`` to selected lfetches.

    ``address_regs`` restricts the rewrite to lfetches whose address
    register is in the set (``None`` rewrites every lfetch).
    """

    def rewrite(instr: Instruction) -> Instruction | None:
        if instr.op is Op.LFETCH and not instr.excl:
            if address_regs is None or instr.r2 in address_regs:
                return instr.clone(excl=True)
        return None

    return rewrite
