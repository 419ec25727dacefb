"""Trace selection: hot-loop discovery from BTB profiles (paper §3.2, §4).

"Using BTB to capture the last 4 taken branches and their target
addresses, we could easily discover the loop boundaries to determine
the PC addresses having lfetch instruction within the identified
boundaries."

A backward taken branch ``(branch_pc, target)`` with ``target <=
branch_pc`` delimits a candidate loop body ``[target, branch_pc]``.
COBRA then scans the *binary text* of that range for ``lfetch`` slots —
it never consults compiler metadata, exactly like the real system
working on opaque binaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..isa.binary import BinaryImage, pc_bundle
from ..isa.bundle import BUNDLE_BYTES, Bundle
from ..isa.instructions import Op
from .filters import MissStats
from .profiler import SystemProfiler

__all__ = ["LoopTrace", "select_loop_traces"]


@dataclass
class LoopTrace:
    """One discovered hot loop and its rewrite targets."""

    head: int                  # bundle address of the loop entry (branch target)
    back_branch: int           # pc of the loop-closing taken branch
    hotness: int               # BTB occurrence count
    lfetch_sites: list[tuple[int, int]] = field(default_factory=list)
    misses: list[MissStats] = field(default_factory=list)

    @classmethod
    def scan(
        cls, image: BinaryImage, head: int, back_branch: int, hotness: int
    ) -> "LoopTrace":
        """The loop ``[head, back_branch]`` with its lfetch sites read from ``image``.

        Every trace is made here: a candidate off the BTB profile and a
        loop named by a checkpoint or profile-database record alike.
        """
        trace = cls(head, back_branch, hotness)
        trace.lfetch_sites = [
            (addr, slot)
            for addr, bundle in trace.bundles(image)
            for slot, instr in enumerate(bundle.slots)
            if instr.op is Op.LFETCH
        ]
        return trace

    @property
    def end_bundle(self) -> int:
        return pc_bundle(self.back_branch)

    @property
    def n_bundles(self) -> int:
        return (self.end_bundle - self.head) // BUNDLE_BYTES + 1

    def bundles(self, image: BinaryImage) -> Iterator[tuple[int, Bundle]]:
        """``(address, bundle)`` over the loop's range of ``image``."""
        return image.bundles_in(self.head, self.end_bundle)

    def sample_count(self) -> int:
        return sum(m.samples for m in self.misses)

    def coherent_count(self) -> int:
        return sum(m.coherent for m in self.misses)

    def coherent_share(self) -> float:
        total = self.sample_count()
        return self.coherent_count() / total if total else 0.0

    def contains(self, pc: int) -> bool:
        return self.head <= pc <= self.back_branch


def select_loop_traces(
    profiler: SystemProfiler,
    image: BinaryImage,
    max_loops: int = 16,
    max_bundles: int = 256,
) -> list[LoopTrace]:
    """Build hot-loop candidates from the BTB profile.

    Nested loops appear as multiple backward branches; each candidate
    keeps its own range, and miss sites are attributed to the innermost
    (smallest) enclosing candidate.
    """
    traces: list[LoopTrace] = []
    for (branch, target), count in profiler.backward_branches()[: max_loops * 2]:
        head = pc_bundle(target)
        end = pc_bundle(branch)
        if head not in image.bundles or end not in image.bundles:
            continue  # stale BTB entry from another image (e.g. trace cache)
        if (end - head) // BUNDLE_BYTES + 1 > max_bundles:
            continue
        # calls and returns also appear as "backward taken branches" in
        # the BTB; COBRA inspects the binary to keep only loop-closing
        # branch types (paper §3.2: traces are built around loops)
        closer = image.bundles[end].slots[branch & 0xF]
        if closer.op in (Op.BR_CALL, Op.BR_RET):
            continue
        traces.append(LoopTrace.scan(image, head, branch, count))
        if len(traces) >= max_loops:
            break

    # attribute filtered miss sites to their innermost enclosing loop —
    # but only misses of *streaming* accesses (post-increment loads and
    # stores).  An indexed gather load misses for algorithmic reasons;
    # no prefetch rewrite can help it, so it must not qualify a loop
    # (this is the selectivity that protects useful prefetches, §5.2.1).
    for stats in profiler.misses.hot_pcs():
        bundle = image.bundles.get(pc_bundle(stats.pc))
        if bundle is None:
            continue
        instr = bundle.slots[stats.pc & 0xF]
        if instr.op in (Op.LD8, Op.LDFD) and not instr.imm:
            continue  # non-streaming load: not prefetch-induced
        enclosing = [t for t in traces if t.contains(stats.pc)]
        if not enclosing:
            continue
        innermost = min(enclosing, key=lambda t: t.n_bundles)
        innermost.misses.append(stats)

    # expand to the outermost enclosing candidate that still has lfetch
    # sites: redirecting at the outer loop head amortizes the trace
    # entry/exit branches over the whole nest ("hot loops and leading
    # execution paths to the loops", §3.2).  Inner candidates swallowed
    # by an expansion are dropped so deployments never overlap.
    selected: list[LoopTrace] = []
    consumed: set[int] = set()
    for trace in sorted(traces, key=lambda t: t.n_bundles, reverse=True):
        if id(trace) in consumed or not trace.lfetch_sites:
            continue
        for inner in traces:
            if inner is trace or id(inner) in consumed:
                continue
            if trace.head <= inner.head and inner.back_branch <= trace.back_branch:
                trace.misses.extend(inner.misses)
                trace.hotness += inner.hotness
                consumed.add(id(inner))
        selected.append(trace)

    selected.sort(key=lambda t: t.sample_count(), reverse=True)
    return selected
