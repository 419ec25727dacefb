"""Branch Trace Buffer access.

The Itanium 2 BTB "keeps track of four address pairs from the last four
taken branches and branch targets" (paper §3.1); COBRA samples it to
rebuild hot execution paths and loop boundaries without instrumenting
the code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..cpu.core import Core

__all__ = ["BranchTraceBuffer", "BTB_PAIRS"]

BTB_PAIRS = 4


class BranchTraceBuffer:
    """Read-only view of a core's last-taken-branch pairs."""

    def __init__(self, core: "Core") -> None:
        self.core = core

    def snapshot(self) -> tuple[tuple[int, int], ...]:
        """The last up-to-four (branch address, target address) pairs,
        oldest first."""
        return tuple(self.core.btb)
