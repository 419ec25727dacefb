"""Sample records delivered by the perfmon driver.

The paper (§3.1) specifies the sample layout: "Each sample consists of a
sample index, Program Counter (PC) address, process ID, thread ID,
processor ID, four performance counters, eight BTB entries, data cache
miss instruction address, miss latency, and miss data cache line
address."  ``Sample`` carries exactly those fields (the eight BTB
entries are the four (branch, target) pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.address import LINE_SHIFT

__all__ = ["Sample"]


@dataclass(frozen=True)
class Sample:
    """One HPM sample from one monitored thread."""

    index: int
    pc: int
    pid: int
    thread_id: int
    cpu_id: int
    counters: tuple[int, int, int, int]
    btb: tuple[tuple[int, int], ...]
    miss_pc: int | None
    miss_latency: int | None
    miss_addr: int | None
    cycles: int

    @property
    def miss_line(self) -> int | None:
        """Data cache line address of the captured miss (paper field)."""
        if self.miss_addr is None:
            return None
        return self.miss_addr >> LINE_SHIFT

    def has_miss(self) -> bool:
        return self.miss_pc is not None

    def anomaly(self, counter_mask: int) -> str | None:
        """Field-level sanity check; the reason this sample is garbage.

        Returns ``None`` for a well-formed sample.  A real perfmon
        buffer can hand the profiler torn or overwritten records (USB
        overflow, signal races), so every consumer must treat a sample
        as untrusted input: PC and BTB addresses are non-negative,
        counters fit the PMD width (``counter_mask``), and a captured
        miss has a non-negative latency.  Ordering anomalies (stale
        index, time travel) need cross-sample state and are checked by
        :class:`~repro.core.profiler.SystemProfiler`.  A sample is an
        in-process object, never JSON, so no :mod:`repro.shape` tree
        covers it; the window batch it is summed into crosses the wire
        and loads as :attr:`repro.hpm.batch.WindowBatch.PAYLOAD`.
        """
        if self.pc < 0:
            return "pc-range"
        if self.cycles < 0:
            return "cycles-range"
        if len(self.counters) != 4 or any(
            not 0 <= c <= counter_mask for c in self.counters
        ):
            return "counter-range"
        for branch, target in self.btb:
            if branch < 0 or target < 0:
                return "btb-range"
        if self.miss_latency is not None and self.miss_latency < 0:
            return "latency-range"
        return None
