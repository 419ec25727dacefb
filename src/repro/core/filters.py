"""Two-level DEAR latency filtering (paper §4).

Level one happens in hardware: the DEAR is programmed to drop events at
or below the L3-hit band (12 cycles), so "memory loads that cause L2
cache misses but are satisfied by L3 cache hits" never reach COBRA.

Level two is this module: among the captured events, latencies above
``coherent_latency_threshold`` (the paper observes coherent misses at
180-200+ cycles vs 120-150 for plain memory loads) are classified as
*coherent* misses; the rest are plain memory misses.  The optimizer
only rewrites prefetches in loops whose filtered profile is dominated
by coherent misses — this selectivity is what keeps noprefetch from
removing *useful* prefetches (§5.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CobraConfig
from ..hpm.sample import Sample

__all__ = ["MissStats", "MissProfile"]


@dataclass
class MissStats:
    """Filtered DEAR statistics for one instruction address."""

    pc: int
    samples: int = 0
    coherent: int = 0
    total_latency: int = 0
    lines: set[int] = field(default_factory=set)
    threads: set[int] = field(default_factory=set)


class MissProfile:
    """Accumulates level-two-filtered miss events across all threads."""

    def __init__(self, config: CobraConfig) -> None:
        self.config = config
        self.by_pc: dict[int, MissStats] = {}
        self.total_events = 0
        self.total_coherent = 0

    def add_sample(self, sample: Sample) -> None:
        """Fold one HPM sample's DEAR capture into the profile."""
        if sample.miss_pc is None:
            return
        latency = sample.miss_latency or 0
        # level one (defensive re-check; the DEAR already filtered)
        if latency <= self.config.dear_latency_floor:
            return
        stats = self.by_pc.get(sample.miss_pc)
        if stats is None:
            stats = self.by_pc[sample.miss_pc] = MissStats(sample.miss_pc)
        stats.samples += 1
        stats.total_latency += latency
        if sample.miss_line is not None:
            stats.lines.add(sample.miss_line)
        stats.threads.add(sample.thread_id)
        self.total_events += 1
        if latency > self.config.coherent_latency_threshold:
            stats.coherent += 1
            self.total_coherent += 1

    def hot_pcs(self, min_samples: int = 1) -> list[MissStats]:
        """Miss sites ordered by total stall contribution."""
        out = [s for s in self.by_pc.values() if s.samples >= min_samples]
        out.sort(key=lambda s: s.total_latency, reverse=True)
        return out

    def decay(self, factor: float = 0.5) -> None:
        """Age the profile so re-adaptation tracks phase changes."""
        for stats in list(self.by_pc.values()):
            stats.samples = int(stats.samples * factor)
            stats.coherent = int(stats.coherent * factor)
            stats.total_latency = int(stats.total_latency * factor)
            if stats.samples == 0:
                del self.by_pc[stats.pc]
        self.total_events = sum(s.samples for s in self.by_pc.values())
        self.total_coherent = sum(s.coherent for s in self.by_pc.values())
