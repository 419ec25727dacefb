"""Metrics: the normalized quantities the paper's figures report.

Every figure in the evaluation section is a *ratio* against the
``prefetch`` baseline: speedup (Fig. 5), normalized L3 misses (Fig. 6),
normalized bus memory transactions (Fig. 7).  The helpers here compute
those ratios from :class:`~repro.runtime.team.RunResult` pairs and
aggregate them the way the paper does (per-benchmark bars plus an
arithmetic-mean ``avg`` bar).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime.team import RunResult

__all__ = ["Comparison", "ExperimentSeries"]


@dataclass(frozen=True)
class Comparison:
    """One optimized run against its baseline."""

    name: str
    baseline: RunResult
    optimized: RunResult

    @property
    def speedup(self) -> float:
        """Baseline time / optimized time (>1 means the optimization won)."""
        if self.optimized.cycles == 0:
            return 0.0
        return self.baseline.cycles / self.optimized.cycles

    @property
    def normalized_l3(self) -> float:
        """Optimized L3 misses / baseline L3 misses (Fig. 6)."""
        base = self.baseline.events.l3_misses
        return self.optimized.events.l3_misses / base if base else 0.0

    @property
    def normalized_bus(self) -> float:
        """Optimized bus transactions / baseline (Fig. 7)."""
        base = self.baseline.events.bus_memory
        return self.optimized.events.bus_memory / base if base else 0.0


@dataclass
class ExperimentSeries:
    """A figure's worth of comparisons (one per benchmark)."""

    title: str
    comparisons: list[Comparison] = field(default_factory=list)

    def add(self, comparison: Comparison) -> None:
        self.comparisons.append(comparison)

    def _mean(self, values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def avg_speedup(self) -> float:
        return self._mean([c.speedup for c in self.comparisons])

    def max_speedup(self) -> float:
        return max((c.speedup for c in self.comparisons), default=0.0)

    def avg_normalized_l3(self) -> float:
        return self._mean([c.normalized_l3 for c in self.comparisons])

    def avg_normalized_bus(self) -> float:
        return self._mean([c.normalized_bus for c in self.comparisons])
