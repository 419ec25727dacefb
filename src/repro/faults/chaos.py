"""Chaos harness: fault schedules must never change program outputs.

One axis set over :mod:`repro.scenario`: the reference is each
machine's fault-free plain run, the perturbed cells are COBRA
strategies under seeded fault schedules (a ``CobraConfig.faults``
delta).  The robustness invariant the sweep enforces:

* under any fault schedule, the program's committed outputs are
  bit-identical to the fault-free run (faults may cost performance,
  never correctness);
* no injected fault escapes as an unhandled exception;
* the run ends with a fully accounted fault ledger — every injected
  fault is either detected (actively recovered) or tolerated (harmless
  by construction).

Each cell of the (machine × strategy × seed) matrix runs on a fresh
machine with a fresh program build, so fault schedules cannot
contaminate each other and every failure replays from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from ..config import FaultConfig
from ..core.policy import STRATEGIES
from ..cpu.machine import Machine
from ..scenario import (
    Cell,
    Observables,
    SweepReport,
    WorkloadSpec,
    default_machines,
    seeded_sweep,
)
from .injector import FaultLedger

__all__ = ["ChaosHarness", "ChaosRecord", "ChaosReport", "CHAOS_STRATEGIES"]

#: Strategies worth faulting: every COBRA mode that actually monitors
#: and patches ("none" has no runtime to attack — it is the reference).
CHAOS_STRATEGIES = STRATEGIES


@dataclass(frozen=True)
class ChaosRecord:
    """One faulted (machine, strategy, seed) cell."""

    machine: str
    strategy: str
    seed: int
    cycles: int
    digest: str
    mode: str
    quarantined: int
    recoveries: int
    ledger: FaultLedger

    @property
    def label(self) -> str:
        return f"{self.machine}/{self.strategy}/seed={self.seed}"


@dataclass
class ChaosReport(SweepReport):
    """Outcome of one chaos sweep."""

    baseline_digests: dict[str, str] = field(default_factory=dict)

    def total_injected(self) -> int:
        return sum(r.ledger.injected for r in self.records)

    def headline(self) -> str:
        detected = sum(r.ledger.detected for r in self.records)
        tolerated = sum(r.ledger.tolerated for r in self.records)
        return (
            f"chaos[{self.workload}]: {len(self.records)} faulted run(s), "
            f"{self.total_injected()} fault(s) injected = {detected} detected + "
            f"{tolerated} tolerated, {'OK' if self.ok else 'FAIL'}"
        )

    def line(self, rec: ChaosRecord) -> str:
        return (
            f"{rec.label:34s} cycles={rec.cycles:<10d} "
            f"digest={rec.digest[:12]} mode={rec.mode} "
            f"injected={rec.ledger.injected} quarantined={rec.quarantined}"
        )


def _known_end_mode(cell: Cell, obs: Observables, _ref: Observables) -> list[str]:
    if obs.report.mode in ("normal", "monitor-only"):
        return []
    return [f"{cell.label}: unknown end mode {obs.report.mode!r}"]


@dataclass
class ChaosHarness:
    """Runs one workload across the machine × strategy × seed matrix."""

    workload: WorkloadSpec
    machines: Mapping[str, Callable[[], Machine]] | None = None
    strategies: tuple[str, ...] = CHAOS_STRATEGIES
    seeds: tuple[int, ...] = (0,)
    #: per-cell plans are this template re-seeded per run
    fault_config: FaultConfig | None = None

    def __post_init__(self) -> None:
        if self.machines is None:
            self.machines = default_machines()
        if self.fault_config is None:
            self.fault_config = FaultConfig()

    def run(self, jobs: int = 1) -> ChaosReport:
        swept = seeded_sweep(
            self.workload, self.machines, self.strategies, self.seeds,
            lambda strategy, seed: (
                strategy, {"faults": replace(self.fault_config, seed=seed)}
            ),
            jobs,
            checks=(_known_end_mode,),
            injected=lambda obs: obs.ledger.injected,
        )
        return ChaosReport(
            self.workload.name,
            [
                ChaosRecord(
                    cell.machine, *cell.axis, obs.cycles, obs.digest,
                    obs.report.mode, sum(obs.report.quarantined.values()),
                    len(obs.report.recovery_log), obs.ledger,
                )
                for cell, obs in swept.runs
            ],
            swept.failures,
            {mname: ref.digest for mname, ref in swept.references.items()},
        )
