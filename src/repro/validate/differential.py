"""Differential execution harness.

Runs the *same* workload under every COBRA optimization strategy and on
both machine models, then checks that the committed architectural
results — the raw bytes of every program array — are bit-identical to
the unoptimized baseline.  This is the correctness gate for runtime
binary rewriting: lfetch→nop, lfetch→lfetch.excl, and trace deployment
may shift coherence traffic and timing, but must never change what the
program computes (cf. multi-version rewriters and BOLT, which treat
output equivalence as the ship criterion).

The harness is one axis set over :mod:`repro.scenario`: the reference
is the ``"none"`` cell of each machine, the perturbed cells are the
COBRA strategies, and every cell runs with a
:class:`~repro.validate.checker.CoherenceChecker` attached, so every
differential sweep is also a full invariant-checked run of both
coherence backends.  Its own invariants are metric sanity per run
(coherent events cannot exceed bus transactions, an L3 miss implies an
L2 miss, work was actually retired) and cross-machine agreement of the
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from ..cpu.machine import Machine
from ..errors import InvariantViolation, ValidationError
from ..scenario import (  # noqa: F401 — the spec vocabulary is public here too
    ALL_STRATEGIES,
    Cell,
    MachineRecipe,
    Observables,
    Sweep,
    WorkloadSpec,
    daxpy_spec,
    default_machines,
    npb_spec,
    run_cell,
)

__all__ = [
    "WorkloadSpec",
    "RunRecord",
    "DifferentialReport",
    "DifferentialHarness",
    "daxpy_spec",
    "npb_spec",
    "default_machines",
]


@dataclass(frozen=True)
class RunRecord:
    """Observables of one (machine, strategy) cell of the matrix."""

    machine: str
    strategy: str
    cycles: int
    retired: int
    digest: str
    verified: bool | None
    checks: int

    @property
    def label(self) -> str:
        return f"{self.machine}/{self.strategy}"


@dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    workload: str
    records: list[RunRecord] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations

    def summary(self) -> str:
        checks = sum(r.checks for r in self.records)
        lines = [
            f"differential[{self.workload}]: {len(self.records)} run(s), "
            f"{checks} coherence checks, "
            f"{'OK' if self.ok else 'FAIL'}"
        ]
        for rec in self.records:
            lines.append(
                f"  {rec.label:24s} cycles={rec.cycles:<10d} "
                f"digest={rec.digest[:12]} verified={rec.verified}"
            )
        for mismatch in self.mismatches:
            lines.append(f"  MISMATCH: {mismatch}")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def _sanity(cell: Cell, obs: Observables, _ref: Observables | None = None) -> list[str]:
    """Per-run metric sanity: the counters must be internally consistent."""
    ev = obs.mem_events()
    out = []
    if obs.cycles <= 0 or obs.retired <= 0:
        out.append(f"{cell.label}: no work executed (cycles={obs.cycles})")
    if ev.coherent_bus_events() > ev.bus_memory:
        out.append(f"{cell.label}: coherent events exceed bus transactions")
    if ev.l3_misses > ev.l2_misses:
        out.append(f"{cell.label}: more L3 misses than L2 misses")
    if ev.l3_misses > ev.bus_memory:
        out.append(f"{cell.label}: L3 misses without bus transactions")
    if obs.verified is False:
        out.append(f"{cell.label}: workload numerical verification failed")
    return out


@dataclass
class DifferentialHarness:
    """Runs one workload across the strategy × machine matrix."""

    workload: WorkloadSpec
    machines: Mapping[str, Callable[[], Machine]] | None = None
    strategies: tuple[str, ...] = ALL_STRATEGIES
    mode: str = "strict"

    def __post_init__(self) -> None:
        if "none" not in self.strategies:
            raise ValidationError("strategy matrix needs the 'none' baseline")
        if self.mode not in ("record", "strict"):
            raise ValidationError(
                f"harness mode must be 'record' or 'strict', got {self.mode!r}"
            )
        if self.machines is None:
            self.machines = default_machines()

    def _cell(self, mname: str, strategy: str) -> Cell:
        return Cell(
            f"{mname}/{strategy}", mname,
            partial(run_cell, self.machines[mname], self.workload, strategy,
                    check=self.mode),
            (strategy,),
        )

    def run(self, jobs: int = 1) -> DifferentialReport:
        machines = sorted(self.machines)
        references = [self._cell(mname, "none") for mname in machines]
        swept = Sweep(
            references,
            [
                self._cell(mname, strategy)
                for mname in machines
                for strategy in self.strategies
                if strategy != "none"
            ],
            checks=(_sanity,),
        ).run(jobs)
        report = DifferentialReport(self.workload.name, mismatches=swept.failures)
        baselines = [
            (cell, swept.references[cell.machine])
            for cell in references
            if cell.machine in swept.references
        ]
        for cell, base in baselines:
            report.mismatches.extend(_sanity(cell, base))
        # report order is the matrix order — each machine's baseline, then
        # its optimized cells (the sort is stable and baselines come first)
        for cell, obs in sorted(baselines + swept.runs, key=lambda run: run[0].machine):
            report.violations.extend(obs.violations)
            report.records.append(RunRecord(
                cell.machine, cell.axis[0], obs.cycles, obs.retired,
                obs.digest, obs.verified, obs.checks,
            ))
        # cross-machine: same program, same thread count -> same bits
        bases = list(swept.references.items())
        for mname, base in bases[1:]:
            if base.digest != bases[0][1].digest:
                report.mismatches.append(
                    f"{mname}/none: baseline output differs from {bases[0][0]}/none "
                    "(SMP vs cc-NUMA divergence)"
                )
        return report
