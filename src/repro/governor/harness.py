"""Overload harness: pressure schedules must never change outputs.

One axis set over :mod:`repro.scenario`: the reference is each
machine's ungoverned plain run, the perturbed cells are adaptive COBRA
runs under seeded *overload schedules* (a ``CobraConfig.governor``
delta: budget shrinks, sample floods, slow-disk latency, daemon ingest
storms).  The contract the sweep enforces is the graceful-degradation
invariant:

* under any overload schedule, committed outputs are bit-identical to
  the clean run — degradation may only forgo optimization, never change
  semantics;
* every shed, evicted, refused, or compacted item is accounted in the
  fault ledger (no silent loss);
* ladder transitions are well-formed: one rung at a time, escalations
  only at or above the escalation threshold, recoveries only after a
  full calm streak;
* the ladder returns to ``full`` once pressure has been clear for the
  guaranteed recovery horizon (``(len(RUNGS)-1) * recovery_windows``
  calm wakes).

Each cell of the (machine × schedule × seed) matrix runs on a fresh
machine with a fresh program build, so schedules cannot contaminate
each other and every failure replays from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from ..config import GovernorConfig, OverloadConfig
from ..cpu.machine import Machine
from ..faults.injector import FaultLedger
from ..scenario import (
    Cell,
    Observables,
    SweepReport,
    WorkloadSpec,
    default_machines,
    seeded_sweep,
)
from .core import max_recovery_wakes
from .ladder import RUNGS

__all__ = [
    "OverloadHarness",
    "OverloadRecord",
    "OverloadReport",
    "OVERLOAD_SCHEDULES",
]

#: Named rate presets swept by default.  Every schedule is capped
#: (``max_events``) so it quiesces and the recovery contract is
#: checkable within the run.
OVERLOAD_SCHEDULES: dict[str, dict] = {
    "shrink": dict(shrink_rate=0.30, max_events=4),
    "flood": dict(flood_rate=0.25, flood_factor=4, flood_windows=2, max_events=4),
    "storm": dict(storm_rate=0.30, disk_rate=0.20, max_events=6),
    "everything": dict(
        shrink_rate=0.15, flood_rate=0.15, disk_rate=0.15, storm_rate=0.15,
        max_events=8,
    ),
}


@dataclass(frozen=True)
class OverloadRecord:
    """One governed (machine, schedule, seed) cell."""

    machine: str
    schedule: str
    seed: int
    cycles: int
    digest: str
    governor: dict
    ledger: FaultLedger | None

    @property
    def label(self) -> str:
        return f"{self.machine}/{self.schedule}/seed={self.seed}"


@dataclass
class OverloadReport(SweepReport):
    """Outcome of one overload sweep."""

    baseline_digests: dict[str, str] = field(default_factory=dict)

    def total_injected(self) -> int:
        return sum(r.governor.get("injected", 0) for r in self.records)

    def headline(self) -> str:
        return (
            f"overload[{self.workload}]: {len(self.records)} governed run(s), "
            f"{self.total_injected()} overload event(s) injected, "
            f"{'OK' if self.ok else 'FAIL'}"
        )

    def line(self, rec: OverloadRecord) -> str:
        gov = rec.governor
        return (
            f"{rec.label:34s} cycles={rec.cycles:<10d} "
            f"digest={rec.digest[:12]} rung={gov['rung']} "
            f"injected={gov['injected']} evicted={gov['evictions']} "
            f"shed={gov['shed_samples']} refused={gov['deploys_refused']} "
            f"transitions={len(gov['transitions'])}"
        )


@dataclass
class OverloadHarness:
    """Runs one workload across the machine × schedule × seed matrix."""

    workload: WorkloadSpec
    machines: Mapping[str, Callable[[], Machine]] | None = None
    schedules: Mapping[str, dict] | None = None
    seeds: tuple[int, ...] = (0,)
    #: per-cell configs are this template with the cell's overload plan
    #: attached
    governor: GovernorConfig | None = None

    def __post_init__(self) -> None:
        if self.machines is None:
            self.machines = default_machines()
        if self.schedules is None:
            self.schedules = OVERLOAD_SCHEDULES
        if self.governor is None:
            # the small sample queue makes floods actually shed on short runs
            self.governor = GovernorConfig(sample_queue_depth=16, budget_floor=48)

    def _perturb(self, schedule: str, seed: int) -> tuple[str, dict]:
        overload = OverloadConfig(seed=seed, **self.schedules[schedule])
        return "adaptive", {
            "governor": replace(self.governor, overload=overload),
            # frequent wakes: overload draws happen per optimizer wake,
            # and the ladder needs enough observations within one run to
            # escalate under pressure *and* walk back to full
            "optimize_interval": 5_000,
        }

    def _check(self, cell: Cell, obs: Observables, _ref: Observables) -> list[str]:
        """Ladder well-formedness and recovery convergence of one cell."""
        gov = obs.report.governor or {}
        out = []
        if gov.get("injected", 0) and obs.ledger is None:
            out.append(f"{cell.label}: overload injected but no ledger attached")
        rung = "full"
        for t in gov.get("transitions", ()):
            frm, to = t["from"], t["to"]
            if frm != rung or abs(RUNGS.index(to) - RUNGS.index(frm)) != 1:
                out.append(
                    f"{cell.label}: malformed transition {frm} -> {to} "
                    f"(ladder was at {rung})"
                )
            elif RUNGS.index(to) > RUNGS.index(frm):
                if t["pressure"] < self.governor.escalate_pressure:
                    out.append(
                        f"{cell.label}: escalation {frm} -> {to} at pressure "
                        f"{t['pressure']:.3f} below the escalation threshold"
                    )
            else:
                if t["streak"] < self.governor.recovery_windows:
                    out.append(
                        f"{cell.label}: recovery {frm} -> {to} after only "
                        f"{t['streak']} calm window(s)"
                    )
            rung = to
        if rung != gov.get("rung"):
            out.append(
                f"{cell.label}: transition log ends at {rung} but the "
                f"governor reports rung {gov.get('rung')}"
            )
        calm = gov.get("wakes", 0) - gov.get("last_pressure_wake", 0)
        if gov.get("rung") != "full" and calm >= max_recovery_wakes(self.governor):
            out.append(
                f"{cell.label}: still at rung {gov.get('rung')} after "
                f"{calm} calm wake(s) — recovery never converged"
            )
        return out

    def run(self, jobs: int = 1) -> OverloadReport:
        swept = seeded_sweep(
            self.workload, self.machines, sorted(self.schedules), self.seeds,
            self._perturb, jobs,
            checks=(self._check,),
            injected=lambda obs: (obs.report.governor or {}).get("injected", 0),
            noun="overload",
        )
        return OverloadReport(
            self.workload.name,
            [
                OverloadRecord(
                    cell.machine, *cell.axis, obs.cycles, obs.digest,
                    obs.report.governor or {}, obs.ledger,
                )
                for cell, obs in swept.runs
            ],
            swept.failures,
            {mname: ref.digest for mname, ref in swept.references.items()},
        )
