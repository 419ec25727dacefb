"""Differential execution of one scenario across all must-agree axes.

Every generated scenario is executed across the thirteen axes of the
:data:`AXES` table, each one :func:`repro.scenario.run_cell` on a fresh
machine with an identical program build:

1. ``none``      — plain interpreter, no COBRA (ground truth); its
   arrays must match ``ParallelProgram.evaluate``, the schedule replayed
   through the kernel templates' NumPy meaning (observable ``value``);
2. ``adaptive``  — COBRA adaptive, trace JIT on, HPM samples captured;
3. ``jit-off``   — identical but with the trace JIT disabled on every
   core; must match axis 2 *fully* — output bytes, cycles, retired
   instructions, memory-event counters, and the captured HPM sample
   stream (the JIT is a fast path, never a semantics or timing change);
4. ``osr-off``   — trace JIT on but OSR mid-loop entry and trace trees
   disabled on every core (loop-head-only dispatch, the
   ``REPRO_TRACE_JIT=osr-off`` CI bisection mode); must match axis 2
   *fully* on the same six observables — OSR only widens *where*
   compiled code may be entered, never what it computes or when;
5. ``faulted``   — adaptive under a seeded fault schedule
   (``fault_seed``); outputs must match ground truth and the fault
   ledger must be fully accounted;
6. ``ckpt``      — adaptive persisting to a fresh in-memory checkpoint
   store, straight through;
7. ``crash``     — a run killed at the midpoint durable write of axis
   6's store (it must die there, and records no digest);
8. ``resume``    — warm restart from the crashed store; outputs must
   match the straight-through run and the recovery ledger must account
   every discarded artifact;
9. ``db-cold``   — adaptive attached to a fresh in-memory profile
   database; a cold database is pure observation, so this must match
   axis 2 *fully* (same six observables as the JIT axis);
10. ``db-warm``  — adaptive re-run against the database axis 9 just
   recorded; a warm start may legitimately move deployments earlier
   (cycles change) but outputs must match ground truth;
11. ``db-corrupt`` — adaptive against axis 10's database with one byte
   flipped; a damaged database must load as absent, so this again
   matches axis 2 *fully*;
12. ``overloaded`` — adaptive under the resource governor with a seeded
   mixed overload schedule (budget shrinks, sample floods, slow disk,
   ingest storms); degradation may only shed optimization work, so
   outputs must match ground truth and the overload ledger must be
   fully accounted;
13. ``fleet-faulted`` — a fleet of two instances (one cold, one warm)
   against one optimization daemon over a seeded hostile transport
   (frame drop/dup/reorder/delay/corrupt/poison, partitions, one
   daemon crash); every per-instance output digest must match ground
   truth and the fleet's own invariants (idempotent ingestion, crash
   recovery, fault accounting) must all hold.

``run_scenario`` is a module-level pure function of its params so the
sweep fans out over :func:`repro.parallel.run_tasks` and the report
merges in submission order — byte-identical at any ``--jobs``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

from ..config import (
    FaultConfig,
    FleetFaultConfig,
    GovernorConfig,
    OverloadConfig,
    PersistConfig,
    ProfileDBConfig,
)
from ..errors import SimulatedCrash
from ..faults.injector import zero_rate_faults
from ..persist.journal import MemoryDisk
from ..persist.profiledb import PROFILEDB_NAME
from ..runtime.team import ParallelProgram
from ..scenario import Observables, WorkloadSpec, run_cell
from .driver import build_scenario, scenario_machine
from .generator import ScenarioParams, generate_params
from .report import Divergence, FuzzReport, ScenarioResult

__all__ = ["DifferentialFuzzer", "run_scenario", "Axis", "AXES"]

#: Moderate rates for the faulted axis — enough injections to exercise
#: detection/tolerance paths on a tiny run without drowning it.
FAULT_RATES = dict(sample_rate=0.05, patch_rate=0.3, loop_rate=0.1)

#: Runaway backstop: generated scenarios finish in well under this.
MAX_BUNDLES = 3_000_000

#: The observables a pure fast path / pure observer must leave untouched.
FULL = ("digest", "cycles", "retired", "events", "n_samples", "samples_sha")

#: Per-scenario scratch stores shared between axes, created on first use:
#: "ckpt"/"crash" checkpoint disks and the "db" profile database.
Stores = defaultdict[str, MemoryDisk]


# -- config deltas, one per perturbed axis: (params, stores) -> delta ----------


def _faulted(p: ScenarioParams, _stores: Stores) -> dict:
    return {"faults": FaultConfig(seed=p.fault_seed, **FAULT_RATES)}


def _persisting(store: str, crash: bool = False) -> Callable[[ScenarioParams, Stores], dict]:
    """Checkpoint into ``stores[store]``; ``crash`` dies at the midpoint
    durable write of the straight-through ("ckpt") run."""

    def delta(p: ScenarioParams, stores: Stores) -> dict:
        faults = zero_rate_faults(p.fault_seed)
        if crash:
            faults = replace(
                faults,
                crash_write=max(1, stores["ckpt"].durable_ops // 2),
                crash_torn_bytes=7,
            )
        return {"faults": faults, "persist": PersistConfig(disk=stores[store])}

    return delta


def _db(_p: ScenarioParams, stores: Stores) -> dict:
    return {"profile_db": ProfileDBConfig(disk=stores["db"])}


def _db_corrupt(_p: ScenarioParams, stores: Stores) -> dict:
    corrupt = MemoryDisk()
    blob = bytearray(stores["db"].files.get(PROFILEDB_NAME, b""))
    if blob:
        blob[len(blob) // 2] ^= 0xFF
    corrupt.files[PROFILEDB_NAME] = blob
    return {"profile_db": ProfileDBConfig(disk=corrupt)}


def _overloaded(p: ScenarioParams, _stores: Stores) -> dict:
    overload = OverloadConfig(
        seed=p.fault_seed,
        shrink_rate=0.2, flood_rate=0.2,
        disk_rate=0.1, storm_rate=0.1,
        max_events=6,
    )
    return {
        "governor": GovernorConfig(
            sample_queue_depth=64, budget_floor=48, overload=overload
        )
    }


@dataclass(frozen=True)
class Axis:
    """One must-agree axis: a perturbation and what it may not change."""

    name: str
    #: the axis whose observables this one is diffed against
    versus: str | None = None
    #: the divergence label, e.g. ``"jit-off vs jit-on"``
    title: str = ""
    #: which observables must agree with ``versus``
    agree: tuple[str, ...] = ("digest",)
    #: the run's fault ledger must be fully accounted
    ledger: bool = False
    #: run only if this earlier axis completed (its store is the input)
    needs: str | None = None
    #: CobraConfig delta of the perturbation (``None`` = unperturbed)
    delta: Callable[[ScenarioParams, Stores], dict] | None = None
    strategy: str = "adaptive"
    jit: bool = True
    osr: bool = True
    #: the run must die with SimulatedCrash (and so records no digest)
    crashes: bool = False
    #: run as a two-instance fleet instead of a solo cell
    fleet: bool = False


AXES = (
    Axis("none", strategy="none"),
    Axis("adaptive", "none", "adaptive vs none"),
    Axis("jit-off", "adaptive", "jit-off vs jit-on", FULL, jit=False),
    # OSR entry/trace trees only widen where compiled code may be
    # entered — with them off the run must stay fully bit-identical
    # (jit-off agreement then pins the whole JIT ladder transitively)
    Axis("osr-off", "adaptive", "osr-off vs osr-on", FULL, osr=False),
    Axis("faulted", "none", "faulted vs clean", ledger=True, delta=_faulted),
    Axis("ckpt", "none", "checkpoint vs none", delta=_persisting("ckpt")),
    Axis("crash", needs="ckpt", delta=_persisting("crash", crash=True),
         crashes=True),
    Axis("resume", "ckpt", "resume vs straight-through", ledger=True,
         needs="crash", delta=_persisting("crash")),
    # a cold database only records; it must not perturb the run
    Axis("db-cold", "adaptive", "db-cold vs adaptive", FULL, delta=_db),
    Axis("db-warm", "none", "db-warm vs none", needs="db-cold", delta=_db),
    # a damaged database must load as absent, never half-seed
    Axis("db-corrupt", "adaptive", "db-corrupt vs adaptive", FULL,
         needs="db-cold", delta=_db_corrupt),
    Axis("overloaded", "none", "overloaded vs clean", ledger=True,
         delta=_overloaded),
    Axis("fleet-faulted", "none", "fleet-faulted vs none", needs="none",
         fleet=True),
)


def _run_fleet_axis(workload: WorkloadSpec, machine, fault_seed: int,
                    reference_digest: str):
    """A fleet of two under a hostile transport schedule."""
    from ..fleet import FleetHarness

    faults = FleetFaultConfig(
        seed=fault_seed,
        frame_rate=0.2,
        partition_rate=0.25,
        daemon_crash_batch=3,
    )
    harness = FleetHarness(
        workload=workload,
        machine=machine,
        instances=2,
        quorum=1,
        faults=faults,
        optimize_interval=None,   # keep the scenario's own wake interval
        max_bundles=MAX_BUNDLES,
        reference_digest=reference_digest,
        jit=True,
    )
    return harness.run(jobs=1)


def run_scenario(params: ScenarioParams) -> ScenarioResult:
    """Execute the full axis sweep for one scenario."""
    divergences: list[Divergence] = []
    digests: list[tuple[str, str]] = []
    obs: dict[str, Observables] = {}
    completed: set[str] = set()
    stores: Stores = defaultdict(MemoryDisk)
    workload = WorkloadSpec(
        f"fuzz-{params.seed}", partial(build_scenario, params), ParallelProgram.check
    )
    machine = partial(scenario_machine, params)

    def diverge(axis: str, observable: str, expected: object, actual: object) -> None:
        divergences.append(
            Divergence(
                seed=params.seed,
                fault_seed=params.fault_seed,
                axis=axis,
                observable=observable,
                expected=str(expected),
                actual=str(actual),
            )
        )

    for axis in AXES:
        if axis.needs is not None and axis.needs not in completed:
            continue
        delta = axis.delta(params, stores) if axis.delta else None
        wanted = "SimulatedCrash" if axis.crashes else "no exception"
        try:
            if axis.fleet:
                fleet = _run_fleet_axis(
                    workload, machine, params.fault_seed, obs["none"].digest
                )
                digests.append((axis.name, fleet.records[0].digest))
                for failure in fleet.failures:
                    diverge(axis.title, "fleet", "ok", failure)
                continue
            out = run_cell(
                machine, workload, axis.strategy, delta,
                jit=axis.jit, osr=axis.osr, tap=True, max_bundles=MAX_BUNDLES,
            )
        except Exception as exc:  # noqa: BLE001 — any escape is a finding
            if axis.crashes and isinstance(exc, SimulatedCrash):
                completed.add(axis.name)
            else:
                diverge(axis.name, "exception", wanted, f"{type(exc).__name__}: {exc}")
            continue
        completed.add(axis.name)
        if axis.crashes:
            # it survived: report that, but the intact store still resumes
            diverge(
                axis.name, "exception", wanted,
                f"run completed past durable write {delta['faults'].crash_write}",
            )
            continue
        obs[axis.name] = out
        digests.append((axis.name, out.digest))
        if axis.name == "none" and out.verified is False:
            diverge(axis.name, "value", "evaluation", "differs")
        reference = obs.get(axis.versus)
        if reference is not None:
            for observable in axis.agree:
                want, got = getattr(reference, observable), getattr(out, observable)
                if want != got:
                    diverge(axis.title, observable, want, got)
        if axis.ledger and out.ledger is not None and not out.ledger.accounted:
            diverge(axis.title, "ledger", "accounted", "unaccounted")

    adaptive = obs.get("adaptive")
    return ScenarioResult(
        params=params,
        digests=tuple(digests),
        divergences=tuple(divergences),
        samples=adaptive.n_samples if adaptive else 0,
        compiles=adaptive.fastpath["compiles"] if adaptive else 0,
        tree_links=adaptive.fastpath["tree_links"] if adaptive else 0,
    )


class DifferentialFuzzer:
    """Fans scenarios over worker processes; merges in submission order."""

    def __init__(
        self,
        seeds: Iterable[int] | None = None,
        pairs: Sequence[tuple[int, int]] | None = None,
        fault_seed: int | None = None,
    ) -> None:
        if pairs is None:
            pairs = [(seed, fault_seed) for seed in seeds or ()]
        self.params = [generate_params(s, fault_seed=f) for s, f in pairs]

    def run(self, jobs: int = 1) -> FuzzReport:
        # deferred: building scenarios never needs the process pool
        from ..parallel import run_tasks

        return FuzzReport(
            run_tasks([(run_scenario, (p,)) for p in self.params], jobs=jobs)
        )
