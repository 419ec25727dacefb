"""Differential execution of one case across all must-agree axes.

A *case* is a workload on one machine under a list of fault seeds:
either a generated scenario (:func:`generated_case`, one machine, the
seed list ``(fault_seed,)``) or a named workload on each machine of
``default_machines`` (:func:`named_cases`).  Every case runs the rows
of the :data:`AXES` table, each cell one :func:`repro.scenario.run_cell`
on a fresh machine with an identical program build, and first checks
its built image with :func:`~repro.validate.isa_check.check_image`:

1. ``none``      — plain interpreter, no COBRA (ground truth); its
   arrays must match the workload's own verifier (for a generated
   scenario ``ParallelProgram.evaluate``, the schedule replayed through
   the kernel templates' NumPy meaning: observable ``value``);
2. ``noprefetch`` — COBRA rewriting lfetch to nop; outputs must match
   ground truth;
3. ``excl``      — COBRA rewriting lfetch to lfetch.excl; likewise;
4. ``adaptive``  — COBRA adaptive.  Rows 1–4 run under a record-mode
   coherence checker (every violation is a divergence) and must keep
   their counters consistent (work retired, coherent events within bus
   transactions, L3 misses within L2 misses and bus transactions);
5. ``jit-on``    — adaptive without the checker, so compiled traces run
   (a checker must see every access, which keeps the trace JIT from
   dispatching), HPM samples captured; must match axis 4 *fully* —
   output bytes, cycles, retired instructions, memory-event counters,
   and the captured HPM sample stream: neither the checker nor the JIT
   may change what runs or when;
6. ``jit-off``   — identical but with the trace JIT disabled on every
   core; must match axis 5 *fully* (the JIT is a fast path, never a
   semantics or timing change);
7. ``osr-off``   — trace JIT on but OSR mid-loop entry and trace trees
   disabled on every core (loop-head-only dispatch, the
   ``REPRO_TRACE_JIT=osr-off`` CI bisection mode); must match axis 5
   *fully* on the same six observables — OSR only widens *where*
   compiled code may be entered, never what it computes or when;
8. ``faulted``   — each COBRA strategy under a seeded fault schedule,
   one cell per strategy and fault seed; outputs must match ground
   truth, the fault ledger must be fully accounted and the run must end
   in a known mode.  Row gate: the schedules injected something;
9. ``ckpt``      — adaptive persisting to a fresh in-memory checkpoint
   store, straight through;
10. ``crash``    — a run killed at the midpoint durable write of axis
   9's store (it must die there, and records no digest);
11. ``resume``   — warm restart from the crashed store; outputs must
   match the straight-through run and the recovery ledger must account
   every discarded artifact;
12. ``db-cold``  — adaptive attached to a fresh in-memory profile
   database; a cold database is pure observation, so this must match
   axis 5 *fully* (same six observables as the JIT axis);
13. ``db-warm``  — adaptive re-run against the database axis 12 just
   recorded; a warm start may legitimately move deployments earlier
   (cycles change) but outputs must match ground truth;
14. ``db-corrupt`` — adaptive against axis 13's database with one byte
   flipped; a damaged database must load as absent, so this again
   matches axis 5 *fully*;
15. ``overloaded`` — adaptive under the resource governor with tight
   budgets, one cell per ``OVERLOAD_SCHEDULES`` preset and fault seed
   (budget shrinks, sample floods, slow disk, ingest storms);
   degradation may only shed optimization work, so outputs must match
   ground truth, the overload ledger must be fully accounted and the
   ladder well-formed.  Row gate: the governor evicted, shed or refused;
16. ``fleet-faulted`` — a fleet of two instances (one cold, one warm)
   against one optimization daemon over a seeded hostile transport
   (frame drop/dup/reorder/delay/corrupt/poison, partitions, one
   daemon crash); every per-instance output digest must match ground
   truth and the fleet's own invariants (idempotent ingestion, crash
   recovery, fault accounting) must all hold.

A row gate is evaluated over all of that row's cells in one invocation
(:meth:`DifferentialFuzzer.run`), as is the cross-machine check: every
case of one named workload must produce the same ``none`` digest.

``run_scenario`` is a module-level pure function of its case so the
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
from ..cpu.machine import Machine
from ..errors import SimulatedCrash
from ..faults.injector import zero_rate_faults
from ..governor.core import OVERLOAD_SCHEDULES
from ..governor.ladder import (
    ESCALATE_PRESSURE,
    MAX_RECOVERY_WAKES,
    RECOVERY_WINDOWS,
    RUNGS,
)
from ..persist.journal import MemoryDisk
from ..persist.profiledb import PROFILEDB_NAME
from ..runtime.team import ParallelProgram
from ..scenario import ALL_STRATEGIES, Observables, WorkloadSpec, default_machines, run_cell
from ..validate.isa_check import check_image
from .driver import build_scenario, scenario_machine
from .generator import ScenarioParams, generate_params
from .report import CellRun, Divergence, FuzzReport, ScenarioResult

__all__ = [
    "DifferentialFuzzer", "run_scenario", "Axis", "AXES", "Case",
    "generated_case", "named_cases", "select",
]

#: Runaway backstop: generated scenarios finish in well under this.
MAX_BUNDLES = 3_000_000

#: The observables a pure fast path / pure observer must leave untouched.
FULL = ("digest", "cycles", "retired", "events", "n_samples", "samples_sha")

#: Per-case scratch stores shared between axes, created on first use:
#: "ckpt"/"crash" checkpoint disks and the "db" profile database.
Stores = defaultdict[str, MemoryDisk]

#: The overloaded row's budgets, which the short sweep runs reach: a
#: flood overfills a 4-sample queue; 7 bundles admit one 4-bundle trace
#: (the headroom is RECOVER_PRESSURE * 7 = 4.2), and one shrink halves
#: that to the floor of 3, which refuses the next deploy and evicts a
#: copy the ladder has rolled back
GOVERNOR = GovernorConfig(sample_queue_depth=4, trace_cache_budget=7, budget_floor=3)


@dataclass(frozen=True)
class Case:
    """One workload on one machine, under a list of fault seeds."""

    workload: WorkloadSpec
    machine_name: str
    machine: Callable[[], Machine]
    fault_seeds: tuple[int, ...]
    #: the generator's draw (``None`` for a named workload)
    params: ScenarioParams | None = None


def generated_case(params: ScenarioParams) -> Case:
    return Case(
        WorkloadSpec(
            f"fuzz-{params.seed}", partial(build_scenario, params), ParallelProgram.check
        ),
        params.machine_kind,
        partial(scenario_machine, params),
        (params.fault_seed,),
        params,
    )


def named_cases(
    workloads: Iterable[WorkloadSpec], fault_seeds: Iterable[int], scale: int
) -> list[Case]:
    """Each workload on each machine of ``default_machines``."""
    seeds = tuple(fault_seeds)
    return [
        Case(spec, mname, recipe, seeds)
        for spec in workloads
        for mname, recipe in default_machines(4, scale=scale).items()
    ]


# -- config deltas, one per perturbed axis: (value, seed, stores) -> delta -----


def _faulted(_strategy: str, seed: int, _stores: Stores) -> dict:
    rates = dict(sample_rate=0.1, patch_rate=0.5, loop_rate=0.2)
    return {"faults": FaultConfig(seed=seed, **rates)}


def _persisting(store: str, crash: bool = False) -> Callable[[str, int, Stores], dict]:
    """Checkpoint into ``stores[store]``; ``crash`` dies at the midpoint
    durable write of the straight-through ("ckpt") run."""

    def delta(_value: str, seed: int, stores: Stores) -> dict:
        faults = zero_rate_faults(seed)
        if crash:
            faults = replace(
                faults,
                crash_write=max(1, stores["ckpt"].durable_ops // 2),
                crash_torn_bytes=7,
            )
        return {"faults": faults, "persist": PersistConfig(disk=stores[store])}

    return delta


def _db(_value: str, _seed: int, stores: Stores) -> dict:
    return {"profile_db": ProfileDBConfig(disk=stores["db"])}


def _db_corrupt(_value: str, _seed: int, stores: Stores) -> dict:
    corrupt = MemoryDisk()
    blob = bytearray(stores["db"].files.get(PROFILEDB_NAME, b""))
    if blob:
        blob[len(blob) // 2] ^= 0xFF
    corrupt.files[PROFILEDB_NAME] = blob
    return {"profile_db": ProfileDBConfig(disk=corrupt)}


def _overloaded(schedule: str, seed: int, _stores: Stores) -> dict:
    overload = OverloadConfig(seed=seed, **OVERLOAD_SCHEDULES[schedule])
    return {
        "governor": replace(GOVERNOR, overload=overload),
        # frequent wakes: overload draws happen per optimizer wake, and
        # the ladder needs enough observations within one run to
        # escalate under pressure *and* walk back to full
        "optimize_interval": 5_000,
    }


# -- per-cell invariants: observables -> failures -------------------------------


def _sanity(obs: Observables) -> list[str]:
    """Per-run metric sanity: the counters must be internally consistent."""
    ev = obs.mem_events()
    out = []
    if obs.cycles <= 0 or obs.retired <= 0:
        out.append(f"no work executed (cycles={obs.cycles})")
    if ev.coherent_bus_events() > ev.bus_memory:
        out.append("coherent events exceed bus transactions")
    if ev.l3_misses > ev.l2_misses:
        out.append("more L3 misses than L2 misses")
    if ev.l3_misses > ev.bus_memory:
        out.append("L3 misses without bus transactions")
    return out


def _known_end_mode(obs: Observables) -> list[str]:
    if obs.report.mode in ("normal", "monitor-only"):
        return []
    return [f"unknown end mode {obs.report.mode!r}"]


def _ladder(obs: Observables) -> list[str]:
    """Ladder well-formedness and recovery convergence of one cell."""
    gov = obs.report.governor or {}
    out = []
    if gov.get("injected", 0) and obs.ledger is None:
        out.append("overload injected but no ledger attached")
    rung = "full"
    for t in gov.get("transitions", ()):
        frm, to = t["from"], t["to"]
        if frm != rung or abs(RUNGS.index(to) - RUNGS.index(frm)) != 1:
            out.append(f"malformed transition {frm} -> {to} (ladder was at {rung})")
        elif RUNGS.index(to) > RUNGS.index(frm):
            if t["pressure"] < ESCALATE_PRESSURE:
                out.append(
                    f"escalation {frm} -> {to} at pressure "
                    f"{t['pressure']:.3f} below the escalation threshold"
                )
        elif t["streak"] < RECOVERY_WINDOWS:
            out.append(
                f"recovery {frm} -> {to} after only {t['streak']} calm window(s)"
            )
        rung = to
    if rung != gov.get("rung"):
        out.append(
            f"transition log ends at {rung} but the governor reports rung "
            f"{gov.get('rung')}"
        )
    calm = gov.get("wakes", 0) - gov.get("last_pressure_wake", 0)
    if gov.get("rung") != "full" and calm >= MAX_RECOVERY_WAKES:
        out.append(
            f"still at rung {gov.get('rung')} after {calm} calm wake(s) — "
            "recovery never converged"
        )
    return out


def _facts(obs: Observables) -> tuple[tuple[str, object], ...]:
    """What a cell's report line shows beyond cycles and digest."""
    facts: list[tuple[str, object]] = []
    if obs.checks:
        facts.append(("checks", obs.checks))
    report = obs.report
    if report is not None and report.governor:
        gov = report.governor
        facts += [
            ("rung", gov["rung"]), ("injected", gov["injected"]),
            ("evicted", gov["evictions"]), ("shed", gov["shed_samples"]),
            ("refused", gov["deploys_refused"]),
            ("transitions", len(gov["transitions"])),
        ]
    elif obs.ledger is not None:
        facts += [
            ("mode", report.mode), ("injected", obs.ledger.injected),
            ("detected", obs.ledger.detected),
            ("quarantined", sum(report.quarantined.values())),
        ]
    return tuple(facts)


# -- row gates: the facts of every cell of one row -> failure -------------------


def _injected_something(cells: list[dict]) -> str | None:
    if any(cell["injected"] for cell in cells):
        return None
    return (
        "fault schedule injected nothing across the whole row — raise the "
        "rates or the run length; this sweep proved nothing"
    )


def _governed(cells: list[dict]) -> str | None:
    if any(cell[name] for cell in cells for name in ("evicted", "shed", "refused")):
        return None
    return (
        "the governor evicted, shed and refused nothing across the whole "
        "row — tighten the budgets; this sweep proved nothing"
    )


@dataclass(frozen=True)
class Axis:
    """One must-agree row: a perturbation, what it may not change, and
    the invariants its cells must keep."""

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
    #: CobraConfig delta of one cell, from its ``over`` value, its fault
    #: seed and the case's stores (``None`` = unperturbed)
    delta: Callable[[str, int, Stores], dict] | None = None
    #: the cells' strategy; ``None``: each ``over`` value names it
    strategy: str | None = "adaptive"
    #: the row's own sweep dimension, one cell per value
    over: tuple[str, ...] = ("",)
    #: one cell per fault seed of the case, not only its first
    seeded: bool = False
    #: coherence-checker mode attached around every cell
    check: str | None = None
    #: per-cell invariants: observables -> failure messages
    checks: tuple[Callable[[Observables], list[str]], ...] = ()
    #: gate over the facts of all of this row's cells in one invocation
    gate: Callable[[list[dict]], str | None] | None = None
    jit: bool = True
    osr: bool = True
    #: the run must die with SimulatedCrash (and so records no digest)
    crashes: bool = False
    #: run as a two-instance fleet instead of a solo cell
    fleet: bool = False


def _strategy_row(name: str) -> Axis:
    return Axis(
        name, None if name == "none" else "none",
        "" if name == "none" else f"{name} vs none",
        strategy=name, check="record", checks=(_sanity,),
    )


AXES = (
    *(_strategy_row(name) for name in ALL_STRATEGIES),
    # the checker turns compiled-trace dispatch off; this is the run
    # the JIT axes compare against
    Axis("jit-on", "adaptive", "jit-on vs checked", FULL),
    Axis("jit-off", "jit-on", "jit-off vs jit-on", FULL, jit=False),
    # OSR entry/trace trees only widen where compiled code may be
    # entered — with them off the run must stay fully bit-identical
    # (jit-off agreement then pins the whole JIT ladder transitively)
    Axis("osr-off", "jit-on", "osr-off vs osr-on", FULL, osr=False),
    Axis("faulted", "none", "faulted vs clean", ledger=True, delta=_faulted,
         strategy=None, over=ALL_STRATEGIES[1:], seeded=True,
         checks=(_known_end_mode,), gate=_injected_something),
    Axis("ckpt", "none", "checkpoint vs none", delta=_persisting("ckpt")),
    Axis("crash", needs="ckpt", delta=_persisting("crash", crash=True),
         crashes=True),
    Axis("resume", "ckpt", "resume vs straight-through", ledger=True,
         needs="crash", delta=_persisting("crash")),
    # a cold database only records; it must not perturb the run
    Axis("db-cold", "jit-on", "db-cold vs jit-on", FULL, delta=_db),
    Axis("db-warm", "none", "db-warm vs none", needs="db-cold", delta=_db),
    # a damaged database must load as absent, never half-seed
    Axis("db-corrupt", "jit-on", "db-corrupt vs jit-on", FULL,
         needs="db-cold", delta=_db_corrupt),
    Axis("overloaded", "none", "overloaded vs clean", ledger=True,
         delta=_overloaded, over=tuple(sorted(OVERLOAD_SCHEDULES)), seeded=True,
         checks=(_ladder,), gate=_governed),
    Axis("fleet-faulted", "none", "fleet-faulted vs none", needs="none",
         seeded=True, fleet=True),
)


def select(names: Iterable[str] | None = None) -> tuple[Axis, ...]:
    """The rows ``names`` (all when ``None``) plus every row they are
    diffed against or need, in table order."""
    if names is None:
        return AXES
    table = {axis.name: axis for axis in AXES}
    wanted: set[str] = set()
    todo = list(names)
    while todo:
        name = todo.pop()
        if name is not None and name not in wanted:
            wanted.add(name)
            todo += [table[name].versus, table[name].needs]
    return tuple(axis for axis in AXES if axis.name in wanted)


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


def run_scenario(
    case: Case | ScenarioParams, axes: Sequence[str] | None = None
) -> ScenarioResult:
    """Execute the rows ``axes`` (default: the whole table) for one case."""
    if isinstance(case, ScenarioParams):
        case = generated_case(case)
    params = case.params
    divergences: list[Divergence] = []
    cells: list[CellRun] = []
    obs: dict[str, Observables] = {}
    completed: set[str] = set()
    stores: Stores = defaultdict(MemoryDisk)

    def diverge(axis: str, observable: str, expected: object, actual: object,
                seed: int = case.fault_seeds[0]) -> None:
        divergences.append(
            Divergence(
                seed=params.seed if params else None,
                fault_seed=seed,
                axis=axis,
                observable=observable,
                expected=str(expected),
                actual=str(actual),
            )
        )

    bundles = 0
    try:
        image = case.workload.build(case.machine()).image
        bundles = len(image)
        for violation in check_image(image, mode="record"):
            diverge("isa", "round-trip", "fixpoint", violation)
    except Exception as exc:  # noqa: BLE001 — any escape is a finding
        diverge("isa", "exception", "no exception", f"{type(exc).__name__}: {exc}")

    def run(axis: Axis, value: str, seed: int) -> None:
        label = "/".join(
            filter(None, (axis.name, value, axis.seeded and f"seed={seed}"))
        )
        title = (axis.title or axis.name).replace(axis.name, label, 1)
        delta = axis.delta(value, seed, stores) if axis.delta else None
        wanted = "SimulatedCrash" if axis.crashes else "no exception"
        try:
            if axis.fleet:
                fleet = _run_fleet_axis(
                    case.workload, case.machine, seed, obs["none"].digest
                )
                first = fleet.records[0]
                cells.append(CellRun(label, first.cycles, first.digest))
                for failure in fleet.failures:
                    diverge(title, "fleet", "ok", failure, seed)
                return
            out = run_cell(
                case.machine, case.workload, axis.strategy or value, delta,
                check=axis.check, jit=axis.jit, osr=axis.osr, tap=True,
                max_bundles=MAX_BUNDLES,
            )
        except Exception as exc:  # noqa: BLE001 — any escape is a finding
            if axis.crashes and isinstance(exc, SimulatedCrash):
                completed.add(axis.name)
            else:
                diverge(label, "exception", wanted, f"{type(exc).__name__}: {exc}", seed)
            return
        completed.add(axis.name)
        if axis.crashes:
            # it survived: report that, but the intact store still resumes
            diverge(
                label, "exception", wanted,
                f"run completed past durable write {delta['faults'].crash_write}",
                seed,
            )
            return
        obs[axis.name] = out
        cells.append(CellRun(label, out.cycles, out.digest, _facts(out)))
        if axis.name == "none" and out.verified is False:
            diverge(label, "value", "evaluation", "differs", seed)
        for violation in out.violations:
            diverge(title, "coherence", "no violation", violation, seed)
        reference = obs.get(axis.versus)
        if reference is not None:
            for observable in axis.agree:
                want, got = getattr(reference, observable), getattr(out, observable)
                if want != got:
                    diverge(title, observable, want, got, seed)
        if axis.ledger and out.ledger is not None and not out.ledger.accounted:
            diverge(title, "ledger", "accounted", "unaccounted", seed)
        for check in axis.checks:
            for failure in check(out):
                diverge(title, "invariant", "holds", failure, seed)

    for axis in select(axes):
        if axis.needs is None or axis.needs in completed:
            for value in axis.over:
                for seed in case.fault_seeds[: None if axis.seeded else 1]:
                    run(axis, value, seed)

    jit_on = obs.get("jit-on")
    return ScenarioResult(
        params=params,
        workload=case.workload.name,
        machine=case.machine_name,
        cells=tuple(cells),
        divergences=tuple(divergences),
        bundles=bundles,
        samples=jit_on.n_samples if jit_on else 0,
        compiles=jit_on.fastpath["compiles"] if jit_on else 0,
        tree_links=jit_on.fastpath["tree_links"] if jit_on else 0,
    )


def _invocation_failures(
    results: Sequence[ScenarioResult], rows: Sequence[Axis]
) -> list[str]:
    """Row gates and the cross-machine check, over every case of one run."""
    failures = []
    for axis in rows:
        facts = [
            dict(cell.facts) for result in results for cell in result.cells
            if cell.label.split("/")[0] == axis.name
        ]
        if axis.gate is not None and facts and (failure := axis.gate(facts)):
            failures.append(f"{axis.name}: {failure}")
    # same program, same thread count -> same bits on every machine
    baselines: dict[str, tuple[str, str]] = {}
    for result in results:
        digest = dict(result.digests).get("none")
        first = baselines.setdefault(result.workload, (result.machine, digest))
        if digest is not None and first[1] is not None and digest != first[1]:
            failures.append(
                f"{result.workload}: {result.machine}/none output differs from "
                f"{first[0]}/none (SMP vs cc-NUMA divergence)"
            )
    return failures


class DifferentialFuzzer:
    """Fans cases over worker processes; merges in submission order."""

    def __init__(
        self,
        seeds: Iterable[int] | None = None,
        pairs: Sequence[tuple[int, int]] | None = None,
        fault_seed: int | None = None,
        cases: Sequence[Case] | None = None,
        axes: Sequence[str] | None = None,
    ) -> None:
        if cases is None:
            if pairs is None:
                pairs = [(seed, fault_seed) for seed in seeds or ()]
            cases = [generated_case(generate_params(s, fault_seed=f)) for s, f in pairs]
        self.cases = list(cases)
        self.axes = axes

    def run(self, jobs: int = 1) -> FuzzReport:
        # deferred: building scenarios never needs the process pool
        from ..parallel import run_tasks

        results = run_tasks(
            [(run_scenario, (case, self.axes)) for case in self.cases], jobs=jobs
        )
        return FuzzReport(results, _invocation_failures(results, select(self.axes)))
