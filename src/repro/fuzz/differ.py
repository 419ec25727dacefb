"""Differential execution of one case across all must-agree axes.

A *case* is a workload on one machine under a list of fault seeds:
either a generated scenario (:func:`generated_case`, one machine, the
seed list ``(fault_seed,)``) or a named workload on each machine of
``default_machines`` (:func:`named_cases`).  Every case runs the rows
of the :data:`AXES` table, each cell one :func:`repro.scenario.run_cell`
on a fresh machine with an identical program build (a crash cell and a
fleet cell are several runs: :attr:`Axis.cell`), and first checks its
built image with :func:`~repro.validate.isa_check.check_image`:

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
   store, straight through, at the generated scenarios' wake cadence
   (so a short named workload deploys too);
10. ``crash``    — one cell per crash point of axis 9's store: the
   durable write after the one that commits its first ``txn`` record
   (the midpoint write if none), torn, or with ``stride`` every
   stride-th write under both tear modes (clean boundary, 7-byte
   torn).  The run must die at its write; the crashed journal's valid
   prefix and its snapshots must be axis 9's bytes, and recovery may
   not rewrite that prefix (prefix durability); it resumes, and a
   resume from a clone of the crashed store must give the same digest
   and replayed/discarded counts (resume determinism); every discarded
   artifact must be one ``persist`` event on a fully accounted ledger;
   the resumed outputs must match axis 9.  Row gate (with ``stride``):
   some cell warm-redeployed;
11. ``db-cold``  — adaptive attached to a fresh in-memory profile
   database; a cold database is pure observation, so this must match
   axis 5 *fully* (same six observables as the JIT axis);
12. ``db-warm``  — adaptive re-run against the database axis 11 just
   recorded; a warm start may legitimately move deployments earlier
   (cycles change) but outputs must match ground truth.  Where axis 11
   deployed, the database must load as a hit, seed at least one loop
   and cut the profiling ramp by at least 90 %.  Row gate (named
   workloads): some cell seeded a loop;
13. ``db-corrupt`` — adaptive against axis 12's database with one byte
   flipped; a damaged database must load as absent, so this again
   matches axis 5 *fully*;
14. ``overloaded`` — adaptive under the resource governor with tight
   budgets, one cell per ``OVERLOAD_SCHEDULES`` preset and fault seed
   (budget shrinks, sample floods, slow disk, ingest storms);
   degradation may only shed optimization work, so outputs must match
   ground truth, the overload ledger must be fully accounted and the
   ladder well-formed.  Row gate: the governor evicted, shed or refused;
15. ``fleet-faulted`` — a fleet of four instances (two cold, two warm,
   quorum two) against one optimization daemon over the hostile
   transport schedule ``fleet.faults.HOSTILE`` (frame
   drop/dup/reorder/delay/corrupt/poison, partitions, a daemon crash
   at batch 5); every per-instance output digest must match ground
   truth and the fleet's own invariants must all hold: a quorum-backed
   decision is published and every warm instance that reaches the
   daemon re-deploys it, ingestion is idempotent, the recovered daemon
   equals a never-crashed shadow, every CRC reject is counted, every
   poisoned stream is quarantined and the fault ledger is accounted.
   Row gate (named workloads): some cell published a decision that a
   warm instance re-deployed.

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
from typing import Callable, Iterable, NamedTuple, Sequence

from ..config import (
    FaultConfig,
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
from ..persist.journal import JOURNAL_NAME, MemoryDisk, scan_journal
from ..persist.profiledb import PROFILEDB_NAME
from ..runtime.team import ParallelProgram
from ..scenario import ALL_STRATEGIES, Observables, WorkloadSpec, default_machines, run_cell
from ..shape import COUNT, List, Record
from ..validate.isa_check import check_image
from .driver import FUZZ_COBRA, build_scenario, scenario_machine
from .generator import ScenarioParams, generate_params
from .report import CellRun, Divergence, FuzzReport, ScenarioResult

__all__ = [
    "DifferentialFuzzer", "run_scenario", "Axis", "AXES", "Case", "CORPUS",
    "generated_case", "named_cases", "select",
]

#: A ``repro fuzz --corpus`` file: the (seed, fault seed) pairs to replay.
CORPUS = Record(entries=List(Record(seed=COUNT, fault_seed=COUNT)))

#: Runaway backstop: generated scenarios finish in well under this.
MAX_BUNDLES = 3_000_000

#: The observables a pure fast path / pure observer must leave untouched.
FULL = ("digest", "cycles", "retired", "events", "n_samples", "samples_sha")

#: Per-case scratch stores shared between axes, created on first use:
#: the "ckpt" checkpoint disk and the "db" profile database.
Stores = defaultdict[str, MemoryDisk]

#: The crash row's tear modes: ``None`` kills before the write lands
#: (clean boundary), 7 leaves a durable 7-byte prefix of it (torn).
TEAR_MODES = (None, 7)

#: The least share of the cold profiling ramp a warm start must cut
#: wherever the cold run deployed.
MIN_RAMP_CUT = 0.9

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


class CrashPoint(NamedTuple):
    """One crash cell's coordinates: a durable write and a tear mode."""

    write: int
    torn: int | None

    def __str__(self) -> str:
        tear = "boundary" if self.torn is None else f"torn[{self.torn}B]"
        return f"write={self.write}/{tear}"


def _crash_points(stores: Stores, stride: int | None) -> tuple[CrashPoint, ...]:
    """The "ckpt" store's write after the one that commits its first
    ``txn`` record, torn, so that the resume replays a deployment (the
    midpoint write if no deployment was journaled); with ``stride``
    every stride-th write under both tear modes."""
    disk = stores["ckpt"]
    n_ops = disk.durable_ops
    if stride is None:
        records = scan_journal(bytes(disk.files.get(JOURNAL_NAME, b"")))[0]
        txns = [n for n, record in enumerate(records) if record["t"] == "txn"]
        # one append per record: the n-th record is the n-th journal write
        appends = [write for write, name in enumerate(disk.writes, 1) if name == JOURNAL_NAME]
        after = appends[txns[0]] + 1 if txns else 0
        return (CrashPoint(after if 1 < after <= n_ops else max(1, n_ops // 2), 7),)
    return tuple(
        CrashPoint(write, torn)
        for write in range(1, n_ops + 1, stride) for torn in TEAR_MODES
    )


def _persisting(point: CrashPoint | str, seed: int, stores: Stores) -> dict:
    """Checkpoint at the generated scenarios' wake cadence (a no-op on
    a generated case): into the "ckpt" store straight through, or into a
    fresh store dying at ``point``."""
    faults, disk = zero_rate_faults(seed), stores["ckpt"]
    if isinstance(point, CrashPoint):
        faults = replace(faults, crash_write=point.write, crash_torn_bytes=point.torn)
        disk = MemoryDisk()
    return {**FUZZ_COBRA, "faults": faults, "persist": PersistConfig(disk=disk)}


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


def _warm_redeployed(cells: list[dict]) -> str | None:
    if any(cell["warm_deploys"] for cell in cells):
        return None
    return (
        "no resume warm-redeployed anything across the whole row — it never "
        "exercised deploy-transaction replay; this sweep proved nothing"
    )


def _seeded_a_loop(cells: list[dict]) -> str | None:
    if any(cell["seeded"] for cell in cells):
        return None
    return (
        "no warm start seeded a loop across the whole row — nothing deployed "
        "cold; this sweep proved nothing"
    )


def _published_and_redeployed(cells: list[dict]) -> str | None:
    if any(cell["published"] and cell["redeployed"] for cell in cells):
        return None
    return (
        "no fleet published a decision that a warm instance re-deployed "
        "across the whole row; this sweep proved nothing"
    )


# -- cells that are not a single run_cell: case, delta, fault seed, stores,
# the observables so far -> (observables, report facts, failures as
# (observable, expected, actual)) -------------------------------------------


def _crash_cell(case: Case, delta: dict, seed: int, stores: Stores, _obs) -> tuple:
    """Die at the delta's crash point, then resume the crashed store and
    a clone of it."""
    run = partial(run_cell, case.machine, case.workload, "adaptive", jit=True,
                  max_bundles=MAX_BUNDLES)
    problems = []
    try:
        run(delta)
    except SimulatedCrash:
        pass
    else:
        # it survived: report that, but the intact store still resumes
        problems.append(("exception", "SimulatedCrash",
                         f"run completed past durable write {delta['faults'].crash_write}"))
    disk, ref = delta["persist"].disk, stores["ckpt"].files
    crashed = bytes(disk.files.get(JOURNAL_NAME, b""))
    kept = scan_journal(crashed)[1]
    if crashed[:kept] != ref.get(JOURNAL_NAME, b"")[:kept] or any(
        data != ref[name] for name, data in disk.files.items()
        if name != JOURNAL_NAME and name in ref
    ):
        problems.append(("prefix", "the straight-through store's bytes",
                         "the crashed store rewrote durable history"))
    twin = disk.clone()
    resume = {**delta, "faults": zero_rate_faults(seed)}
    out = run(resume)
    if disk.files.get(JOURNAL_NAME, b"")[:kept] != crashed[:kept]:
        problems.append(("prefix", "the crashed journal's valid prefix",
                         "recovery rewrote durable history"))
    again = run({**resume, "persist": PersistConfig(disk=twin)})
    stats = out.report.persist
    counts = [
        (obs.digest[:12], obs.report.persist.records_replayed,
         obs.report.persist.records_discarded)
        for obs in (out, again)
    ]
    if counts[0] != counts[1]:
        problems.append(("determinism", *counts))
    discarded = stats.records_discarded + stats.snapshots_discarded + stats.tmp_cleaned
    observed = sum(1 for e in out.ledger.events if e.surface == "persist")
    if observed != discarded:
        problems.append(("ledger", f"{discarded} persist event(s)", observed))
    warm = sum(e.is_warm_redeploy() for e in out.report.events)
    facts = (("replayed", stats.records_replayed), ("discarded", discarded),
             ("warm_deploys", warm))
    return out, facts, problems


def _db_warm_cell(case: Case, delta: dict, _seed, _stores, obs) -> tuple:
    """Re-run against the database db-cold recorded; where db-cold
    deployed, the warm start must hit, seed and cut the ramp."""
    out = run_cell(case.machine, case.workload, "adaptive", delta, tap=True,
                   max_bundles=MAX_BUNDLES)
    cold, db = obs["db-cold"], out.report.profile_db
    # retired instructions until the optimizer reached steady-state CPI
    ramps = [o.report.ramp_retired if o.report.ramp_retired is not None else o.retired
             for o in (cold, out)]
    problems = []
    if cold.report.deployments:
        if db["source"] != "hit":
            problems.append(("profile-db", "hit", db["source"]))
        if not db["seeded_loops"]:
            problems.append(("seeded", ">= 1 loop", 0))
        if ramps[1] > ramps[0] * (1 - MIN_RAMP_CUT):
            problems.append(("ramp", f"cut >= {MIN_RAMP_CUT:.0%} of {ramps[0]}", ramps[1]))
    facts = (("cold_ramp", ramps[0]), ("warm_ramp", ramps[1]),
             ("seeded", db["seeded_loops"]))
    return out, facts, problems


def _fleet_cell(case: Case, _delta, seed: int, _stores, obs) -> tuple:
    """Four instances, quorum two, under the hostile transport schedule."""
    from ..fleet import FleetHarness
    from ..fleet.faults import HOSTILE

    fleet = FleetHarness(
        workload=case.workload,
        machine=case.machine,
        instances=4,
        quorum=2,
        faults=replace(HOSTILE, seed=seed),
        optimize_interval=None,   # keep the scenario's own wake interval
        max_bundles=MAX_BUNDLES,
        reference_digest=obs["none"].digest,
        jit=True,
    ).run(jobs=1)
    records, ledger = fleet.records, fleet.ledger
    recovered = fleet.daemon["recovered"] or {}
    facts = (
        ("published", fleet.published),
        ("redeployed", sum(r.round == "warm" and r.seeded > 0 for r in records)),
        ("degraded", sum(r.degraded for r in records)),
        ("quarantined", len(fleet.daemon["quarantined"])),
        ("injected", ledger.injected), ("detected", ledger.detected),
        ("tolerated", ledger.tolerated),
        ("crash_batch", recovered.get("crash_batch")),
        ("replayed", recovered.get("replayed")),
    )
    out = Observables(digest=records[0].digest, arrays={}, cycles=records[0].cycles,
                      retired=0, events=(), verified=None)
    return out, facts, [("fleet", "ok", failure) for failure in fleet.failures]


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
    #: the row's own sweep dimension, one cell per value, or a function
    #: of the case's stores and the crash stride that returns the values
    over: tuple | Callable[[Stores, int | None], tuple] = ("",)
    #: one cell per fault seed of the case, not only its first
    seeded: bool = False
    #: coherence-checker mode attached around every cell
    check: str | None = None
    #: per-cell invariants: observables -> failure messages
    checks: tuple[Callable[[Observables], list[str]], ...] = ()
    #: gate over the facts of all of this row's cells in one invocation
    gate: Callable[[list[dict]], str | None] | None = None
    #: where the gate can hold: everywhere (``None``), only with a crash
    #: ``"stride"``, or only over ``"named"`` workloads' cells (a
    #: generated case rarely deploys)
    gate_when: str | None = None
    jit: bool = True
    osr: bool = True
    #: runs a cell that is more than one plain run (crash then resume, a
    #: run checked against an earlier row, a fleet) in place of one
    #: run_cell; see ``_crash_cell``
    cell: Callable[..., tuple] | None = None


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
    Axis("ckpt", "none", "checkpoint vs none", delta=_persisting),
    Axis("crash", "ckpt", "crash vs straight-through", ledger=True,
         needs="ckpt", delta=_persisting, over=_crash_points, gate=_warm_redeployed,
         gate_when="stride", cell=_crash_cell),
    # a cold database only records; it must not perturb the run
    Axis("db-cold", "jit-on", "db-cold vs jit-on", FULL, delta=_db),
    Axis("db-warm", "none", "db-warm vs none", needs="db-cold", delta=_db,
         gate=_seeded_a_loop, gate_when="named", cell=_db_warm_cell),
    # a damaged database must load as absent, never half-seed
    Axis("db-corrupt", "jit-on", "db-corrupt vs jit-on", FULL,
         needs="db-cold", delta=_db_corrupt),
    Axis("overloaded", "none", "overloaded vs clean", ledger=True,
         delta=_overloaded, over=tuple(sorted(OVERLOAD_SCHEDULES)), seeded=True,
         checks=(_ladder,), gate=_governed),
    Axis("fleet-faulted", "none", "fleet-faulted vs none", (), needs="none",
         seeded=True, gate=_published_and_redeployed, gate_when="named",
         cell=_fleet_cell),
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


def run_scenario(
    case: Case | ScenarioParams, axes: Sequence[str] | None = None,
    stride: int | None = None,
) -> ScenarioResult:
    """Execute the rows ``axes`` (default: the whole table) for one case;
    ``stride`` sweeps the crash row over every stride-th durable write."""
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

    def run(axis: Axis, value, seed: int) -> None:
        label = "/".join(
            filter(None, (axis.name, str(value), axis.seeded and f"seed={seed}"))
        )
        title = (axis.title or axis.name).replace(axis.name, label, 1)
        delta = axis.delta(value, seed, stores) if axis.delta else None
        try:
            if axis.cell is not None:
                out, facts, problems = axis.cell(case, delta, seed, stores, obs)
            else:
                out = run_cell(
                    case.machine, case.workload, axis.strategy or value, delta,
                    check=axis.check, jit=axis.jit, osr=axis.osr, tap=True,
                    max_bundles=MAX_BUNDLES,
                )
                facts, problems = _facts(out), ()
        except Exception as exc:  # noqa: BLE001 — any escape is a finding
            diverge(label, "exception", "no exception",
                    f"{type(exc).__name__}: {exc}", seed)
            return
        completed.add(axis.name)
        obs[axis.name] = out
        cells.append(CellRun(label, out.cycles, out.digest, facts))
        for observable, want, got in problems:
            diverge(title, observable, want, got, seed)
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
            over = axis.over(stores, stride) if callable(axis.over) else axis.over
            for value in over:
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
    results: Sequence[ScenarioResult], rows: Sequence[Axis], stride: int | None
) -> list[str]:
    """Row gates and the cross-machine check, over every case of one run."""
    failures = []
    for axis in rows:
        if axis.gate_when == "stride" and stride is None:
            continue    # a lone crash cell may come before any deploy
        facts = [
            dict(cell.facts) for result in results for cell in result.cells
            if cell.label.split("/")[0] == axis.name
            and (axis.gate_when != "named" or result.params is None)
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
        stride: int | None = None,
    ) -> None:
        if stride is not None and stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if cases is None:
            if pairs is None:
                pairs = [(seed, fault_seed) for seed in seeds or ()]
            cases = [generated_case(generate_params(s, fault_seed=f)) for s, f in pairs]
        self.cases = list(cases)
        self.axes = axes
        self.stride = stride

    def run(self, jobs: int = 1) -> FuzzReport:
        # deferred: building scenarios never needs the process pool
        from ..parallel import run_tasks

        results = run_tasks(
            [(run_scenario, (case, self.axes, self.stride)) for case in self.cases],
            jobs=jobs,
        )
        return FuzzReport(
            results, _invocation_failures(results, select(self.axes), self.stride)
        )
