"""The COBRA framework facade (paper §3, Figure 4).

Wires together all components: per-thread monitoring threads over the
perfmon driver, the system profiler, the trace cache, and the single
optimization thread — then hooks the optimizer into the machine's
scheduler (COBRA runs as a preloaded shared library in the monitored
process's address space; here it runs beside the simulated cores).

Typical use::

    machine = Machine(itanium2_smp(4))
    prog = build_daxpy(machine, ...)          # any ParallelProgram
    result, report = run_with_cobra(prog, strategy="adaptive")
    print(report.summary())

Two hardening subsystems attach here: the coherence checker
(:mod:`repro.validate`, via ``CobraConfig.validate``/``REPRO_VALIDATE``)
and the fault injector (:mod:`repro.faults`, via ``CobraConfig.faults``
/``REPRO_FAULTS``).  When faults are enabled the report carries a
structured fault/recovery ledger in which every injected fault must be
accounted as detected or tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import CobraConfig
from ..cpu.machine import Machine
from ..cpu.scheduler import Scheduler
from ..cpu.tracejit import fastpath_stats
from ..errors import CobraError, InvariantViolation, PersistError, ProfileStateError
from ..isa.binary import BinaryImage
from ..runtime.team import ParallelProgram, RunResult
from .monitor import MonitoringThread
from .optimizer import CHECKPOINT, OptEvent, OptimizationThread
from .policy import STRATEGIES
from .tracecache import Deployment, TraceCache

if TYPE_CHECKING:
    from ..faults.injector import FaultLedger
    from ..persist.manager import PersistStats

__all__ = ["Cobra", "CobraReport", "run_with_cobra"]

# The attachments below (faults, persist, validate, governor, fleet) are
# imported where a run arms them, not here: an unarmed attachment costs
# nothing at run time, and so nothing at import time either (DESIGN.md
# §2 "Import layering").


@dataclass
class CobraReport:
    """What COBRA did during a run."""

    strategy: str
    samples: int
    deployments: list[Deployment]
    events: list[OptEvent]
    #: invariant checks performed / violations recorded when
    #: ``CobraConfig.validate`` enabled the coherence checker
    validate_checks: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)
    #: operating mode at run end ("normal" or "monitor-only")
    mode: str = "normal"
    #: sanitizer quarantine counters (reason -> rejected sample count)
    quarantined: dict[str, int] = field(default_factory=dict)
    #: transactional recoveries and idempotent no-ops, in order
    recovery_log: list[str] = field(default_factory=list)
    #: fault/recovery ledger when ``CobraConfig.faults`` armed injection
    faults: FaultLedger | None = None
    #: trace-cache bundles reclaimed by transactional aborts
    reclaimed_bundles: int = 0
    #: journal/snapshot counters when ``CobraConfig.persist`` attached
    #: a checkpoint store
    persist: PersistStats | None = None
    #: this run warm-started from a recovered checkpoint
    resumed: bool = False
    #: interpreter fast-path observability (trace compiles, compiled
    #: coverage %, deopt reasons, decode-cache hit rate), aggregated
    #: over the machine's cores at report time
    fastpath: dict | None = None
    #: per-loop resident trace versions, the active one, and flip
    #: counts (multi-version dispatch); empty = nothing ever deployed
    versions: list[dict] = field(default_factory=list)
    #: cross-run profile database block (key, hit/miss source, seeded
    #: loop count, ramp) when ``CobraConfig.profile_db`` attached one
    profile_db: dict | None = None
    #: retired instructions when the profile first became warm
    #: (0 = seeded warm start, ``None`` = never reached)
    ramp_retired: int | None = None
    #: fleet-mode block (instance id, fleet size, quorum, daemon echo,
    #: seeded decisions, queued batches, transport fault counts) when
    #: ``CobraConfig.fleet`` attached this run to a fleet
    fleet: dict | None = None
    #: resource-governor block (rung, budgets, shed/evicted/refused
    #: counts, ladder transitions) when ``CobraConfig.governor``
    #: attached a governor (:mod:`repro.governor`)
    governor: dict | None = None

    def summary(self) -> str:
        lines = [
            f"COBRA strategy={self.strategy}: {self.samples} samples, "
            f"{len(self.deployments)} active deployment(s)"
        ]
        for d in self.deployments:
            lines.append(
                f"  loop {d.loop.head:#x} -> trace {d.entry:#x} "
                f"[{d.optimization}] {d.n_rewrites} rewrite(s)"
            )
        n_rollbacks = sum(1 for e in self.events if e.kind == "rollback")
        if n_rollbacks:
            lines.append(f"  {n_rollbacks} rollback(s)")
        for v in self.versions:
            resident = ", ".join(v["versions"]) if v["versions"] else "-"
            lines.append(
                f"  loop {v['head']:#x} versions [{resident}] "
                f"active={v['active']} {v['flips']} flip(s)"
            )
        if self.validate_checks:
            lines.append(
                f"  validated {self.validate_checks} accesses, "
                f"{len(self.violations)} invariant violation(s)"
            )
        if self.mode != "normal":
            lines.append(f"  degraded mode: {self.mode}")
        if self.quarantined:
            total = sum(self.quarantined.values())
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.quarantined.items())
            )
            lines.append(f"  quarantined {total} sample(s): {reasons}")
        if self.recovery_log:
            lines.append(f"  {len(self.recovery_log)} transactional recovery event(s)")
        if self.reclaimed_bundles:
            lines.append(
                f"  reclaimed {self.reclaimed_bundles} trace-cache bundle(s)"
            )
        if self.persist is not None:
            p = self.persist
            if self.resumed:
                lines.append(
                    "  warm restart: resumed from checkpoint "
                    f"({p.records_replayed} record(s) replayed)"
                )
            lines.append(
                f"  persistence: {p.records_written} record(s) written, "
                f"{p.snapshots_written} snapshot(s), "
                f"{p.records_discarded + p.snapshots_discarded} discarded-corrupt"
            )
        if self.profile_db is not None:
            pd = self.profile_db
            ramp = "n/a" if self.ramp_retired is None else f"{self.ramp_retired} retired"
            lines.append(
                f"  profile-db: {pd['source']}, {pd['entries']} entries, "
                f"seeded {pd['seeded_loops']} loop(s), warm at {ramp}"
            )
        if self.fleet is not None:
            fl = self.fleet
            lines.append(
                f"  fleet[{fl['instance']}]: {fl['instances']} instance(s), "
                f"quorum={fl['quorum']}, {fl['published']} published decision(s), "
                f"seeded {fl['seeded']} decision(s), {fl['batches']} batch(es) "
                f"queued, {fl['quarantined']} quarantined stream(s)"
            )
            if fl.get("degraded"):
                a, b = fl.get("degraded_interval") or (0, 0)
                lines.append(
                    f"  fleet[{fl['instance']}]: degraded local-only "
                    f"[{a}, {b}] retired (daemon unreachable; reconciled at rejoin)"
                )
            if fl.get("faults"):
                counts = ", ".join(
                    f"{kind}={count}" for kind, count in sorted(fl["faults"].items())
                )
                lines.append(
                    f"  fleet[{fl['instance']}]: transport faults: {counts}"
                )
        if self.governor is not None:
            g = self.governor
            lines.append(
                f"  governor[{g['rung']}]: {g['deploys_refused']} deploy(s) "
                f"refused, {g['evictions']} eviction(s), "
                f"{g['shed_samples']} shed sample(s), "
                f"{len(g['transitions'])} transition(s)"
            )
        if self.faults is not None:
            lines.append(f"  {self.faults.summary()}")
        if self.fastpath is not None and self.fastpath.get("compiles"):
            fp = self.fastpath
            deopts = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(fp.get("deopts", {}).items())
                if count
            )
            lines.append(
                f"  trace fastpath: {fp['compiles']} compile(s), "
                f"{fp.get('coverage_pct', 0.0)}% bundles compiled, "
                f"decode-cache {fp.get('decode_cache_hit_pct', 0.0)}% hit"
                + (f", deopts: {deopts}" if deopts else "")
            )
            osr_entries = fp.get("osr_entries", 0)
            tree_links = fp.get("tree_links", 0)
            resume_hits = fp.get("resume_hits", 0)
            if osr_entries or tree_links or resume_hits:
                lines.append(
                    f"  osr: {osr_entries} mid-trace entr(y/ies), "
                    f"{tree_links} tree link(s), "
                    f"{fp.get('promotions', 0)} promotion(s), "
                    f"{resume_hits} budget resume(s)"
                )
        return "\n".join(lines)


class Cobra:
    """COBRA attached to one machine + program."""

    def __init__(
        self,
        machine: Machine,
        program: BinaryImage,
        strategy: str = "adaptive",
        config: CobraConfig | None = None,
    ) -> None:
        if strategy not in STRATEGIES:
            raise CobraError(f"unknown strategy {strategy!r} (use one of {STRATEGIES})")
        self.machine = machine
        self.program = program
        self.config = config or machine.config.cobra
        self.strategy = strategy
        # what is armed: the config with every REPRO_* override applied
        # (config.ENV_VARS), so CI can run any example or benchmark with
        # an attachment on
        armed = self.config.with_env()
        self.faults = None
        if armed.faults is not None:
            from ..faults.injector import FaultInjector

            self.faults = FaultInjector(armed.faults)
        self.trace_cache = TraceCache(self.config.trace_cache_bundles, faults=self.faults)
        machine.load_image(self.trace_cache.image)
        self.monitors = [
            MonitoringThread(core, self.config, faults=self.faults)
            for core in machine.cores
        ]
        self.optimizer = OptimizationThread(
            machine, program, self.monitors, self.trace_cache, self.config,
            strategy, faults=self.faults,
        )
        # resource governor (repro.governor): wired like the persistence
        # manager — every governed structure holds a reference, None
        # anywhere means ungoverned, bit-identical behaviour
        self.governor = None
        if armed.governor is not None:
            from ..governor.core import ResourceGovernor

            self.governor = ResourceGovernor(
                armed.governor, self.config.trace_cache_bundles, faults=self.faults
            )
            self.trace_cache.governor = self.governor
            for monitor in self.monitors:
                monitor.governor = self.governor
            self.optimizer.governor = self.governor
        # invariant checking (repro.validate)
        self.checker = None
        if armed.validate != "off":
            from ..validate.checker import CoherenceChecker

            # recorded violations feed the optimizer watchdog's
            # escalation (strict mode raises before it matters)
            self.checker = checker = CoherenceChecker(machine, armed.validate)
            self.optimizer.watch_violations(lambda: len(checker.violations))
        # crash-consistent checkpointing (repro.persist): recover any
        # existing state, then warm-start — previously proven
        # deployments go live before the first instruction runs
        self.persist = None
        self.resumed = False
        if armed.persist is not None:
            from ..persist.manager import PersistenceManager

            self.persist = PersistenceManager(armed.persist, self.faults)
            recovered = self.persist.open()
            self.trace_cache.persist = self.persist
            self.optimizer.persist = self.persist
            if recovered.state is not None:
                try:
                    state = CHECKPOINT.load(recovered.state)
                except ProfileStateError as exc:
                    raise PersistError(f"unusable checkpoint state: {exc}") from None
                self.resumed = True
                self.optimizer.warm_start(state)
        # cross-run profile database (repro.persist.profiledb): a hit
        # seeds the profiler + proven deployments before the first
        # instruction; absence/corruption just means a cold ramp
        self.profile_db = None
        self._profile_key: str | None = None
        self._profile_source = "off"
        self._profile_seeded = 0
        if armed.profile_db is not None:
            from ..persist.profiledb import ProfileDB, profile_key

            self.profile_db = ProfileDB.from_config(armed.profile_db)
            self.profile_db.load()
            self._profile_key = profile_key(program, machine.config, strategy)
            if self.profile_db.stats.future_format:
                self._profile_source = "future-format"
            elif self.profile_db.stats.corrupt:
                self._profile_source = "corrupt"
            else:
                self._profile_source = "miss"
            entry = self.profile_db.entry(self._profile_key)
            if entry is not None:
                if self.resumed:
                    # the checkpoint warm start already ran and is
                    # strictly fresher than any cross-run aggregate
                    self._profile_source = "checkpoint"
                elif (seeded := self._seed(entry, "profile-db")) is not None:
                    self._profile_seeded = seeded
                    self._profile_source = "hit"
                else:
                    # drop the damaged entry so this run's record
                    # replaces it
                    self.profile_db.discard(self._profile_key)
                    self._profile_source = "entry-invalid"
        # fleet mode (repro.fleet): the outbox passively observes every
        # optimizer wake; a daemon-pushed quorum-gated entry warm-starts
        # through the same seed_from_profile path as a profile-DB hit
        self.fleet_outbox = None
        self._fleet_seeded = 0
        if self.config.fleet is not None:
            from ..fleet.outbox import FleetOutbox
            from ..persist.profiledb import image_digest, profile_key

            fl = self.config.fleet
            self.fleet_outbox = FleetOutbox(
                fl.instance,
                profile_key(program, machine.config, strategy),
                image_digest(program),
            )
            self.optimizer.outbox = self.fleet_outbox
            if fl.entry is not None and not fl.degraded and not self.resumed:
                # the daemon validates entries before pushing; a
                # damaged one still only costs the cold ramp
                self._fleet_seeded = self._seed(fl.entry, "fleet") or 0
        self._installed = False

    def _seed(self, entry: dict, source: str) -> int | None:
        """Warm-start from a profile entry; ``None`` = it is unsound and
        the optimizer was left cold (nothing is touched before the whole
        entry has been checked)."""
        from ..persist.profiledb import entry_anomaly

        if entry_anomaly(entry) is not None:
            return None
        return self.optimizer.seed_from_profile(entry, source)

    def install(self, scheduler: Scheduler) -> None:
        """Start monitoring and hook the optimization thread in."""
        if self._installed:
            raise CobraError("COBRA already installed on a scheduler")
        for monitor in self.monitors:
            monitor.start()
        if self.checker is not None:
            self.checker.attach()
        scheduler.add_tick_hook(self.optimizer.tick)
        self._installed = True

    def run(self, program: ParallelProgram, max_bundles: int | None = None) -> RunResult:
        """Run ``program`` with this engine installed on its threads' scheduler."""
        scheduler = Scheduler([th.core for th in program.threads])
        self.install(scheduler)
        try:
            return program.run(max_bundles=max_bundles, scheduler=scheduler)
        finally:
            self.stop()

    def stop(self) -> None:
        for monitor in self.monitors:
            monitor.stop()
        if self.faults is not None:
            # final drain through the sanitizer so every delivered
            # sample — including stragglers flushed by stop() — is
            # accounted before the ledger is read
            self.optimizer.profiler.ingest(self.monitors)
        if self.checker is not None:
            self.checker.detach()
        if self.persist is not None:
            # final window + snapshot make a *completed* run's store the
            # warm-start seed for the next one (no-ops after a crash:
            # the dead disk swallows the writes)
            self.persist.close(self.optimizer.export_state())
        if self.profile_db is not None:
            # a simulated crash killed the process: it cannot have
            # written its profile out either
            crashed = self.persist is not None and getattr(
                self.persist.disk, "dead", False
            )
            if not crashed:
                self.profile_db.record_run(
                    self._profile_key, self.optimizer.export_profile_entry()
                )
                if self.governor is not None:
                    from ..governor.core import PROFILE_DB_ENTRIES

                    # cold-key compaction at snapshot time: the entry
                    # budget is enforced on what actually hits disk
                    self.governor.note_compacted(
                        self.profile_db.compact(PROFILE_DB_ENTRIES)
                    )
                self.profile_db.save()

    def report(self) -> CobraReport:
        profiler = self.optimizer.profiler
        ledger = self.faults.ledger() if self.faults is not None else None
        if (
            ledger is None
            and self.governor is not None
            and self.governor.private_ledger
            and self.governor.faults.events
        ):
            # no chaos injector was armed, but the governor recorded
            # overload events and shed/evicted accounting in its private
            # ledger — surface it so the full-accounting contract holds
            ledger = self.governor.faults.ledger()
        return CobraReport(
            fastpath=fastpath_stats(self.machine),
            strategy=self.strategy,
            samples=sum(m.prior_samples + m.samples_taken for m in self.monitors),
            deployments=self.optimizer.deployments(),
            events=list(self.optimizer.events),
            validate_checks=self.checker.checks if self.checker else 0,
            violations=list(self.checker.violations) if self.checker else [],
            mode=self.optimizer.mode,
            quarantined=dict(profiler.quarantined),
            recovery_log=list(self.trace_cache.recovery_log),
            faults=ledger,
            reclaimed_bundles=self.trace_cache.reclaimed_bundles,
            persist=self.persist.stats if self.persist is not None else None,
            resumed=self.resumed,
            versions=self.trace_cache.version_report(),
            profile_db=self._profile_db_report(),
            ramp_retired=self.optimizer.warm_at_retired,
            fleet=self._fleet_report(),
            governor=self.governor.report() if self.governor is not None else None,
        )

    def _fleet_report(self) -> dict | None:
        if self.config.fleet is None:
            return None
        fl = self.config.fleet
        return {
            "instance": fl.instance,
            "instances": fl.instances,
            "quorum": fl.quorum,
            "published": fl.published,
            "seeded": self._fleet_seeded,
            "batches": len(self.fleet_outbox.windows),
            "quarantined": fl.quarantined,
            "degraded": fl.degraded,
        }

    def _profile_db_report(self) -> dict | None:
        if self.profile_db is None:
            return None
        stats = self.profile_db.stats
        return {
            "key": self._profile_key,
            "source": self._profile_source,
            "entries": stats.entries,
            "seeded_loops": self._profile_seeded,
            "runs_recorded": stats.runs_recorded,
            "saved": stats.saved,
        }


def run_with_cobra(
    program: ParallelProgram,
    strategy: str = "adaptive",
    config: CobraConfig | None = None,
    max_bundles: int | None = None,
) -> tuple[RunResult, CobraReport]:
    """Run a built :class:`ParallelProgram` under COBRA."""
    cobra = Cobra(program.machine, program.image, strategy, config)
    return cobra.run(program, max_bundles), cobra.report()
