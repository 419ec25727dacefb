"""The optimization thread (paper §3.2).

"The optimization thread orchestrates the overall initialization, trace
selection, optimization, and trace cache management.  Notably, there is
only one optimization thread ... this design choice simplifies its
implementation, and enables centralized control over multiple
monitoring threads."

The thread wakes every ``optimize_interval`` aggregate retired
instructions, drains all User Sampling Buffers into the system
profiler, and — when the system-wide coherent ratio warrants it —
selects one hot loop, decides an optimization, and deploys a rewritten
trace.  One deployment per wake-up keeps before/after attribution clean
for the rollback check (re-adaptation): if the windowed system CPI
degrades after a deployment, the deployment is reverted and the loop
blacklisted.

While a deployment is under evaluation the optimizer *defers judgement*
but does not go blind: every wake still ingests samples, maintains the
CPI history, and runs the phase-change rollback scan (an earlier
version early-returned here, starving both for the whole evaluation
period).  Empty windows — no retired instructions, ``cpi() == 0.0`` —
carry no signal and are never recorded into the history or allowed to
"pass" a regression check.

The optimizer is also the runtime's **watchdog**: it restarts
monitoring threads that died mid-run, and escalates repeated faults or
recorded invariant violations into a ``monitor-only`` degraded mode —
every active deployment is reverted to the unmodified (always-correct)
original code and no new traces are deployed, while profiling and
reporting continue.  Degrading costs performance, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..config import CobraConfig
from ..cpu.machine import Machine
from ..errors import TraceCacheError
from ..isa.binary import BinaryImage
from .monitor import MonitoringThread
from .opts import REWRITES
from .policy import EVIDENCE, decide, proven_decisions
from .profiler import SystemProfiler
from .tracecache import Deployment, TraceCache
from .tracesel import LoopTrace, select_loop_traces

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = ["OptimizationThread", "OptEvent", "MODES"]

#: Operating modes: ``monitor-only`` is the degraded state — profile,
#: report, but never patch.
MODES = ("normal", "monitor-only")

#: A single wake with at least this many freshly quarantined samples is
#: a fault strike (a trickle is business as usual under injection; a
#: surge means the sampling path itself is sick).
_QUARANTINE_SURGE = 4

#: How the two reasons other code keys on begin.  The producer formats
#: with the constant and the consumer asks the :class:`OptEvent`
#: predicate, so rewording a message cannot silently zero the profile
#: database's ``rolled_back`` evidence or the recovery harness's check
#: (a typed cause field is ROADMAP item 4).
REGRESSION = "CPI "
WARM_RESTART = "warm restart"


@dataclass(frozen=True)
class OptEvent:
    """One logged optimizer action."""

    retired: int
    kind: str          # "deploy" | "rollback" | "skip" | "recover" | "degrade"
    loop_head: int | None
    optimization: str | None
    reason: str

    def row(self) -> list:
        """``[retired, kind, loop_head, optimization, reason]`` — the
        journal's ``decision`` record, a checkpoint's ``events`` item
        and a ``BENCH_perf.json`` ``opt_events`` row; ``OptEvent(*row)``
        is the way back."""
        return [self.retired, self.kind, self.loop_head, self.optimization, self.reason]

    def is_regression(self) -> bool:
        """A rollback because CPI got worse: evidence against the optimization."""
        return self.kind == "rollback" and self.reason.startswith(REGRESSION)

    def is_warm_redeploy(self) -> bool:
        """A deployment put back from a checkpoint at warm restart."""
        return self.kind == "deploy" and self.reason.startswith(WARM_RESTART)


@dataclass
class _Window:
    cycles: int
    retired: int

    def cpi(self, machine: Machine) -> float:
        dc = machine.total_cycles() - self.cycles
        dr = machine.total_retired() - self.retired
        return dc / dr if dr > 0 else 0.0


class OptimizationThread:
    """Centralized optimizer over all monitoring threads."""

    def __init__(
        self,
        machine: Machine,
        program: BinaryImage,
        monitors: list[MonitoringThread],
        trace_cache: TraceCache,
        config: CobraConfig,
        strategy: str = "adaptive",
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.machine = machine
        self.program = program
        self.monitors = monitors
        self.trace_cache = trace_cache
        self.config = config
        self.strategy = strategy
        self.faults = faults
        self.profiler = SystemProfiler(config, faults)
        self.events: list[OptEvent] = []
        self.blacklist: set[int] = set()
        self.mode = "normal"
        self.fault_strikes = 0
        self._quarantine_seen = 0
        self._violations_seen = 0
        self._violation_source: Callable[[], int] | None = None
        self._last_wake = 0
        # (deployment, CPI before, wakes left before judging)
        self._pending_eval: tuple[Deployment, float, int] | None = None
        self._window = _Window(machine.total_cycles(), machine.total_retired())
        # recent per-window CPIs; deployment needs a warm, phase-averaged
        # baseline (the first windows are cold-miss-inflated)
        self._cpi_history: list[float] = []
        # whole-run CPI accumulator (the history window keeps only the
        # last 4); feeds the cross-run profile database
        self._cpi_sum = 0.0
        self._cpi_n = 0
        #: retired-instruction count at which the profile first became
        #: warm (3 recorded CPI windows); ``0`` when seeded from a
        #: checkpoint or profile-DB entry, ``None`` if never reached.
        #: This is the profiling-ramp metric the warm-start gate checks.
        self.warm_at_retired: int | None = None
        #: persistence manager (:mod:`repro.persist`); wired by the
        #: framework after construction, ``None`` = no journaling
        self.persist = None
        #: fleet telemetry outbox (:mod:`repro.fleet`); wired by the
        #: framework after construction, ``None`` = solo run.  Purely
        #: observational — it reads the profiler and window CPI at each
        #: wake and never feeds anything back into this run.
        self.outbox = None
        #: resource governor (:mod:`repro.governor`); wired by the
        #: framework after construction, ``None`` = ungoverned
        self.governor = None

    def watch_violations(self, source: Callable[[], int]) -> None:
        """Register a recorded-violation counter for the watchdog."""
        self._violation_source = source

    def _log(
        self,
        retired: int,
        kind: str,
        loop_head: int | None,
        optimization: str | None,
        reason: str,
    ) -> None:
        """Record one optimizer event (and journal it when persisting)."""
        event = OptEvent(retired, kind, loop_head, optimization, reason)
        self.events.append(event)
        if self.persist is not None:
            self.persist.log_decision(event.row())

    def _note_cpi(self, value: float) -> None:
        """Record one windowed CPI observation."""
        self._cpi_history.append(value)
        self._cpi_sum += value
        self._cpi_n += 1

    # -- scheduler hook ---------------------------------------------------------

    def tick(self) -> None:
        """Called between scheduling slices; cheap until the wake point."""
        retired = self.machine.total_retired()
        if retired - self._last_wake < self.config.optimize_interval:
            return
        self._last_wake = retired
        if self.faults is not None:
            event = self.faults.loop_fault()
            if event is not None:
                if event.kind == "missed_wakeup":
                    # the wake signal is lost; adaptation waits a period
                    return
                if event.kind == "monitor_death":
                    victim = self.monitors[self.faults.choice(len(self.monitors))]
                    if victim.running:
                        victim.kill()
                    else:
                        self.faults.tolerated(event, "victim already down")
        self.wake()

    # -- going live, coming down ------------------------------------------------

    def _go_live(
        self,
        retired: int,
        trace: LoopTrace,
        optimization: str,
        reason: str,
        failed: str = "",
        replacing: Deployment | None = None,
    ) -> tuple[Deployment | None, str | None]:
        """Put ``optimization`` live on ``trace``: the one path every
        deployment takes, cold or warm.

        Builds the rewrite (:data:`~repro.core.opts.REWRITES`), takes
        down the version it is ``replacing`` — only once the new one is
        known to build — deploys, and logs the outcome: a ``deploy``
        event carrying ``reason``, or a ``skip`` event whose reason is
        ``failed`` + the trace cache's refusal.  Returns ``(deployment,
        refusal)``; at most one is not ``None``.
        """
        rewrite = REWRITES[optimization](self.program, trace)
        if rewrite is None:
            self._log(retired, "skip", trace.head, optimization,
                      "no store-associated prefetch in loop")
            return None, None
        if replacing is not None:
            self.trace_cache.rollback(self.program, replacing)
            self._log(retired, "rollback", trace.head, replacing.optimization,
                      f"phase now prefers {optimization}: version flip")
        try:
            deployment = self.trace_cache.deploy(
                self.program, trace, rewrite, optimization
            )
        except TraceCacheError as exc:
            self._log(retired, "skip", trace.head, optimization, f"{failed}{exc}")
            return None, str(exc)
        self._log(retired, "deploy", trace.head, optimization, reason)
        return deployment, None

    def _revert_all(self, retired: int, reason: str | None = None) -> None:
        """Take every active deployment down, logging ``reason`` per loop
        if given (a pending evaluation finds its deployment inactive at
        the next wake and stands down)."""
        for deployment in self.deployments():
            self.trace_cache.rollback(self.program, deployment)
            if reason is not None:
                self._log(retired, "rollback", deployment.loop.head,
                          deployment.optimization, reason)

    # -- watchdog ---------------------------------------------------------------

    def _strike(self, retired: int, reason: str) -> None:
        """Count a fault strike; escalate to monitor-only past the cap."""
        self.fault_strikes += 1
        if (
            self.mode == "normal"
            and self.fault_strikes >= self.config.fault_escalation_threshold
        ):
            self.mode = "monitor-only"
            self._revert_all(retired)
            self._log(
                retired, "degrade", None, None,
                f"monitor-only after {self.fault_strikes} fault strike(s): {reason}",
            )

    def _watchdog(self, retired: int) -> None:
        for monitor in self.monitors:
            if monitor.dead:
                monitor.restart()
                if self.faults is not None:
                    self.faults.claim(
                        "loop", f"monitor {monitor.core.cpu_id} restarted by watchdog"
                    )
                    self._strike(
                        retired, f"monitor {monitor.core.cpu_id} died"
                    )
                self._log(
                    retired, "recover", None, None,
                    f"monitor {monitor.core.cpu_id} restarted by watchdog",
                )
        if self.faults is not None:
            quarantined = self.profiler.quarantined_total
            surge = quarantined - self._quarantine_seen
            self._quarantine_seen = quarantined
            if surge >= _QUARANTINE_SURGE:
                self._strike(retired, f"{surge} samples quarantined in one window")
            if self._violation_source is not None:
                violations = self._violation_source()
                if violations > self._violations_seen:
                    self._strike(
                        retired,
                        f"{violations - self._violations_seen} invariant "
                        "violation(s) recorded",
                    )
                    self._violations_seen = violations

    # -- one optimizer wake-up -----------------------------------------------------

    def _governor_wake(self, retired: int) -> bool:
        """Governor step at the top of each wake; ``True`` = rung off.

        Rung effects are applied *idempotently* every wake, not only on
        transitions — the watchdog may have restarted a dead monitor
        during ``frozen``, or a warm path may have deployed before the
        governor first observed pressure; re-asserting the rung each
        wake keeps the runtime consistent with it regardless.
        """
        gov = self.governor
        before = gov.rung
        rung = gov.on_wake(
            retired, self.trace_cache, self.outbox,
            cores=self.machine.cores,
        )
        if rung != before:
            from ..governor.ladder import RUNGS

            kind = "degrade" if RUNGS.index(rung) > RUNGS.index(before) else "recover"
            self._log(
                retired, kind, None, None,
                f"governor: {before} -> {rung} (pressure {gov.last_pressure:.2f})",
            )
        if rung in ("monitor-only", "frozen", "off"):
            self._revert_all(retired, f"governor rung {rung}: deployment reverted")
        if rung in ("frozen", "off"):
            for monitor in self.monitors:
                if monitor.running:
                    monitor.stop()
        else:
            for monitor in self.monitors:
                if not monitor.running and not monitor.dead:
                    monitor.start()
        if rung == "off":
            # governed blackout: no ingest, no deploys, no telemetry;
            # the window resets so the next governed wake starts clean
            self._window = _Window(
                self.machine.total_cycles(), self.machine.total_retired()
            )
            self.profiler.new_window()
            return True
        return False

    def wake(self) -> None:
        retired = self.machine.total_retired()
        self._watchdog(retired)
        if self.governor is not None and self._governor_wake(retired):
            return
        self.profiler.ingest(self.monitors)

        # evaluate the previous deployment's effect (re-adaptation):
        # the after-CPI is phase-averaged over several windows, because
        # one window may cover different program regions than another
        deferring = False
        if self._pending_eval is not None and self.config.enable_rollback:
            deployment, before_cpi, wakes_left = self._pending_eval
            head, optimization = deployment.loop.head, deployment.optimization
            if not deployment.active:
                # reverted underneath the evaluation (phase change,
                # governor rung or degraded-mode sweep): nothing to judge
                self._pending_eval = None
            elif wakes_left > 0:
                self._pending_eval = (deployment, before_cpi, wakes_left - 1)
                deferring = True
            else:
                after_cpi = self._window.cpi(self.machine)
                self._pending_eval = None
                if after_cpi == 0.0:
                    # empty window: no retired instructions, no signal —
                    # neither a pass nor a regression
                    self._log(retired, "skip", head, optimization,
                              "empty evaluation window: no signal")
                elif before_cpi > 0 and after_cpi > before_cpi * 1.03:
                    self.trace_cache.rollback(self.program, deployment)
                    self.blacklist.add(head)
                    self._log(
                        retired, "rollback", head, optimization,
                        f"{REGRESSION}{before_cpi:.2f} -> {after_cpi:.2f} "
                        "after deployment",
                    )
                else:
                    self._note_cpi(after_cpi)

        window_cpi = self._window.cpi(self.machine)
        if window_cpi > 0.0:
            self._note_cpi(window_cpi)
        del self._cpi_history[:-4]
        if self.warm_at_retired is None and len(self._cpi_history) >= 3:
            # the profiling ramp ends here: from this wake on, the
            # deploy baseline is warm
            self.warm_at_retired = retired

        ratio = self.profiler.coherent_ratio()

        # continuous re-adaptation: a deployment is only justified while
        # coherent traffic dominates; when the program enters a phase
        # where it no longer does (e.g. the working set outgrew the
        # caches), revert — without blacklisting, so the optimization
        # can come back if the earlier behaviour returns.  This scan
        # also runs while an evaluation is deferring.
        if ratio < self.config.coherent_ratio_threshold:
            self._revert_all(
                retired, f"coherent ratio fell to {ratio:.2f}: phase change"
            )

        if deferring:
            # keep the evaluation window open (no reset, no decay) so
            # the after-CPI stays phase-averaged; no new deployment
            # while one is under evaluation (attribution)
            self._outbox_flush(retired, window_cpi)
            self._persist_wake()
            return

        if self.mode == "normal" and (
            self.governor is None or self.governor.rung == "full"
        ):
            self._deploy_one(retired, ratio)

        self._outbox_flush(retired, window_cpi)
        self._window = _Window(self.machine.total_cycles(), self.machine.total_retired())
        self.profiler.new_window()
        self._persist_wake()

    def _deploy_one(self, retired: int, ratio: float) -> None:
        """Select one hot loop and deploy (or re-dispatch) a trace for it.

        A loop already running one optimized version is not frozen
        there: when the observed phase now prefers a *different*
        optimization, the live version is rolled back and the preferred
        one deployed — usually a cheap head-redirect re-dispatch, since
        the trace cache keeps every built version resident.
        """
        warm = len(self._cpi_history) >= 3
        for trace in select_loop_traces(self.profiler, self.program):
            if trace.head in self.blacklist:
                continue
            current = self.trace_cache.active_deployment(trace.head)
            decision = decide(trace, self.strategy, self.config, ratio)
            wanted = decision.optimization
            if current is not None:
                # multi-version dispatch: flip only on a clear, warm
                # preference for another version; everything else keeps
                # the live one (the phase-change scan in wake() already
                # handles "no optimization warranted at all")
                if wanted is None or wanted == current.optimization or not warm:
                    continue
            elif wanted is None:
                self._log(retired, "skip", trace.head, None, decision.reason)
                continue
            elif not warm:
                self._log(retired, "skip", trace.head, wanted, "profile not warm yet")
                continue
            history = self._cpi_history[-3:]
            before_cpi = sum(history) / len(history)
            deployment, refusal = self._go_live(
                retired, trace, wanted, decision.reason, replacing=current
            )
            if refusal is not None and self.faults is not None:
                self._strike(retired, f"deployment failed: {refusal}")
            if deployment is not None:
                self._pending_eval = (deployment, before_cpi, 2)
                break  # one deployment per wake-up

    def _redeploy(self, records: list[dict], reason: str, failed: str) -> int:
        """Put proven deployments live again; return how many went live.

        ``records`` are :attr:`Deployment.RECORD`s (a checkpoint's) or
        carry at least its loop fields and ``optimization`` (a profile
        entry's).  No pending evaluation is armed — the cold windows of
        this run would compare a warm before-CPI against a restart
        transient and revert an optimization proven over whole prior
        runs — but the phase-change scan and the regression check on
        *future* deployments apply unchanged.
        """
        deployed = 0
        for record in records:
            trace = Deployment.loop_of(record, self.program)
            if (
                trace.head in self.blacklist
                or not trace.lfetch_sites  # none, too, if the image lacks the loop
                or self.trace_cache.active_deployment(trace.head) is not None
            ):
                continue
            deployment, _ = self._go_live(
                0, trace, str(record["optimization"]), reason, failed
            )
            deployed += deployment is not None
        return deployed

    # -- persistence (repro.persist) -----------------------------------------------

    def _persist_wake(self) -> None:
        """Journal the full control-plane state at the end of a wake."""
        if self.persist is not None:
            self.persist.log_window(self.export_state())

    def _outbox_flush(self, retired: int, window_cpi: float) -> None:
        """Hand the closing window's telemetry to the fleet outbox."""
        if self.outbox is not None:
            self.outbox.on_wake(retired, window_cpi, self.profiler)

    def export_state(self) -> dict:
        """JSON-serializable control-plane state (one 'window' record);
        the keys are :func:`repro.persist.recover.empty_state`'s."""
        return {
            "profiler": self.profiler.export_state(),
            "cpi_history": list(self._cpi_history),
            "blacklist": sorted(self.blacklist),
            "mode": self.mode,
            "fault_strikes": self.fault_strikes,
            "events": [e.row() for e in self.events],
            "deployments": [d.record() for d in self.deployments()],
            "samples_per_cpu": {
                str(m.core.cpu_id): m.prior_samples + m.samples_taken
                for m in self.monitors
            },
        }

    def warm_start(self, state: dict) -> None:
        """Resume from a recovered control-plane state (re-adaptation).

        ``state`` holds every key :meth:`export_state` writes.  Restores
        the profile aggregates and their companions (per-CPU sample
        counts, CPI history, blacklist, mode, event history) and
        immediately re-deploys the previously proven optimizations — no
        cold profiling ramp (:meth:`_redeploy`).
        """
        if state["profiler"]:
            self.profiler.restore_state(state["profiler"])
        for monitor in self.monitors:
            monitor.prior_samples = int(
                state["samples_per_cpu"].get(str(monitor.core.cpu_id), 0)
            )
        self._cpi_history = [float(x) for x in state["cpi_history"]][-4:]
        if len(self._cpi_history) >= 3:
            # the checkpointed profile is already warm: no cold ramp
            self.warm_at_retired = 0
        self.blacklist = {int(h) for h in state["blacklist"]}
        self.mode = str(state["mode"])
        self.fault_strikes = int(state["fault_strikes"])
        self.events = [OptEvent(*row) for row in state["events"]]
        # the restored quarantine total predates this session: without
        # re-basing, the first watchdog pass would read the whole prior
        # history as one surge and strike immediately
        self._quarantine_seen = self.profiler.quarantined_total
        if self.mode == "normal":  # a degraded session resumes degraded
            self._redeploy(
                state["deployments"],
                f"{WARM_RESTART}: re-deployed from checkpoint",
                "warm redeploy failed: ",
            )

    # -- cross-run profile database (repro.persist.profiledb) -----------------------

    def seed_from_profile(self, entry: dict, source: str = "profile-db") -> int:
        """Warm-start from a cross-run profile-DB entry; return loops deployed.

        ``source`` labels the event log: ``"profile-db"`` for a local
        database hit, ``"fleet"`` for a daemon-pushed, quorum-gated
        entry — same deployment path, different provenance.

        ``entry`` must be sound (:func:`repro.persist.profiledb.
        entry_anomaly` is ``None`` — :class:`~repro.core.framework.Cobra`
        checks before it calls).  Restores the profiler aggregates,
        seeds the CPI baseline from the entry's steady-state mean, and
        puts the best proven optimization per loop live
        (:meth:`_redeploy`).
        """
        if entry.get("profiler") is not None:
            self.profiler.restore_state(entry["profiler"])
            # prior-run quarantine noise is not this run's signal
            self.profiler.quarantined = {}
            self.profiler.quarantined_total = 0
            self._quarantine_seen = 0
        if entry["cpi_count"] > 0:
            mean = entry["cpi_total"] / entry["cpi_count"]
            if mean > 0.0:
                self._cpi_history = [mean, mean, mean]
                self.warm_at_retired = 0
        deployed = self._redeploy(
            proven_decisions(entry, self.strategy),
            f"{source}: re-deployed proven optimization",
            f"{source} redeploy failed: ",
        )
        # warm-start the trace JIT too: recompile persisted tree shapes
        # so compiled dispatch is live from retired 0 instead of after
        # every head re-proves hot.  Best-effort and timing-neutral —
        # a stale or torn shape is skipped, never wrong.
        shapes = entry.get("jit_trees") or []
        if shapes:
            seeded = 0
            for core in self.machine.cores:
                if core.jit_enabled and core.osr_enabled:
                    tjit = core.trace_jit
                    tjit.osr = True
                    seeded += tjit.warm_seed(
                        shapes, core.decode_cache, core.bundles_per_cycle
                    )
            if seeded:
                self._log(
                    0, "deploy", None, None,
                    f"{source}: {seeded} trace-tree node(s) "
                    "recompiled for warm dispatch",
                )
        return deployed

    def export_profile_entry(self) -> dict:
        """This run's contribution to the cross-run profile database.

        ``proven`` evidence comes from deployments still active at run
        end (they survived the regression check and every phase scan);
        ``rolled_back`` only from CPI-regression rollbacks — a
        phase-change revert is not evidence against the optimization,
        just against the moment.
        """
        prof = self.profiler.export_state()
        prof["quarantined"] = {}
        prof["quarantined_total"] = 0
        decisions: dict[str, dict] = {}

        def note(head, optimization, n_rewrites=None, **evidence) -> None:
            slot = decisions.setdefault(str(head), {})
            seen = slot.get(optimization, {})
            slot[optimization] = {
                field: combine(seen.get(field, 0), evidence.get(field, 0))
                for field, combine in EVIDENCE.items()
            }

        for d in self.deployments():
            note(**d.record(), proven=1)
        for e in self.events:
            if e.is_regression():
                note(e.loop_head, e.optimization, rolled_back=1)
        return {
            "runs": 1,
            "profiler": prof,
            "cpi_total": self._cpi_sum,
            "cpi_count": self._cpi_n,
            "decisions": decisions,
            "flips": sum(
                vs.flips for vs in self.trace_cache.version_sets.values()
            ),
            # resident trace-tree shapes, deduped across cores: a warm
            # run recompiles these before the first instruction retires
            "jit_trees": sorted(
                [root, head, kind, sor]
                for root, head, kind, sor in {
                    (tr.root, tr.head, tr.kind, tr.sor)
                    for core in self.machine.cores
                    for tr in core.trace_jit.traces.values()
                }
            ),
        }

    # -- reporting ----------------------------------------------------------------

    def deployments(self) -> list[Deployment]:
        return [d for d in self.trace_cache.deployments if d.active]
