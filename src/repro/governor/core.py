"""Runtime resource governor and seeded overload injector.

The governor puts an explicit budget on every structure that would
otherwise grow without bound and converts exhaustion from a hard edge
(permanent deploy refusal, silent queue growth) into governed
degradation: cold resident trace copies are evicted deterministically,
sample queues shed their oldest entries with ledger accounting, the
fleet outbox is bounded, and sustained pressure walks the
:class:`~repro.governor.ladder.DegradationLadder` one rung at a time.
Degradation only ever *forgoes optimization* — running the unmodified
original is always correct — so program outputs stay bit-identical to
an ungoverned run under any overload schedule.

Pressure is measured over the *irreducible* trace footprint (bundles of
the live versions only): rolled-back resident copies are reclaimable at
any time by eviction and must not hold the ladder down, or recovery to
``full`` could never converge.  The overload injector draws from its
**own** PRNG (:class:`~repro.config.OverloadConfig.seed`), never the
fault injector's, so arming overload cannot perturb an armed fault
schedule; its events enter the shared fault ledger via
:meth:`~repro.faults.injector.FaultInjector.inject` (no draw) and every
governor response — eviction, shed, refusal, compaction — is recorded
as a detected event, keeping the standing full-accounting contract.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..config import GovernorConfig, OverloadConfig
from .ladder import RECOVER_PRESSURE, DegradationLadder

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = [
    "ResourceGovernor",
    "OverloadInjector",
    "OVERLOAD_SCHEDULES",
    "PROFILE_DB_ENTRIES",
    "OUTBOX_BATCHES",
    "JIT_NODE_BUDGET",
    "SHRINK_FACTOR",
]

#: Profile-database entries kept by compaction at save.
PROFILE_DB_ENTRIES = 256
#: Fleet-outbox window batches kept before the oldest are shed.
OUTBOX_BATCHES = 1024
#: Per-core compiled-trace footprint (bundles) before cold trace-tree
#: nodes are evicted.
JIT_NODE_BUDGET = 512
#: Trace-budget multiplier of one overload shrink event.
SHRINK_FACTOR = 0.5

#: Named overload rate presets (``OverloadConfig`` fields), swept by the
#: fuzz ``overloaded`` row; ``everything`` is the ``--overload-seed``
#: schedule.  Every schedule is capped (``max_events``) so it quiesces
#: and the recovery contract is checkable within the run.
OVERLOAD_SCHEDULES: dict[str, dict] = {
    "shrink": dict(shrink_rate=0.30, max_events=4),
    "flood": dict(flood_rate=0.25, flood_factor=4, flood_windows=2, max_events=4),
    "storm": dict(storm_rate=0.30, disk_rate=0.20, max_events=6),
    "everything": dict(
        shrink_rate=0.15, flood_rate=0.15, disk_rate=0.15, storm_rate=0.15,
        max_events=8,
    ),
}


class OverloadInjector:
    """Draws the seeded overload schedule (one draw per category per wake)."""

    #: (fault kind, rate attribute) per category, in draw order
    CATEGORIES = (
        ("budget_shrink", "shrink_rate"),
        ("sample_flood", "flood_rate"),
        ("slow_disk", "disk_rate"),
        ("ingest_storm", "storm_rate"),
    )

    def __init__(self, config: OverloadConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self.injected = 0

    def draw(self) -> list[str]:
        """Overload events for this wake (empty once ``max_events`` hit)."""
        kinds: list[str] = []
        for kind, attr in self.CATEGORIES:
            rate = getattr(self.config, attr)
            if rate <= 0.0 or self.rng.random() >= rate:
                continue
            if self.config.max_events and self.injected >= self.config.max_events:
                continue
            self.injected += 1
            kinds.append(kind)
        return kinds


class ResourceGovernor:
    """Budgets, pressure accounting, and the degradation ladder.

    Wired post-construction like the persistence manager: the trace
    cache, every monitoring thread, and the optimizer hold a reference;
    ``None`` anywhere means ungoverned behaviour, bit-identical to
    before the governor existed.
    """

    def __init__(
        self,
        config: GovernorConfig,
        capacity: int,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.config = config
        budget = capacity
        if config.trace_cache_budget is not None:
            budget = min(budget, config.trace_cache_budget)
        #: current trace-cache bundle budget (shrinks under overload,
        #: never below ``config.budget_floor``)
        self.trace_budget = budget
        #: per-monitor sample-queue depth (drop-oldest past this)
        self.sample_budget = config.sample_queue_depth
        self.ladder = DegradationLadder()
        self.overload = (
            OverloadInjector(config.overload) if config.overload is not None else None
        )
        if faults is None:
            # private ledger: the run has no chaos injector, but shed/
            # evicted/refused items still need accounting.  Zero rates —
            # this injector never draws, it only records.
            from ..faults.injector import FaultInjector, zero_rate_faults

            seed = config.overload.seed if config.overload is not None else 0
            faults = FaultInjector(zero_rate_faults(seed))
            self.private_ledger = True
        else:
            self.private_ledger = False
        self.faults = faults

        self.wakes = 0
        self.last_pressure = 0.0
        #: wake index of the last observation above ``RECOVER_PRESSURE``
        #: (the harness bounds recovery time from this)
        self.last_pressure_wake = 0
        self.deploys_refused = 0
        self.evictions = 0
        self.evicted_bundles = 0
        self.jit_evictions = 0
        self.jit_evicted_bundles = 0
        self.shed_samples = 0
        self.shed_batches = 0
        self.db_compacted = 0
        #: ladder transitions, in order: dicts with retired/from/to/
        #: pressure/streak
        self.transitions: list[dict] = []
        self._shed_since_wake = 0
        self._flood_left = 0
        self._disk_backlog = 0.0
        self._ingest_backlog = 0.0
        # one ledger event per refused (loop, budget) pair — a loop
        # refused at the same budget every wake is one finding, not many
        self._refused_logged: set[tuple[int, int]] = set()

    @property
    def rung(self) -> str:
        return self.ladder.rung

    # -- budget accounting (called by the governed structures) -------------

    def admit_deploy(self, active_bundles: int, n_bundles: int) -> bool:
        """May a deployment grow the live footprint by ``n_bundles``?

        Admission keeps the irreducible footprint at or below the
        recovery threshold's share of the budget, so a run that has
        recovered to ``full`` can never immediately push itself back
        over the escalation edge by deploying.
        """
        headroom = RECOVER_PRESSURE * self.trace_budget
        return active_bundles + n_bundles <= headroom

    def note_evicted(self, victims: list[tuple[int, str, int]]) -> None:
        """Cold resident copies were freed; account each in the ledger."""
        for head, opt, n_bundles in victims:
            self.evictions += 1
            self.evicted_bundles += n_bundles
            self.faults.observe(
                "trace_evicted",
                "governor",
                f"cold {opt} trace for loop {head:#x} evicted "
                f"({n_bundles} bundle(s))",
            )

    def note_jit_evicted(
        self, cpu_id: int, victims: list[tuple[int, str, int]]
    ) -> None:
        """A core's trace JIT freed cold tree nodes; ledger each one."""
        for head, kind, n_bundles in victims:
            self.jit_evictions += 1
            self.jit_evicted_bundles += n_bundles
            self.faults.observe(
                "jit_traces_evicted",
                "governor",
                f"cpu {cpu_id}: cold {kind} trace node {head:#x} evicted "
                f"({n_bundles} bundle(s))",
            )

    def note_refused(self, head: int, n_bundles: int) -> None:
        """A deployment could not be admitted even after eviction."""
        self.deploys_refused += 1
        key = (head, self.trace_budget)
        if key not in self._refused_logged:
            self._refused_logged.add(key)
            self.faults.observe(
                "deploy_refused",
                "governor",
                f"deploy of loop {head:#x} ({n_bundles} bundle(s)) refused "
                f"at budget {self.trace_budget}",
            )

    def note_shed_samples(self, count: int, cpu_id: int) -> None:
        """A monitor dropped its oldest ``count`` samples at the cap."""
        self.shed_samples += count
        self._shed_since_wake += count
        self.faults.observe(
            "samples_shed",
            "governor",
            f"monitor {cpu_id} shed {count} oldest sample(s) at depth "
            f"{self.sample_budget}",
        )

    def note_compacted(self, count: int) -> None:
        """Profile-DB compaction dropped ``count`` coldest entries."""
        if count:
            self.db_compacted += count
            self.faults.observe(
                "db_compacted",
                "governor",
                f"profile-db compaction dropped {count} coldest entr(y/ies) "
                f"at budget {PROFILE_DB_ENTRIES}",
            )

    def flood_extra(self) -> int:
        """Extra copies each delivered sample fans into during a flood."""
        if self._flood_left > 0 and self.config.overload is not None:
            return self.config.overload.flood_factor - 1
        return 0

    # -- one governed wake -------------------------------------------------

    def on_wake(self, retired: int, trace_cache, outbox=None, cores=None) -> str:
        """Inject, enforce budgets, measure pressure, move the ladder."""
        self.wakes += 1
        if self._flood_left > 0:
            self._flood_left -= 1
        if self.overload is not None:
            for kind in self.overload.draw():
                self._apply_overload(kind, trace_cache)
        # room maintenance: total residency (live + cold copies) above
        # the budget — only possible after a shrink — evicts coldest
        # copies down to the budget; this is reclamation, not pressure
        if trace_cache.used_bundles > self.trace_budget:
            self.note_evicted(trace_cache.evict_cold(self.trace_budget))
        # the trace JIT's tree nodes are a second compiled footprint:
        # bound each core's resident bundles the same cold-first way
        for core in cores or ():
            tjit = core.trace_jit
            if tjit.compiled_footprint() > JIT_NODE_BUDGET:
                self.note_jit_evicted(core.cpu_id, tjit.evict_cold(JIT_NODE_BUDGET))
        if outbox is not None and len(outbox.windows) > OUTBOX_BATCHES:
            shed = len(outbox.windows) - OUTBOX_BATCHES
            del outbox.windows[:shed]
            self.shed_batches += shed
            self.faults.observe(
                "batches_shed",
                "governor",
                f"outbox shed {shed} oldest batch(es) at budget {OUTBOX_BATCHES}",
            )
        pressure = self._pressure(trace_cache, outbox)
        self.last_pressure = pressure
        if pressure > RECOVER_PRESSURE:
            self.last_pressure_wake = self.wakes
        transition = self.ladder.observe(pressure)
        if transition is not None:
            frm, to, streak = transition
            self.transitions.append(
                {
                    "retired": retired,
                    "from": frm,
                    "to": to,
                    "pressure": pressure,
                    "streak": streak,
                }
            )
        # gauges decay after the observation (a spike is pressure for
        # the wake it lands on, then drains)
        self._disk_backlog *= 0.5
        self._ingest_backlog *= 0.5
        self._shed_since_wake = 0
        return self.rung

    def _apply_overload(self, kind: str, trace_cache) -> None:
        overload = self.config.overload
        if kind == "budget_shrink":
            old = self.trace_budget
            new = max(self.config.budget_floor, int(old * SHRINK_FACTOR))
            self.trace_budget = new
            event = self.faults.inject(
                "budget_shrink", "governor", f"trace budget {old} -> {new}"
            )
            victims = trace_cache.evict_cold(self.trace_budget)
            if victims:
                self.note_evicted(victims)
            note = (
                f"budget clamped {old} -> {new}; "
                f"{len(victims)} cold version(s) evicted"
                if new < old
                else f"budget already at floor {self.config.budget_floor}"
            )
            self.faults.detected(event, note)
        elif kind == "sample_flood":
            self._flood_left = overload.flood_windows
            event = self.faults.inject(
                "sample_flood", "governor",
                f"x{overload.flood_factor} for {overload.flood_windows} window(s)",
            )
            self.faults.detected(
                event,
                f"sample cap {self.sample_budget} armed; flood sheds accounted",
            )
        elif kind == "slow_disk":
            # latency only: persistence content is never mutated, so the
            # fault is harmless by construction — it just charges the
            # disk gauge and may degrade service
            self._disk_backlog += 1.0
            self.faults.inject(
                "slow_disk", "governor",
                "synthetic disk latency charged to the pressure gauge",
                tolerated=True,
            )
        elif kind == "ingest_storm":
            self._ingest_backlog += 1.0
            event = self.faults.inject(
                "ingest_storm", "governor", "synthetic daemon ingest backlog"
            )
            self.faults.detected(
                event, "backlog charged to the pressure gauge and drained"
            )

    def _pressure(self, trace_cache, outbox) -> float:
        """Overall pressure in [0, 1]: the worst of all gauges."""
        components = [
            min(1.0, trace_cache.active_bundles / self.trace_budget),
            min(1.0, self._shed_since_wake / self.sample_budget),
            1.0 if self._flood_left > 0 else 0.0,
            min(1.0, self._disk_backlog),
            min(1.0, self._ingest_backlog),
        ]
        if outbox is not None:
            components.append(min(1.0, len(outbox.windows) / OUTBOX_BATCHES))
        return max(components)

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """The ``CobraReport.governor`` payload."""
        return {
            "rung": self.rung,
            "trace_budget": self.trace_budget,
            "deploys_refused": self.deploys_refused,
            "evictions": self.evictions,
            "evicted_bundles": self.evicted_bundles,
            "jit_evictions": self.jit_evictions,
            "jit_evicted_bundles": self.jit_evicted_bundles,
            "shed_samples": self.shed_samples,
            "shed_batches": self.shed_batches,
            "db_compacted": self.db_compacted,
            "wakes": self.wakes,
            "last_pressure_wake": self.last_pressure_wake,
            "injected": self.overload.injected if self.overload is not None else 0,
            "transitions": list(self.transitions),
        }
