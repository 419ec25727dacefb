"""Seeded fault injector and fault/recovery ledger.

One :class:`FaultInjector` is shared by every COBRA component of a run.
All randomness comes from a single ``random.Random(seed)``, and the
simulator queries it at deterministic points, so a given (workload,
machine, strategy, seed) tuple replays the exact same fault schedule —
a failing chaos run is a reproducible test case, not an anecdote.

Three injection surfaces (the three things COBRA trusts):

``sample``
    The HPM delivery path (:class:`~repro.core.monitor.MonitoringThread`).
    Samples can be dropped, duplicated, corrupted (out-of-range fields),
    delayed past later samples, or lost wholesale to a USB overflow.

``patch``
    The trace-cache deployment path (:class:`~repro.core.tracecache.TraceCache`).
    A redirect write can be torn, the trace can be built against a
    stale image version, or the cache can transiently refuse for
    capacity.

``loop``
    The monitor/optimizer control loop.  A wake-up can be missed, or a
    monitoring thread can die mid-run.

Every injected fault becomes a :class:`FaultEvent` in the ledger and
must end the run in one of two states:

* **tolerated** — harmless by construction (a dropped sample is just a
  smaller profile); classified at injection time;
* **detected** — requires an active runtime response (quarantine,
  verify-and-revert, watchdog restart); the recovery site *claims* the
  event when it fires.

A fault that is neither is *unaccounted*: the runtime failed to notice
something it should have.  The fuzz sweep (:mod:`repro.fuzz.differ`)
fails the run in that case.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace as dc_replace

from ..config import FaultConfig
from ..errors import FaultError
from ..hpm.counters import COUNTER_MASK
from ..hpm.sample import Sample

__all__ = [
    "SAMPLE_FAULTS",
    "PATCH_FAULTS",
    "LOOP_FAULTS",
    "PERSIST_FAULTS",
    "FLEET_FRAME_FAULTS",
    "FLEET_FAULTS",
    "OVERLOAD_FAULTS",
    "ALL_FAULTS",
    "TOLERATED_AT_INJECTION",
    "FLEET_TOLERATED_AT_INJECTION",
    "FaultEvent",
    "FaultLedger",
    "FaultInjector",
    "zero_rate_faults",
]

SAMPLE_FAULTS = (
    "drop_sample",
    "dup_sample",
    "corrupt_sample",
    "late_sample",
    "usb_overflow",
)
PATCH_FAULTS = ("torn_patch", "stale_image", "cache_exhaustion")
LOOP_FAULTS = ("missed_wakeup", "monitor_death")
#: Persistence-surface faults.  Never drawn from the random schedule:
#: the crash gate is a deterministic kill point
#: (``FaultConfig.crash_write``), and the damage kinds are *observed*
#: by recovery when it meets the wreckage on disk (torn journal tail,
#: corrupt snapshot, stray temp) — see :meth:`FaultInjector.observe`.
PERSIST_FAULTS = (
    "crash_point",
    "torn_journal_record",
    "corrupt_journal_record",
    "corrupt_snapshot",
    "stray_snapshot_tmp",
)
#: Fleet transport faults drawn per frame an agent sends to the daemon
#: (:mod:`repro.fleet`; rates in
#: :class:`~repro.config.FleetFaultConfig`).  ``poison_batch`` is the
#: compromised-stream case: a CRC-valid frame whose *payload* lies
#: (negative counts, divergent image digest) — the daemon's sanitizer
#: and digest-consensus checks must quarantine the stream.
FLEET_FRAME_FAULTS = (
    "drop_frame",
    "dup_frame",
    "reorder_frame",
    "delay_frame",
    "corrupt_frame",
    "poison_batch",
)
#: Schedule-level fleet faults: a full network partition (per instance
#: and round) and a daemon kill after the Nth accepted batch.  Like
#: ``PERSIST_FAULTS`` these are never drawn per opportunity.
FLEET_FAULTS = FLEET_FRAME_FAULTS + ("partition", "daemon_crash")
#: Overload faults injected by :mod:`repro.governor` (rates in
#: :class:`~repro.config.OverloadConfig`).  Drawn from the governor's
#: *own* PRNG, never this injector's — arming overload must not perturb
#: an armed fault schedule — and entered into the ledger via
#: :meth:`FaultInjector.inject` (no draw).  ``slow_disk`` is latency
#: only, tolerated at injection; the other three require a recorded
#: governor response (budget clamp, shed accounting, rung change) to
#: become accounted.
OVERLOAD_FAULTS = ("budget_shrink", "sample_flood", "slow_disk", "ingest_storm")
ALL_FAULTS = SAMPLE_FAULTS + PATCH_FAULTS + LOOP_FAULTS + PERSIST_FAULTS

#: Faults that cannot hurt correctness no matter what the runtime does:
#: a dropped/duplicated/late sample or an overflowed USB only shrinks,
#: repeats, or reorders the profile (the profiler's ordering check
#: quarantines duplicates and out-of-order stragglers), and a missed
#: wake-up only delays adaptation.  Classified at injection time;
#: ``corrupt_sample``, the patch faults, and ``monitor_death`` instead
#: *require* an active detection to become accounted.
TOLERATED_AT_INJECTION = frozenset(
    {"drop_sample", "dup_sample", "late_sample", "usb_overflow", "missed_wakeup"}
)

#: Fleet transport faults the protocol absorbs by construction: a
#: dropped frame is retransmitted after backoff, duplicates and
#: reorders are no-ops under sequence-number dedup, and a delay only
#: postpones ingestion.  ``corrupt_frame`` (CRC reject at the daemon),
#: ``poison_batch`` (stream quarantine), ``partition`` (degraded mode +
#: rejoin merge) and ``daemon_crash`` (journal recovery) all *require*
#: an active detection to become accounted.
FLEET_TOLERATED_AT_INJECTION = frozenset(
    {"drop_frame", "dup_frame", "reorder_frame", "delay_frame"}
)

_INJECTED = "injected"
_DETECTED = "detected"
_TOLERATED = "tolerated"


@dataclass
class FaultEvent:
    """One injected fault and what became of it."""

    seq: int
    kind: str
    surface: str            # "sample" | "patch" | "loop" | "persist" | "fleet"
    status: str             # "injected" -> "detected" | "tolerated"
    note: str = ""

    def __str__(self) -> str:
        text = f"#{self.seq} {self.kind} [{self.surface}] {self.status}"
        return f"{text}: {self.note}" if self.note else text


@dataclass(frozen=True)
class FaultLedger:
    """End-of-run accounting snapshot (attached to ``CobraReport``)."""

    seed: int
    injected: int
    detected: int
    tolerated: int
    by_kind: dict[str, int]
    events: tuple[FaultEvent, ...]

    @classmethod
    def of(cls, seed: int, events) -> "FaultLedger":
        """The ledger of ``events``, counted by kind and by outcome."""
        events = tuple(events)
        outcomes = Counter(event.status for event in events)
        return cls(
            seed=seed,
            injected=len(events),
            detected=outcomes[_DETECTED],
            tolerated=outcomes[_TOLERATED],
            by_kind=dict(Counter(event.kind for event in events)),
            events=events,
        )

    @property
    def outstanding(self) -> int:
        """Injected faults the runtime never classified — must be 0."""
        return self.injected - self.detected - self.tolerated

    @property
    def accounted(self) -> bool:
        return self.outstanding == 0

    def summary(self) -> str:
        head = (
            f"faults[seed={self.seed}]: {self.injected} injected = "
            f"{self.detected} detected + {self.tolerated} tolerated"
        )
        if not self.accounted:
            head += f" ({self.outstanding} UNACCOUNTED)"
        if self.by_kind:
            kinds = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.by_kind.items())
            )
            head += f" ({kinds})"
        return head


def zero_rate_faults(seed: int = 0) -> FaultConfig:
    """An armed injector that never injects.

    A resumed run, a governor's private ledger and a fuzz cell need a
    live :class:`FaultInjector` to *account* events on its ledger, but
    must not draw any random faults of their own — at rate 0.0 the
    injector consumes no RNG, so the run stays deterministic.
    """
    return FaultConfig(seed=seed, sample_rate=0.0, patch_rate=0.0, loop_rate=0.0)


class FaultInjector:
    """Draws the fault schedule and keeps the ledger."""

    def __init__(self, config: FaultConfig) -> None:
        if config.kinds is not None:
            unknown = set(config.kinds) - set(ALL_FAULTS)
            if unknown:
                raise FaultError(
                    f"unknown fault kind(s) {sorted(unknown)} "
                    f"(choose from {ALL_FAULTS})"
                )
        self.config = config
        self.rng = random.Random(config.seed)
        self.events: list[FaultEvent] = []
        # corrupted samples in flight, by object identity: id -> (event,
        # sample).  The sample ref keeps the id stable until classified.
        self._sample_watch: dict[int, tuple[FaultEvent, object]] = {}
        #: durable persistence writes gated so far (journal appends +
        #: snapshot renames); the crash sweep indexes kill points by it
        self.durable_writes = 0

    # -- schedule draws (one per opportunity, in simulation order) ---------

    def _draw(self, surface: str, rate: float, kinds: tuple[str, ...]) -> FaultEvent | None:
        if rate <= 0.0 or self.rng.random() >= rate:
            return None
        if self.config.kinds is not None:
            kinds = tuple(k for k in kinds if k in self.config.kinds)
            if not kinds:
                return None
        kind = kinds[self.rng.randrange(len(kinds))]
        status = _TOLERATED if kind in TOLERATED_AT_INJECTION else _INJECTED
        event = FaultEvent(len(self.events), kind, surface, status)
        self.events.append(event)
        return event

    def sample_fault(self) -> FaultEvent | None:
        """One draw per HPM sample delivered to a monitoring thread."""
        return self._draw("sample", self.config.sample_rate, SAMPLE_FAULTS)

    def patch_fault(self) -> FaultEvent | None:
        """One draw per trace deployment attempt."""
        return self._draw("patch", self.config.patch_rate, PATCH_FAULTS)

    def loop_fault(self) -> FaultEvent | None:
        """One draw per optimizer wake point."""
        return self._draw("loop", self.config.loop_rate, LOOP_FAULTS)

    # -- deterministic fault payloads --------------------------------------

    def corrupt_sample(self, event: FaultEvent, sample: Sample) -> Sample:
        """Damage one field so the record is detectably out of range.

        In-range corruption is indistinguishable from measurement noise
        and, by the output-invariance property, can only mis-steer
        *performance* decisions; the injector therefore always produces
        range violations, which the profiler's sanitizer must catch.
        The damaged record is watched by identity so whoever meets it —
        the sanitizer (detected) or a buffer-loss path (tolerated) —
        settles the ledger entry exactly.
        """
        mode = self.rng.randrange(4)
        if mode == 0:
            slot = self.rng.randrange(4)
            counters = list(sample.counters)
            counters[slot] = COUNTER_MASK + 1 + self.rng.randrange(1 << 16)
            damaged = dc_replace(sample, counters=tuple(counters))
        elif mode == 1:
            slot = self.rng.randrange(4)
            counters = list(sample.counters)
            counters[slot] = -1 - self.rng.randrange(1 << 16)
            damaged = dc_replace(sample, counters=tuple(counters))
        elif mode == 2 and sample.miss_latency is not None:
            damaged = dc_replace(sample, miss_latency=-sample.miss_latency - 1)
        else:
            damaged = dc_replace(sample, pc=-1 - self.rng.randrange(1 << 20))
        self._sample_watch[id(damaged)] = (event, damaged)
        return damaged

    def claim_sample(self, sample: Sample, note: str = "") -> FaultEvent | None:
        """The sanitizer quarantined ``sample``: settle its ledger entry.

        Returns ``None`` for anomalies that are side effects of an
        already-classified fault (a duplicate or out-of-order straggler)
        rather than a watched corruption.
        """
        entry = self._sample_watch.pop(id(sample), None)
        if entry is not None and entry[0].status == _INJECTED:
            self.detected(entry[0], note)
            return entry[0]
        return None

    def samples_lost(self, samples: list[Sample] | tuple[Sample, ...]) -> None:
        """Buffered samples were destroyed before ingestion (overflow,
        capacity trim, monitor death).  A watched corruption among them
        never reached a consumer, so it is tolerated by destruction."""
        for sample in samples:
            entry = self._sample_watch.pop(id(sample), None)
            if entry is not None and entry[0].status == _INJECTED:
                self.tolerated(entry[0], "sample destroyed before ingestion")

    def crash_gate(self) -> tuple[bool, int | None]:
        """One call per durable persistence write: die here?

        Returns ``(crash_now, torn_bytes)``.  Deliberately consumes no
        randomness — the kill point is an exact write index
        (``FaultConfig.crash_write``), so a crashed run's journal bytes
        are a byte-prefix of the same seed's uninterrupted run (the fuzz
        table's crash row asserts exactly that).
        """
        if self.config.crash_write is None:
            return False, None
        self.durable_writes += 1
        if self.durable_writes != self.config.crash_write:
            return False, None
        return True, self.config.crash_torn_bytes

    def observe(self, kind: str, surface: str, note: str = "") -> FaultEvent:
        """Record damage met on disk as an already-detected event.

        Recovery uses this for wreckage whose injection happened in a
        *previous* (crashed) process — a torn journal tail, a corrupt
        snapshot, a stray temp.  The originating event died with that
        process, so the finding and the detection are the same moment.
        """
        event = FaultEvent(len(self.events), kind, surface, _DETECTED, note)
        self.events.append(event)
        return event

    def inject(
        self, kind: str, surface: str, note: str = "", tolerated: bool = False
    ) -> FaultEvent:
        """Enter an externally-drawn fault into the ledger (no draw).

        The overload injector draws its schedule from its own PRNG and
        only *records* here, so the event sequence stays deterministic
        without coupling the two schedules.  ``tolerated=True``
        classifies at injection (latency-only faults); otherwise the
        event must be settled via :meth:`detected`/:meth:`tolerated`.
        """
        status = _TOLERATED if tolerated else _INJECTED
        event = FaultEvent(len(self.events), kind, surface, status, note)
        self.events.append(event)
        return event

    def choice(self, n: int) -> int:
        """Deterministic victim selection (e.g. which monitor dies)."""
        return self.rng.randrange(n)

    def delay_count(self) -> int:
        """How many later samples a delayed sample is held behind."""
        return 1 + self.rng.randrange(4)

    # -- ledger ------------------------------------------------------------

    def detected(self, event: FaultEvent, note: str = "") -> None:
        """Classify ``event`` as actively detected/recovered."""
        if event.status != _INJECTED:
            raise FaultError(f"fault event already classified: {event}")
        event.status = _DETECTED
        event.note = note

    def tolerated(self, event: FaultEvent, note: str = "") -> None:
        """Reclassify an injected event as harmless after the fact."""
        if event.status != _INJECTED:
            raise FaultError(f"fault event already classified: {event}")
        event.status = _TOLERATED
        event.note = note

    def claim(self, surface: str, note: str = "") -> FaultEvent | None:
        """Mark the oldest outstanding event on ``surface`` detected.

        For recovery sites that observe an anomaly without holding the
        originating event (the optimizer watchdog finding a dead
        monitor).  FIFO per surface; exact because each surface has at
        most one detection-required kind routed through here.  Returns
        ``None`` when nothing is outstanding.
        """
        for event in self.events:
            if event.surface == surface and event.status == _INJECTED:
                self.detected(event, note)
                return event
        return None

    def ledger(self) -> FaultLedger:
        return FaultLedger.of(self.config.seed, self.events)
