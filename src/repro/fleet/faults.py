"""Seeded transport fault schedule and retry backoff for fleet mode.

The fleet transport is attacked the same way the runtime is
(:mod:`repro.faults`): a seeded PRNG draws one optional fault per frame
send, every injected fault becomes a :class:`~repro.faults.injector.FaultEvent`,
and the harness fails unless each one ends the run *detected* or
*tolerated*.  Determinism is per-channel: the PRNG is seeded by
``(seed, instance)``, so an instance's schedule depends only on its own
frame sequence — never on worker count or interleaving with other
instances.
"""

from __future__ import annotations

import random

from ..config import FleetFaultConfig
from ..errors import FaultError
from ..faults.injector import (
    FLEET_FRAME_FAULTS,
    FLEET_TOLERATED_AT_INJECTION,
    FaultEvent,
    FaultLedger,
)

__all__ = [
    "HOSTILE",
    "TransportFaults",
    "backoff_delays",
    "build_ledger",
    "BACKOFF_BASE",
    "BACKOFF_CAP",
]

#: The hostile schedule (``replace(HOSTILE, seed=...)``): frame faults of
#: every kind, partitions, and one daemon crash mid-ingest.
HOSTILE = FleetFaultConfig(frame_rate=0.2, partition_rate=0.15, daemon_crash_batch=5)

#: First retransmit backoff, in virtual transport ticks ...
BACKOFF_BASE = 4
#: ... and the ceiling no delay of the schedule exceeds.
BACKOFF_CAP = 512


def backoff_delays(
    seed: object, attempts: int, base: int = BACKOFF_BASE, cap: int = BACKOFF_CAP
) -> list[int]:
    """Capped exponential backoff with deterministic seeded jitter.

    Delay ``k`` (0-based attempt index) is drawn from
    ``[raw/2, raw]`` where ``raw = min(cap, base * 2**k)`` — the
    classic equal-jitter scheme, so retries spread out instead of
    thundering in lockstep, while every delay stays ``<= cap`` and at
    least half the exponential floor.  The whole schedule is a pure
    function of ``seed``: two calls with equal seeds agree element by
    element, which is what makes a faulted fleet run replayable.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be >= 0, got {attempts}")
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    if cap < base:
        raise ValueError(f"cap must be >= base, got cap={cap} base={base}")
    rng = random.Random(f"fleet-backoff:{seed}")
    delays = []
    for attempt in range(attempts):
        raw = min(cap, base * (2 ** min(attempt, 32)))
        half = raw // 2
        delays.append(half + rng.randrange(raw - half + 1))
    return delays


class TransportFaults:
    """Per-channel fault schedule (one agent's frames to the daemon)."""

    def __init__(self, config: FleetFaultConfig, instance: str) -> None:
        kinds = config.kinds if config.kinds is not None else FLEET_FRAME_FAULTS
        unknown = set(kinds) - set(FLEET_FRAME_FAULTS)
        if unknown:
            raise FaultError(
                f"unknown fleet fault kind(s) {sorted(unknown)} "
                f"(choose from {FLEET_FRAME_FAULTS})"
            )
        self.config = config
        self.instance = instance
        self.kinds = tuple(kinds)
        self.rng = random.Random(f"fleet:{config.seed}:{instance}")
        self.events: list[FaultEvent] = []

    def frame_fault(self) -> FaultEvent | None:
        """One draw per frame send attempt (original sends only —
        retransmits of a faulted frame always go through, so a schedule
        stays finite and a drop is provably tolerated)."""
        rate = self.config.frame_rate
        if rate <= 0.0 or self.rng.random() >= rate:
            return None
        kind = self.kinds[self.rng.randrange(len(self.kinds))]
        status = (
            "tolerated" if kind in FLEET_TOLERATED_AT_INJECTION else "injected"
        )
        event = FaultEvent(len(self.events), kind, "fleet", status)
        self.events.append(event)
        return event

    def corrupt_position(self, frame_len: int) -> int:
        """Deterministic byte offset to flip in a corrupted frame."""
        return self.rng.randrange(frame_len)

    def delay_ticks(self) -> int:
        """Extra virtual transport ticks a delayed frame is held."""
        return (1 + self.rng.randrange(4)) * BACKOFF_BASE


def partition_draw(config: FleetFaultConfig, instance: str, round_no: int) -> bool:
    """Deterministic per-(instance, round) partition decision.

    Drawn from its own PRNG stream so adding frame traffic never
    changes who partitions — the harness computes this before any
    instance runs.
    """
    if config.partition_rate <= 0.0:
        return False
    rng = random.Random(f"fleet-partition:{config.seed}:{instance}:{round_no}")
    return rng.random() < config.partition_rate


def build_ledger(seed: int, events: list[FaultEvent]) -> FaultLedger:
    """Fold per-channel + harness-level events into one fleet ledger.

    Events arrive with per-channel sequence numbers; they are renumbered
    in the deterministic order given (sorted by the harness) so the
    ledger reads as one fleet-wide schedule.
    """
    for seq, event in enumerate(events):
        event.seq = seq
    return FaultLedger.of(seed, events)
