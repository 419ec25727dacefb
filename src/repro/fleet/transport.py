"""Fault-injectable in-process transport between agents and the daemon.

The fleet runs offline-deterministic: each agent produces its wire
frames during its (possibly process-parallel) run, and the harness
replays every channel through the daemon afterwards in one global,
virtual-clock order.  :func:`simulate_channel` is the per-channel half:
it takes an agent's frames and send times, applies that channel's
seeded fault schedule (drop / duplicate / reorder / delay / corrupt /
poison), and returns the byte stream the daemon will actually see plus
the fault events to account.

Faulted sends retry with capped exponential backoff and seeded jitter
(:func:`repro.fleet.faults.backoff_delays`); retransmits of a faulted
frame always succeed, so every schedule terminates and a dropped frame
is tolerated by construction.  All timing is virtual (ticks are retired
instructions on the agent's clock), so worker count and wall-clock
never influence delivery order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..config import FleetFaultConfig
from ..faults.injector import FaultEvent
from .faults import TransportFaults, backoff_delays
from .wire import encode_frame

__all__ = ["Delivery", "ChannelResult", "simulate_channel"]


@dataclass(frozen=True)
class Delivery:
    """One frame arriving at the daemon."""

    tick: int        # virtual arrival time (agent retired-instruction clock)
    ordinal: int     # tie-break within (tick, instance): channel send order
    data: bytes


@dataclass
class ChannelResult:
    """Everything one agent's channel produced."""

    delivered: list[Delivery] = field(default_factory=list)
    events: list[FaultEvent] = field(default_factory=list)
    #: total send attempts, retransmits included
    attempts: int = 0
    #: clean frame encodings, for the rejoin/reconcile replay
    clean: list[bytes] = field(default_factory=list)


def _poison_payload(payload: dict) -> dict:
    """A CRC-valid frame whose payload lies (the compromised stream).

    The damage is always *sanitizer-visible*: a negative count the
    daemon's range checks must catch.  In-range lies are measurement
    noise by the output-invariance argument — they can cost performance,
    never correctness — so the injector only produces violations the
    daemon is required to quarantine.
    """
    poisoned = copy.deepcopy(payload)
    if poisoned["k"] == "batch":
        poisoned["window"]["samples"] = -1
    else:  # profile
        poisoned["entry"]["cpi_count"] = -1
    return poisoned


def simulate_channel(
    frames: list[dict],
    times: list[int],
    config: FleetFaultConfig | None,
    instance: str,
) -> ChannelResult:
    """Push ``frames`` through one agent's faulted channel."""
    result = ChannelResult()
    faults = TransportFaults(config, instance) if config is not None else None
    ordinal = 0

    def deliver(tick: int, data: bytes) -> None:
        nonlocal ordinal
        result.delivered.append(Delivery(tick, ordinal, data))
        ordinal += 1
        result.attempts += 1

    for idx, payload in enumerate(frames):
        data = encode_frame(payload)
        result.clean.append(data)
        tick = times[idx]
        if faults is None:
            deliver(tick, data)
            continue
        # poison needs a payload with counts to lie about; hello frames
        # only carry identity, so the draw falls back to the other kinds
        exclude = ("poison_batch",) if payload["k"] == "hello" else ()
        event = _draw(faults, exclude)
        if event is None:
            deliver(tick, data)
            continue
        # the first retransmit always goes through: one backoff delay
        (backoff,) = backoff_delays(f"{config.seed}:{instance}:{idx}", 1)
        if event.kind == "drop_frame":
            result.attempts += 1  # the send that vanished
            event.note = f"retransmitted after backoff ({backoff} tick(s))"
            deliver(tick + backoff, data)
        elif event.kind == "dup_frame":
            event.note = "receiver sequence-number dedup"
            deliver(tick, data)
            deliver(tick, data)
        elif event.kind == "reorder_frame":
            event.note = "sequence numbers make reordered batches no-ops"
            skew = (times[idx + 1] - tick + 1) if idx + 1 < len(times) else 2
            deliver(tick + max(skew, 1), data)
        elif event.kind == "delay_frame":
            held = faults.delay_ticks()
            event.note = f"held {held} tick(s); ingestion order is seq-safe"
            deliver(tick + held, data)
        elif event.kind == "corrupt_frame":
            # one flipped byte breaks the CRC; the daemon must reject it
            # (claimed by the harness against the daemon's reject count)
            flip = faults.corrupt_position(len(data))
            damaged = bytearray(data)
            damaged[flip] ^= 0xFF
            deliver(tick, bytes(damaged))
            deliver(tick + backoff, data)  # clean retransmit
        else:  # poison_batch: CRC-valid, payload lies
            deliver(tick, encode_frame(_poison_payload(payload)))
    if faults is not None:
        result.events = faults.events
    return result


def _draw(faults: TransportFaults, exclude: tuple[str, ...]) -> FaultEvent | None:
    """One schedule draw, optionally excluding inapplicable kinds.

    The rate draw always consumes the same PRNG stream position, so
    excluding a kind for one frame never shifts the rest of the
    schedule's rate decisions.
    """
    if not exclude:
        return faults.frame_fault()
    saved = faults.kinds
    faults.kinds = tuple(k for k in saved if k not in exclude) or saved
    try:
        return faults.frame_fault()
    finally:
        faults.kinds = saved
