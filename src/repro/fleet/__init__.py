"""Fleet control plane: one optimization daemon, many COBRA instances.

The BOLT-style deployment model for the runtime optimizer: each machine
runs a thin agent (the unmodified COBRA loop plus an observational
:class:`~repro.fleet.outbox.FleetOutbox`), a central
:class:`~repro.fleet.daemon.FleetDaemon` aggregates their telemetry into
the cross-run profile store and publishes quorum-gated patch decisions
back, and the transport between them is fault-injectable and
CRC-framed.  :class:`~repro.fleet.harness.FleetHarness` drives a whole
fleet and proves the robustness contract (solo-identical outputs,
decision reuse, idempotent ingestion, crash recovery, accounted faults).

Import note: :mod:`repro.core` pulls the outbox in lazily, so a solo
run never imports this package.
"""

from .agent import InstanceResult, InstanceSpec, run_instance
from .daemon import FLEET_JOURNAL, FleetDaemon, SeenSet
from .faults import TransportFaults, backoff_delays, build_ledger, partition_draw
from .harness import FleetHarness, FleetRecord, FleetReport
from .outbox import FleetOutbox
from .transport import ChannelResult, Delivery, simulate_channel
from .wire import (
    FRAME_KINDS,
    batch_frame,
    decode_frame,
    encode_frame,
    hello_frame,
    profile_frame,
)

__all__ = [
    "FRAME_KINDS",
    "FLEET_JOURNAL",
    "ChannelResult",
    "Delivery",
    "FleetDaemon",
    "FleetHarness",
    "FleetOutbox",
    "FleetRecord",
    "FleetReport",
    "InstanceResult",
    "InstanceSpec",
    "SeenSet",
    "TransportFaults",
    "backoff_delays",
    "batch_frame",
    "build_ledger",
    "decode_frame",
    "encode_frame",
    "hello_frame",
    "partition_draw",
    "profile_frame",
    "run_instance",
    "simulate_channel",
]
