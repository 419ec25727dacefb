"""One fleet instance: a full COBRA run plus its wire traffic.

:func:`run_instance` is a pure, picklable task — the fleet harness fans
it over :func:`repro.parallel.run_tasks` — that runs one instance's
workload under COBRA with an attached :class:`~repro.fleet.outbox.FleetOutbox`,
then pushes the outbox's frames through that instance's seeded fault
channel (:func:`repro.fleet.transport.simulate_channel`).  The daemon is
*not* in the task: ingestion happens in the parent, in one global
virtual-clock order, so worker count can never reorder daemon state.

A degraded (partitioned / daemon-dead) instance still runs its full
local optimization loop — graceful degradation is "solo mode with the
frames kept for later" — and its clean frames are what the harness
replays at rejoin to reconcile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import FleetAgentConfig, FleetFaultConfig
from ..scenario import run_cell
from .transport import ChannelResult, simulate_channel
from .wire import encode_frame

__all__ = ["InstanceSpec", "InstanceResult", "run_instance"]


@dataclass(frozen=True)
class InstanceSpec:
    """Everything one instance needs (picklable for process fan-out)."""

    instance: str
    round_no: int
    workload: object                 # validate.WorkloadSpec
    machine: Callable[[], object]    # machine recipe/factory
    strategy: str
    fleet: FleetAgentConfig
    faults: FleetFaultConfig | None = None
    optimize_interval: int | None = None
    max_bundles: int | None = None
    jit: bool | None = None


@dataclass(frozen=True)
class InstanceResult:
    """Digest, runtime metrics, and wire traffic of one instance run."""

    instance: str
    round_no: int
    key: str
    digest: str
    cycles: int
    retired: int
    verified: bool | None
    seeded: int              # decisions re-deployed from the pushed entry
    deployed: int            # deployments made during the run
    batches: int             # window batches queued on the wire
    degraded: bool
    ramp_retired: int | None
    channel: ChannelResult


def _wire_traffic(cobra, result) -> tuple[str, list, list]:
    """(profile key, outbox frames, send times) of a stopped engine."""
    outbox = cobra.fleet_outbox
    return (
        outbox.key,
        outbox.frames(cobra.optimizer.export_profile_entry()),
        outbox.send_times(result.retired),
    )


def run_instance(spec: InstanceSpec) -> InstanceResult:
    """Run one instance solo-equivalent and capture its channel."""
    delta = {"fleet": spec.fleet}
    if spec.optimize_interval is not None:
        delta["optimize_interval"] = spec.optimize_interval
    obs = run_cell(
        spec.machine, spec.workload, spec.strategy, delta,
        jit=spec.jit, max_bundles=spec.max_bundles, inspect=_wire_traffic,
    )
    key, frames, times = obs.extra
    if spec.fleet.degraded:
        # partitioned: nothing reaches the daemon this round; the clean
        # encodings are the rejoin/reconcile payload
        channel = ChannelResult(clean=[encode_frame(p) for p in frames])
    else:
        channel = simulate_channel(frames, times, spec.faults, spec.instance)

    report = obs.report
    fl = report.fleet
    if spec.fleet.degraded:
        fl["degraded_interval"] = (0, obs.retired)
    counts: dict[str, int] = {}
    for event in channel.events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    if counts:
        fl["faults"] = counts
    return InstanceResult(
        instance=spec.instance,
        round_no=spec.round_no,
        key=key,
        digest=obs.digest,
        cycles=obs.cycles,
        retired=obs.retired,
        verified=obs.verified,
        seeded=fl["seeded"],
        deployed=len(report.deployments),
        batches=fl["batches"],
        degraded=spec.fleet.degraded,
        ramp_retired=report.ramp_retired,
        channel=channel,
    )
