"""``state_plane``: persist and fleet do the work; nothing is simulated.

Set-up records real traffic once: the journal records of one
checkpointed ``cg`` run, and the clean wire frames plus the exported
profile entry of one fleet agent run.  An op then writes that traffic
for ``STATE_INSTANCES`` instances — every instance checkpoints through a
fresh ``PersistenceManager``, every frame is relabelled and handed to a
fresh ``FleetDaemon`` in an order the seed shuffles, every run folds
into a ``ProfileDB`` — and reads all of it back ``STATE_READ_PASSES``
times.  The two sides are timed apart, so a trick that speeds ingest by
slowing recovery shows.  Disks are ``MemoryDisk``s; journal bytes and
durable-write counts are reported as counts (a ``FileDisk`` leg in the
traced run is for information only: it measures the sandbox's disk).
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro import BENCHMARKS, Machine, itanium2_smp, run_with_cobra
from repro.config import FleetAgentConfig, PersistConfig
from repro.fleet import FLEET_JOURNAL, FleetDaemon, InstanceSpec, decode_frame, encode_frame, run_instance
from repro.persist import (JOURNAL_NAME, MemoryDisk, PersistenceManager, ProfileDB,
                           merge_entries, recover, repair, scan_journal)
from repro.persist.profiledb import empty_entry
from repro.validate.differential import MachineRecipe, daxpy_spec

import state_probes
from base import Op, Workload, median_of

__all__ = ["StatePlane", "replay_records"]

#: instances whose checkpoints and telemetry one op writes and reads back
STATE_INSTANCES = 64
STATE_QUORUM = 2
#: read-side passes per op, so that reads are a fair share of the op
STATE_READ_PASSES = 4


def replay_records(manager: PersistenceManager, records, final_state, span) -> None:
    """One run's checkpoint traffic through the manager's logging hooks."""
    with span("persist.open"):
        manager.open()
    for rec in records:
        with span("persist.log_" + rec["t"]):
            if rec["t"] == "window":
                manager.log_window(rec["state"])
            elif rec["t"] == "txn":
                manager.log_txn(rec["op"], rec["head"], rec["back_branch"],
                                rec["hotness"], rec["optimization"], rec["n_rewrites"])
            else:
                manager.log_decision(rec["event"])
    with span("persist.close"):
        manager.close(final_state)


class StatePlane(Workload):
    name = "state_plane"

    def setup(self) -> None:
        span = self.tracer.span
        with span("setup.record_journal"):
            machine = Machine(itanium2_smp(4, scale=16))
            prog = BENCHMARKS["cg"].build(machine, 4)
            disk = MemoryDisk()
            config = replace(machine.config.cobra, persist=PersistConfig(disk=disk))
            run_with_cobra(prog, "adaptive", config=config)
            records, _valid, torn = scan_journal(disk.read(JOURNAL_NAME))
        if torn or not BENCHMARKS["cg"].verify(prog):
            raise RuntimeError("the recording run is damaged")
        self.records = [r for r in records if r["t"] in ("window", "txn", "decision")]
        self.final_state = [r for r in records if r["t"] == "window"][-1]["state"]
        with span("setup.record_frames"):
            result = run_instance(InstanceSpec(
                instance="rec", round_no=0, workload=daxpy_spec(2048, 4, 12),
                machine=MachineRecipe("smp", 4, 4), strategy="adaptive",
                fleet=FleetAgentConfig(instance="rec"), optimize_interval=10_000,
            ))
        self.key = result.key
        self.frames = list(result.channel.clean)
        self.entry = decode_frame(self.frames[-1])["entry"]
        self.instances = [f"n{i:03d}" for i in range(STATE_INSTANCES)]
        self.expected = self.expected_entry()
        with span("setup.warmup"):
            warm = self.op()
        if warm.failures:
            raise RuntimeError(f"warm-up op failed: {warm.failures}")

    def relabel(self) -> list[tuple[str, bytes]]:
        """Every recorded frame re-addressed to every instance, as
        (kind, bytes), in the delivery order the seed draws."""
        span = self.tracer.span
        wire = []
        for instance in self.instances:
            for data in self.frames:
                with span("fleet.decode_frame"):
                    frame = decode_frame(data)
                if frame is None:
                    wire.append(("damaged", data))  # the daemon's call, not ours
                    continue
                frame["i"] = instance
                with span("fleet.encode_frame"):
                    wire.append((frame["k"], encode_frame(frame)))
        random.Random(self.seed).shuffle(wire)
        return wire

    def expected_entry(self) -> dict:
        """What the daemon must publish, by an independent left fold.
        Every instance pushed the same entry, so a decision is
        quorum-backed exactly when that entry has it net-proven."""
        merged = empty_entry()
        for _ in self.instances:
            merged = merge_entries(merged, self.entry)
        decisions = {}
        for head, opts in merged["decisions"].items():
            kept = {
                opt: rec for opt, rec in opts.items()
                if self.entry["decisions"][head][opt]["proven"]
                > self.entry["decisions"][head][opt]["rolled_back"]
            }
            if kept:
                decisions[head] = kept
        merged["decisions"] = decisions
        return merged

    def op(self) -> Op:
        span = self.tracer.span
        failures: list[str] = []

        with span("write") as s_write:
            managers = []
            for _ in self.instances:
                manager = PersistenceManager(PersistConfig(disk=MemoryDisk()))
                managers.append(manager)
                replay_records(manager, self.records, self.final_state, span)
            with span("fleet.relabel"):
                wire = self.relabel()
            daemon = FleetDaemon(disk=MemoryDisk(), quorum=STATE_QUORUM)
            nacks = 0
            for kind, data in wire:
                with span("fleet.handle_" + kind):
                    reply = daemon.handle(data)
                if reply["k"] == "nack":
                    nacks += 1
            db = ProfileDB(MemoryDisk())
            for _ in self.instances:
                with span("persist.profiledb_merge"):
                    db.record_run(self.key, self.entry)
            with span("persist.profiledb_save"):
                db.save()
        if nacks:
            failures.append(f"{nacks} frame(s) nacked")
        if daemon.quarantined:
            failures.append(f"{len(daemon.quarantined)} instance(s) quarantined")
        self.calibrate()

        with span("read") as s_read:
            for _ in range(STATE_READ_PASSES):
                states = []
                for manager in managers:
                    with span("persist.recover"):
                        recovered = recover(manager.disk)
                    with span("persist.repair"):
                        repair(manager.disk, recovered)
                    states.append(recovered.state)
                with span("fleet.daemon_recover"):
                    reborn = FleetDaemon.recover(daemon.disk, quorum=STATE_QUORUM)
                with span("fleet.published_entry"):
                    published = reborn.published_entry(self.key)
                with span("persist.profiledb_load"):
                    loaded = ProfileDB(db.disk)
                    loaded.load()
        if any(state != self.final_state for state in states):
            failures.append("recovered persist state differs from the written state")
        if reborn.canonical_state() != daemon.canonical_state():
            failures.append("recovered daemon differs from the live daemon")
        if published != self.expected:
            failures.append("published_entry differs from a left fold of merge_entries")
        if loaded.entries != db.entries:
            failures.append("ProfileDB.load differs from what was saved")

        self.last_daemon, self.last_wire = daemon, wire
        disks = [m.disk for m in managers]
        return Op(
            wall=s_write.dur + s_read.dur,
            failures=failures,
            parts={"write_s": s_write.dur, "read_s": s_read.dur},
            counts={
                "frames": len(wire) - nacks,
                "nacks": nacks,
                "persist_journal_bytes": sum(len(d.files[JOURNAL_NAME]) for d in disks),
                "persist_writes": sum(d.durable_ops for d in disks) + db.disk.durable_ops,
                "persist_snapshots": sum(m.stats.snapshots_written for m in managers),
                "fleet_journal_bytes": len(daemon.disk.files[FLEET_JOURNAL]),
                "fleet_snapshots": daemon.snapshots_written,
            },
        )

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        return {
            "ingest_frames_per_s": ops[-1].counts["frames"] / median_of(ops, "write_s"),
            "recover_s": median_of(ops, "read_s"),
        }

    def layers(self, ops: list[Op]) -> dict[str, float]:
        return state_probes.state_probes(self, ops)
