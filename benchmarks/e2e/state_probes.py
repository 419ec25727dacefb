"""Outside-in probes of ``persist`` and ``fleet`` for ``state_plane``.

Rates of calls that the ops already make (``handle``, ``recover``,
``published_entry`` ...) come from the spans the traced ops recorded;
the codecs and the overhead ratios get their own small fixed loops
here.  A probe whose output is wrong raises ``ProbeFailure``.
"""

from __future__ import annotations

import os
import shutil
import statistics
from dataclasses import replace

from repro import BENCHMARKS, Machine, build_daxpy, itanium2_smp, run_with_cobra, verify_daxpy
from repro.config import FleetAgentConfig, PersistConfig, ProfileDBConfig
from repro.fleet import FleetHarness
from repro.persist import (FileDisk, JournalWriter, MemoryDisk, decode_snapshot,
                           encode_record, encode_snapshot, scan_journal)

from base import ProbeFailure

__all__ = ["state_probes"]

CODEC_ROUNDS = 20
OVERHEAD_SAMPLES = 3
FILEDISK_APPENDS = 200
FILEDISK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "filedisk")


def _per_s(durations: list[float]) -> float:
    return len(durations) / sum(durations)


def _codec_probes(wl) -> dict[str, float]:
    span = wl.tracer.span
    records = wl.records * CODEC_ROUNDS
    writer = JournalWriter(MemoryDisk())
    with span("probe.persist.journal_append") as s_append:
        for rec in records:
            writer.append(rec["t"], rec)
    with span("probe.persist.encode_record") as s_encode:
        blobs = [encode_record(rec) for rec in records]
    journal = b"".join(blobs)
    with span("probe.persist.scan_journal") as s_scan:
        scanned, valid, torn = scan_journal(journal)
    if scanned != records or valid != len(journal) or torn:
        raise ProbeFailure("scan_journal(encode_record(r)...) does not round-trip")
    payload = {"journal_seq": len(wl.records), "state": wl.final_state, "meta": None}
    with span("probe.persist.snapshot_encode") as s_snap:
        snaps = [encode_snapshot(payload) for _ in range(CODEC_ROUNDS)]
    with span("probe.persist.snapshot_decode") as s_unsnap:
        decoded = [decode_snapshot(blob) for blob in snaps]
    if any(d != payload for d in decoded):
        raise ProbeFailure("decode_snapshot(encode_snapshot(p)) != p")
    snap_mb = sum(len(b) for b in snaps) / 1e6
    return {
        "persist.journal_append_recs_per_s": len(records) / s_append.dur,
        "persist.encode_record_mb_per_s": len(journal) / 1e6 / s_encode.dur,
        "persist.scan_journal_mb_per_s": len(journal) / 1e6 / s_scan.dur,
        "persist.snapshot_encode_mb_per_s": snap_mb / s_snap.dur,
        "persist.snapshot_decode_mb_per_s": snap_mb / s_unsnap.dur,
    }


def _filedisk_probe(wl) -> dict[str, float]:
    """Journal appends with a real fsync each: the sandbox's disk, for
    information only."""
    shutil.rmtree(FILEDISK_DIR, ignore_errors=True)
    try:
        writer = JournalWriter(FileDisk(FILEDISK_DIR))
        with wl.tracer.span("probe.persist.filedisk_append") as s:
            for i in range(FILEDISK_APPENDS):
                rec = wl.records[i % len(wl.records)]
                writer.append(rec["t"], rec)
    finally:
        shutil.rmtree(FILEDISK_DIR, ignore_errors=True)
    return {"persist.filedisk_append_recs_per_s": FILEDISK_APPENDS / s.dur}


def _overhead_ratio(wl, name: str, build, verify, attach) -> float:
    """Median wall of a run with ``attach(cobra_config)`` over the plain
    run, alternating which goes first."""
    walls = {False: [], True: []}
    for i in range(OVERHEAD_SAMPLES):
        for attached in ((False, True) if i % 2 == 0 else (True, False)):
            machine = Machine(itanium2_smp(4, scale=16))
            prog = build(machine)
            config = attach(machine.config.cobra) if attached else None
            with wl.tracer.span(f"probe.{name}.{'with' if attached else 'plain'}") as s:
                run_with_cobra(prog, "adaptive", config=config)
            if not verify(prog):
                raise ProbeFailure(f"{name} probe: run does not verify")
            walls[attached].append(s.dur)
    return statistics.median(walls[True]) / statistics.median(walls[False])


def _overhead_probes(wl) -> dict[str, float]:
    cg = BENCHMARKS["cg"]
    return {
        "persist.run_overhead_ratio": _overhead_ratio(
            wl, "persist_run",
            build=lambda m: cg.build(m, 4), verify=cg.verify,
            attach=lambda cobra: replace(
                cobra, persist=PersistConfig(disk=MemoryDisk()),
                profile_db=ProfileDBConfig(disk=MemoryDisk()))),
        "fleet.agent_overhead_ratio": _overhead_ratio(
            wl, "fleet_agent",
            build=lambda m: build_daxpy(m, 2048, 4, outer_reps=12),
            verify=lambda prog: verify_daxpy(prog, 12),
            attach=lambda cobra: replace(cobra, fleet=FleetAgentConfig(instance="probe"))),
    }


def _fleet_probes(wl) -> dict[str, float]:
    # every frame again: the daemon has seen them all, so each is a no-op
    daemon = wl.last_daemon
    before = daemon.canonical_state()
    with wl.tracer.span("probe.fleet.dup_replay") as s_dup:
        for _kind, data in wl.last_wire:
            daemon.handle(data)
    if daemon.canonical_state() != before:
        raise ProbeFailure("replaying seen frames changed the daemon")
    with wl.tracer.span("probe.fleet.harness6") as s_harness:
        report = FleetHarness(instances=6).run(jobs=1)
    if not report.ok:
        raise ProbeFailure("FleetHarness(instances=6) reports a failure")
    return {
        "fleet.dup_frames_per_s": len(wl.last_wire) / s_dup.dur,
        "fleet.harness6_wall_s": s_harness.dur,
    }


def state_probes(wl, ops) -> dict[str, float]:
    spans = wl.tracer.by_name()
    last = ops[-1].counts
    out = {
        "persist.recover_s": statistics.median(spans["persist.recover"]),
        "persist.profiledb_merge_per_s": _per_s(spans["persist.profiledb_merge"]),
        "persist.profiledb_save_s": statistics.median(spans["persist.profiledb_save"]),
        "persist.profiledb_load_s": statistics.median(spans["persist.profiledb_load"]),
        "persist.journal_bytes": last["persist_journal_bytes"],
        "persist.snapshots_written": last["persist_snapshots"],
        "persist.disk_writes": last["persist_writes"],
        "fleet.handle_hello_per_s": _per_s(spans["fleet.handle_hello"]),
        "fleet.handle_batch_per_s": _per_s(spans["fleet.handle_batch"]),
        "fleet.handle_profile_per_s": _per_s(spans["fleet.handle_profile"]),
        "fleet.decode_frame_per_s": _per_s(spans["fleet.decode_frame"]),
        "fleet.encode_frame_per_s": _per_s(spans["fleet.encode_frame"]),
        "fleet.published_entry_s": statistics.median(spans["fleet.published_entry"]),
        "fleet.daemon_recover_s": statistics.median(spans["fleet.daemon_recover"]),
        "fleet.snapshots_written": last["fleet_snapshots"],
        "fleet.journal_bytes": last["fleet_journal_bytes"],
        "fleet.nacks": last["nacks"],
    }
    for probe in (_codec_probes, _filedisk_probe, _overhead_probes, _fleet_probes):
        out.update(probe(wl))
    return out
