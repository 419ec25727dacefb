"""Crash recovery: newest valid snapshot + journal-tail replay.

Recovery never fails on damaged state — that is its whole job.  The
procedure:

1. load the newest snapshot whose digest verifies, falling back past
   corrupt or too-new ones (and noting stray ``.tmp`` files left by a
   writer that died before its rename);
2. scan the journal's longest valid record prefix and replay every
   record newer than the snapshot's sequence point: ``window`` records
   replace the control-plane state wholesale (last-wins — each carries
   the full state at one optimizer wake), ``txn`` records apply
   deploy/rollback deltas, ``decision`` records append to the event
   history, ``meta`` records carry the workload descriptor;
3. report the repair point: the journal is truncated back to its valid
   prefix before the next session appends (otherwise replay would stop
   at the old tear forever and silently drop every later record).

Everything discarded — torn tail, corrupt snapshot, stray temp — is
returned as structured notes so the caller can account each one in the
fault ledger.  The recovery-equivalence harness turns "accounted" into
a hard invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.tracecache import Deployment
from .journal import JOURNAL_NAME, Disk, scan_journal
from .snapshot import SnapshotStore

__all__ = ["RecoveredState", "recover", "repair", "empty_state"]


def empty_state() -> dict:
    """Control-plane state of a run that has not completed a wake yet:
    the keys of :meth:`~repro.core.optimizer.OptimizationThread.
    export_state`, which a warm start reads a recovered state laid over."""
    return {
        "profiler": None,
        "cpi_history": [],
        "blacklist": [],
        "mode": "normal",
        "fault_strikes": 0,
        "events": [],
        "deployments": [],
        "samples_per_cpu": {},
    }


@dataclass
class RecoveredState:
    """Everything recovery could reconstruct from a checkpoint store."""

    #: rebuilt control-plane state, or ``None`` when the store held no
    #: usable state at all (fresh directory, or everything corrupt)
    state: dict | None
    #: last workload descriptor written by a session (``repro resume``
    #: rebuilds the program from this)
    meta: dict | None
    #: sequence the next journal record must carry
    next_seq: int
    #: version of the snapshot the state was based on (-1 = none)
    snapshot_version: int
    #: version the next snapshot write must use (monotonic across
    #: sessions, past corrupt files too)
    next_snapshot_version: int
    #: journal records applied on top of the snapshot
    replayed: int
    #: torn/corrupt journal regions, one note each
    discarded: list[str] = field(default_factory=list)
    #: snapshot files that failed digest/format verification
    corrupt_snapshots: list[str] = field(default_factory=list)
    #: temp files from atomic writes that never renamed
    stray_tmp: list[str] = field(default_factory=list)
    #: byte length to truncate the journal to (``None`` = no tear)
    repair_length: int | None = None


def _apply_txn(state: dict, record: dict) -> None:
    """A deploy replaces its loop's deployment record, a rollback drops it."""
    txn = {
        name: kind(record.get(name, kind()))
        for name, kind in Deployment.RECORD.items()
    }
    deployments: list[dict] = state.setdefault("deployments", [])
    deployments[:] = [d for d in deployments if int(d["head"]) != txn["head"]]
    if record.get("op") == "deploy":
        deployments.append(txn)


def recover(disk: Disk) -> RecoveredState:
    """Rebuild the newest consistent control-plane state on ``disk``."""
    store = SnapshotStore(disk)
    load = store.load_newest()
    versions = store.versions()
    next_version = (versions[-1] + 1) if versions else 0

    state: dict | None = None
    meta: dict | None = None
    base_seq = -1
    if load.payload is not None:
        state = load.payload.get("state")
        meta = load.payload.get("meta")
        base_seq = int(load.payload.get("journal_seq", -1))

    data = disk.read(JOURNAL_NAME) if disk.exists(JOURNAL_NAME) else b""
    records, valid_len, discarded = scan_journal(data)

    replayed = 0
    last_seq = base_seq
    for record in records:
        seq = int(record.get("seq", -1))
        last_seq = max(last_seq, seq)
        kind = record.get("t")
        if kind == "meta":
            # the descriptor is session-scoped, not state: always track
            # the newest one, even from records the snapshot subsumes
            meta = record.get("meta", meta)
            continue
        if seq <= base_seq:
            continue  # already folded into the snapshot
        replayed += 1
        if kind == "window":
            state = record.get("state", state)
        elif kind == "txn":
            if state is None:
                state = empty_state()
            _apply_txn(state, record)
        elif kind == "decision":
            if state is None:
                state = empty_state()
            state.setdefault("events", []).append(record.get("event"))
        # unknown kinds: forward compatibility, skip silently

    return RecoveredState(
        state=state,
        meta=meta,
        next_seq=last_seq + 1,
        snapshot_version=load.version,
        next_snapshot_version=next_version,
        replayed=replayed,
        discarded=discarded,
        corrupt_snapshots=list(load.corrupt),
        stray_tmp=list(load.stray_tmp),
        repair_length=valid_len if valid_len < len(data) else None,
    )


def repair(disk: Disk, recovered: RecoveredState) -> None:
    """Make the store append-safe again after a torn crash.

    Truncates the journal back to its valid prefix (appending after a
    tear would strand every later record behind the bad region) and
    removes stray snapshot temps.  Idempotent; a no-op on clean stores.
    """
    if recovered.repair_length is not None:
        disk.truncate(JOURNAL_NAME, recovered.repair_length)
    for name in recovered.stray_tmp:
        disk.delete(name)
