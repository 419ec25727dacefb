"""Crash recovery: newest valid snapshot + journal-tail replay.

One procedure serves both durable logs, the per-run checkpoint store
(:func:`recover`) and the fleet daemon's
(:meth:`repro.fleet.daemon.FleetDaemon.recover`).  Recovery never fails
on damaged state — that is its whole job:

1. load the newest snapshot whose digest and envelope verify, falling
   back past corrupt or too-new ones (and noting stray ``.tmp`` files
   left by a writer that died before its rename);
2. decode the journal's tail: the records after the snapshot's
   ``journal_bytes`` when the journal there is a run of CRC-valid
   records whose last carries the snapshot's ``journal_seq`` (checked
   without decoding them, all but that last), else every record of the
   longest valid prefix, the folded ones (``seq`` up to
   ``journal_seq``) then skipped.  Either way the scan stops at the
   first bad record, and recovery costs what is left to replay, not
   the store's whole history;
3. report the repair point: :func:`repair` truncates the journal back
   to its valid prefix before the next session appends (otherwise
   replay would stop at the old tear forever and silently drop every
   later record) and deletes the stray temps.

A checkpoint's tail replays this way: ``window`` records replace the
control-plane state wholesale (last-wins — each carries the full state
at one optimizer wake), ``txn`` records apply deploy/rollback deltas,
``decision`` records append to the event history, ``meta`` records
carry the workload descriptor (the snapshot's ``meta`` stands for the
folded ones: a session writes its meta record before any snapshot).
The state stays JSON; :data:`~repro.core.optimizer.CHECKPOINT`
validates it when a run warm-starts from it.

Everything discarded — torn tail, corrupt snapshot, stray temp — is
returned as structured notes so the caller can account each one in the
fault ledger.  The fuzz table's crash row turns "accounted" into a hard
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.optimizer import CHECKPOINT
from ..core.tracecache import Deployment
from ..errors import ProfileStateError
from ..shape import INT, STR, Record
from .journal import JOURNAL_NAME, Disk, folded_prefix, scan_journal
from .snapshot import SnapshotStore

__all__ = ["RECORD", "RecoveredState", "read_store", "recover", "repair", "empty_state"]

#: What every journal record of either store carries: its sequence
#: number and its kind.  The rest of a record is its kind's business.
RECORD = Record(seq=INT, t=STR)


def empty_state() -> dict:
    """Control-plane state of a run that has not completed a wake yet."""
    return CHECKPOINT.empty()


@dataclass
class RecoveredState:
    """What recovery read from one store and, for a checkpoint store,
    the control-plane state it rebuilt."""

    #: the store's journal file name
    journal: str
    #: newest snapshot payload that verified (``None``: none did)
    snapshot: dict | None
    #: its ``journal_seq``: the sequence of the last record it folded
    #: (-1 = no snapshot)
    folded: int
    #: the journal records recovery decoded, oldest first: the tail
    #: after the snapshot's ``journal_bytes``, or the whole valid
    #: prefix when that offset did not check out
    records: list[dict]
    #: sequence the next journal record must carry
    next_seq: int
    #: version of the snapshot the state was based on (-1 = none)
    snapshot_version: int
    #: version the next snapshot write must use (monotonic across
    #: sessions, past corrupt files too)
    next_snapshot_version: int
    #: torn/corrupt journal regions, one note each
    discarded: list[str] = field(default_factory=list)
    #: snapshot files that failed digest/format verification
    corrupt_snapshots: list[str] = field(default_factory=list)
    #: temp files from atomic writes that never renamed
    stray_tmp: list[str] = field(default_factory=list)
    #: byte length to truncate the journal to (``None`` = no tear)
    repair_length: int | None = None
    #: the journal's byte length once repaired (the next writer's start)
    journal_length: int = 0
    #: rebuilt control-plane state, or ``None`` when the store held no
    #: usable state at all (fresh directory, or everything corrupt)
    state: dict | None = None
    #: last workload descriptor written by a session (``repro resume``
    #: rebuilds the program from this)
    meta: dict | None = None
    #: journal records applied on top of the snapshot
    replayed: int = 0

    def tail(self) -> list[dict]:
        """The records the snapshot has not folded."""
        return [r for r in self.records if r["seq"] > self.folded]


def read_store(disk: Disk, journal: str) -> RecoveredState:
    """Steps 1-3 for the store on ``disk`` whose journal is ``journal``."""
    store = SnapshotStore(disk)
    load = store.load_newest()
    versions = store.versions()
    data = disk.read(journal) if disk.exists(journal) else b""
    envelope = load.payload if load.payload is not None else {}
    folded = envelope.get("journal_seq", -1)
    start = folded_prefix(data, envelope.get("journal_bytes", 0), folded)
    records, valid_len, discarded = scan_journal(data, start)
    # a record that passed its CRC yet lacks an envelope stops recovery
    # before any sequence is compared; it is named by the sequence it
    # carries, or else the one it should (one past its predecessor's)
    seq = folded if start else -1
    for record in records:
        try:
            RECORD.load(record)
        except ProfileStateError as exc:
            at = record.get("seq") if type(record.get("seq")) is int else seq + 1
            raise exc.under(at).under(journal, field=True) from None
        seq = record["seq"]
    return RecoveredState(
        journal=journal,
        snapshot=load.payload,
        folded=folded,
        records=records,
        next_seq=max([folded, *(r["seq"] for r in records)]) + 1,
        snapshot_version=load.version,
        next_snapshot_version=versions[-1] + 1 if versions else 0,
        discarded=discarded,
        corrupt_snapshots=list(load.corrupt),
        stray_tmp=list(load.stray_tmp),
        repair_length=valid_len if valid_len < len(data) else None,
        journal_length=valid_len,
    )


def _fold(state: dict, kind: str, record: dict) -> None:
    """A decision appends its event; a deploy replaces its loop's
    deployment record, a rollback drops it."""
    if kind == "decision":
        state.setdefault("events", []).append(record.get("event"))
        return
    txn = {name: record.get(name) for name in Deployment.RECORD.fields}
    deployments = state.setdefault("deployments", [])
    deployments[:] = [d for d in deployments if d["head"] != txn["head"]]
    if record.get("op") == "deploy":
        deployments.append(txn)


def recover(disk: Disk) -> RecoveredState:
    """Rebuild the newest consistent control-plane state on ``disk``."""
    found = read_store(disk, JOURNAL_NAME)
    if found.snapshot is not None:
        found.state = found.snapshot.get("state")
        found.meta = found.snapshot.get("meta")
    for record in found.records:
        if record.get("t") == "meta":
            # the descriptor is session-scoped, not state: always track
            # the newest one decoded, even from records the snapshot
            # subsumes (a full scan decodes those)
            found.meta = record.get("meta", found.meta)
    for record in found.tail():
        kind = record.get("t")
        if kind == "meta":
            continue
        found.replayed += 1
        if kind == "window":
            found.state = record.get("state", found.state)
        elif kind in ("txn", "decision"):
            if found.state is None:
                found.state = empty_state()
            try:
                _fold(found.state, kind, record)
            except (AttributeError, KeyError, TypeError):
                # a malformed window state takes no delta; it stays as
                # it is, for CHECKPOINT to reject naming its path
                pass
        # unknown kinds: forward compatibility, skip silently
    return found


def repair(disk: Disk, recovered: RecoveredState) -> None:
    """Make the store append-safe again after a torn crash.

    Truncates the journal back to its valid prefix (appending after a
    tear would strand every later record behind the bad region) and
    removes stray snapshot temps.  Idempotent; a no-op on clean stores.
    """
    if recovered.repair_length is not None:
        disk.truncate(recovered.journal, recovered.repair_length)
    for name in recovered.stray_tmp:
        disk.delete(name)
