"""Persistence manager: the one object the COBRA runtime talks to.

Owns the journal writer and snapshot store over one disk, performs
recovery + repair when a session opens, and exposes the three logging
hooks the control plane calls (window merges, trace-cache transactions,
optimizer decisions).  Every durable write first passes the fault
injector's crash gate, so the crash sweep can kill the "process" at any
journal/snapshot boundary — including mid-write, leaving a torn record
or a stray snapshot temp for the next recovery to account.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import PersistConfig
from ..core.tracecache import Deployment
from ..errors import SimulatedCrash
from .journal import JOURNAL_NAME, Disk, FileDisk, JournalWriter
from .recover import RecoveredState, recover, repair
from .snapshot import SnapshotStore

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = ["PersistenceManager", "PersistStats", "SNAPSHOT_INTERVAL"]

#: Window (wake) records between automatic snapshots.
SNAPSHOT_INTERVAL = 4


@dataclass
class PersistStats:
    """Durability counters surfaced on :class:`~repro.core.framework.CobraReport`."""

    records_written: int = 0
    records_replayed: int = 0
    records_discarded: int = 0
    snapshots_written: int = 0
    snapshots_discarded: int = 0
    tmp_cleaned: int = 0
    journal_repaired_bytes: int = 0
    resumed: bool = False


class PersistenceManager:
    """Journals and snapshots the COBRA control plane on one disk."""

    def __init__(self, config: PersistConfig, faults: "FaultInjector | None" = None) -> None:
        self.disk: Disk = config.disk if config.disk is not None else FileDisk(config.directory)
        self.faults = faults
        self.store = SnapshotStore(self.disk)
        self.stats = PersistStats()
        self.journal: JournalWriter | None = None
        self._meta = dict(config.meta) if config.meta is not None else None
        self._last_state: dict | None = None
        self._next_snapshot_version = 0
        self._windows_since_snapshot = 0

    # -- session open -------------------------------------------------------

    def open(self) -> RecoveredState:
        """Recover + repair the store; arm the journal for appending."""
        recovered = recover(self.disk)
        repair(self.disk, recovered)

        stats = self.stats
        stats.records_replayed = recovered.replayed
        stats.records_discarded = len(recovered.discarded)
        stats.snapshots_discarded = len(recovered.corrupt_snapshots)
        stats.tmp_cleaned = len(recovered.stray_tmp)
        stats.resumed = recovered.state is not None
        if recovered.repair_length is not None:
            stats.journal_repaired_bytes = recovered.repair_length

        if self.faults is not None:
            # every byte recovery refused to trust becomes a ledger
            # entry: the equivalence harness requires each torn record,
            # corrupt snapshot, and stray temp to be accounted
            for note in recovered.discarded:
                self.faults.observe("torn_journal_record", "persist", note)
            for name in recovered.corrupt_snapshots:
                self.faults.observe("corrupt_snapshot", "persist", f"{name} failed verification")
            for name in recovered.stray_tmp:
                self.faults.observe("stray_snapshot_tmp", "persist", f"{name} removed")

        self.journal = JournalWriter(self.disk, recovered.next_seq, gate=self._gate,
                                     length=recovered.journal_length)
        self._next_snapshot_version = recovered.next_snapshot_version
        self._last_state = recovered.state
        if self._meta is None:
            self._meta = recovered.meta
        if self._meta is not None:
            self._append("meta", {"meta": self._meta})
        return recovered

    # -- crash gate ---------------------------------------------------------

    def _gate(self, name: str, data: bytes, mode: str) -> None:
        """Maybe kill the run at this durable-write boundary."""
        if self.faults is None:
            return
        crash, torn = self.faults.crash_gate()
        if not crash:
            return
        if torn is not None:
            prefix = data[: min(torn, len(data))]
            if mode == "append":
                # the tail of the journal gets a partial record
                self.disk.append(name, prefix)
            else:
                # snapshot writer died before its rename: torn temp only
                self.disk.write(name + ".tmp", prefix)
        self.disk.kill()
        raise SimulatedCrash(
            f"crash injected at persistence write "
            f"#{self.faults.durable_writes} ({name})"
        )

    def _append(self, kind: str, payload: dict) -> None:
        assert self.journal is not None, "open() must run before logging"
        self.journal.append(kind, payload)
        self.stats.records_written += 1

    # -- logging hooks ------------------------------------------------------

    def log_window(self, state: dict) -> None:
        """One optimizer wake completed: journal the full control state."""
        self._last_state = state
        self._append("window", {"state": state})
        self._windows_since_snapshot += 1
        if self._windows_since_snapshot >= SNAPSHOT_INTERVAL:
            self.snapshot_now()

    def log_txn(
        self,
        op: str,
        head: int,
        back_branch: int,
        hotness: int,
        optimization: str,
        n_rewrites: int,
    ) -> None:
        """A trace-cache deploy/rollback committed: journal the delta
        (``op`` + a :attr:`~repro.core.tracecache.Deployment.RECORD`)."""
        values = (head, back_branch, hotness, optimization, n_rewrites)
        self._append("txn", {"op": op, **dict(zip(Deployment.RECORD.fields, values))})

    def log_decision(self, event: list) -> None:
        """One optimizer event (deploy/rollback/skip/recover/degrade)."""
        self._append("decision", {"event": event})

    # -- snapshots ----------------------------------------------------------

    def snapshot_now(self) -> None:
        """Write a checksummed snapshot of the last journaled state."""
        if self._last_state is None or self.journal is None:
            return
        from .snapshot import encode_snapshot

        payload = {
            "journal_bytes": self.journal.length,
            "journal_seq": self.journal.next_seq - 1,
            "state": self._last_state,
            "meta": self._meta,
        }
        name = SnapshotStore.name_for(self._next_snapshot_version)
        data = encode_snapshot(payload)
        self._gate(name, data, "atomic")
        self.disk.write_atomic(name, data)
        self.stats.snapshots_written += 1
        self._next_snapshot_version += 1
        self._windows_since_snapshot = 0
        self.store.prune()

    def close(self, state: dict) -> None:
        """End of run: journal the final state and snapshot it."""
        if self.journal is None:
            return
        self.log_window(state)
        self.snapshot_now()
