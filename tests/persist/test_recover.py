"""Recovery: snapshot + journal-tail replay, txn deltas, repair."""

from __future__ import annotations

import pytest

from repro.config import itanium2_smp
from repro.core import Cobra
from repro.core.optimizer import CHECKPOINT
from repro.cpu import Machine
from repro.errors import ProfileStateError
from repro.persist import (
    JOURNAL_NAME,
    JournalWriter,
    MemoryDisk,
    SnapshotStore,
    empty_state,
    recover,
    repair,
    scan_journal,
)
from repro.workloads import build_daxpy


def _store_with(records, snapshot=None):
    disk = MemoryDisk()
    writer = JournalWriter(disk)
    for kind, payload in records:
        writer.append(kind, payload)
    if snapshot is not None:
        version, payload = snapshot
        SnapshotStore(disk).write(version, payload)
    return disk


class TestRecover:
    def test_empty_store(self):
        rec = recover(MemoryDisk())
        assert rec.state is None and rec.meta is None
        assert rec.next_seq == 0 and rec.snapshot_version == -1
        assert rec.next_snapshot_version == 0 and rec.replayed == 0
        assert rec.repair_length is None

    def test_window_records_are_last_wins(self):
        disk = _store_with([
            ("window", {"state": {"mode": "normal", "cpi_history": [1.0]}}),
            ("window", {"state": {"mode": "monitor-only", "cpi_history": [2.0]}}),
        ])
        rec = recover(disk)
        assert rec.state == {"mode": "monitor-only", "cpi_history": [2.0]}
        assert rec.replayed == 2 and rec.next_seq == 2

    def test_txn_deploy_and_rollback_deltas(self):
        disk = _store_with([
            ("txn", {"op": "deploy", "head": 64, "back_branch": 96,
                     "hotness": 5, "optimization": "noprefetch", "n_rewrites": 2}),
            ("txn", {"op": "deploy", "head": 128, "back_branch": 160,
                     "hotness": 9, "optimization": "excl", "n_rewrites": 1}),
            ("txn", {"op": "rollback", "head": 64, "back_branch": 96,
                     "hotness": 5, "optimization": "noprefetch", "n_rewrites": 2}),
        ])
        rec = recover(disk)
        deployments = rec.state["deployments"]
        assert [d["head"] for d in deployments] == [128]
        assert deployments[0]["optimization"] == "excl"

    def test_redeploy_same_head_dedupes(self):
        disk = _store_with([
            ("txn", {"op": "deploy", "head": 64, "optimization": "noprefetch"}),
            ("txn", {"op": "deploy", "head": 64, "optimization": "excl"}),
        ])
        rec = recover(disk)
        deployments = rec.state["deployments"]
        assert len(deployments) == 1 and deployments[0]["optimization"] == "excl"

    def test_decision_records_append_events(self):
        disk = _store_with([
            ("decision", {"event": [100, "deploy", 64, "noprefetch", "hot"]}),
            ("decision", {"event": [200, "rollback", 64, "noprefetch", "cold"]}),
        ])
        rec = recover(disk)
        assert rec.state["events"] == [
            [100, "deploy", 64, "noprefetch", "hot"],
            [200, "rollback", 64, "noprefetch", "cold"],
        ]

    def test_snapshot_subsumes_older_records(self):
        disk = _store_with(
            [
                ("window", {"state": {"mode": "normal", "tag": "old"}}),    # seq 0
                ("window", {"state": {"mode": "normal", "tag": "new"}}),    # seq 1
            ],
            snapshot=(0, {"journal_seq": 0,
                          "state": {"mode": "normal", "tag": "snap"},
                          "meta": None}),
        )
        rec = recover(disk)
        # seq 0 is folded into the snapshot; only seq 1 replays on top
        assert rec.replayed == 1
        assert rec.state["tag"] == "new"
        assert rec.snapshot_version == 0 and rec.next_snapshot_version == 1
        assert rec.next_seq == 2

    def test_meta_tracked_even_when_subsumed(self):
        disk = _store_with(
            [("meta", {"meta": {"cmd": "daxpy", "reps": 4}})],
            snapshot=(0, {"journal_seq": 5, "state": {"mode": "normal"},
                          "meta": None}),
        )
        rec = recover(disk)
        assert rec.meta == {"cmd": "daxpy", "reps": 4}
        assert rec.replayed == 0  # meta is session metadata, not state

    def test_unknown_kinds_are_skipped(self):
        disk = _store_with([
            ("window", {"state": {"mode": "normal"}}),
            ("hologram", {"future": True}),
        ])
        rec = recover(disk)
        assert rec.state == {"mode": "normal"}
        assert rec.next_seq == 2  # unknown record still advances the seq

    def test_a_malformed_window_takes_no_delta(self):
        """A CRC-valid window state that cannot take the deltas after it
        stays as it is, for ``CHECKPOINT`` to reject naming the field."""
        disk = _store_with([
            ("window", {"state": {**empty_state(), "events": 5, "deployments": [7]}}),
            ("decision", {"event": [100, "deploy", 64, "noprefetch", "hot"]}),
            ("txn", {"op": "deploy", "head": 64, "back_branch": 96,
                     "hotness": 5, "optimization": "noprefetch", "n_rewrites": 2}),
        ])
        rec = recover(disk)
        assert rec.replayed == 3
        assert rec.state["events"] == 5 and rec.state["deployments"] == [7]
        with pytest.raises(ProfileStateError, match=r"^deployments\[0\]: "):
            CHECKPOINT.load({**rec.state, "events": []})

    def test_torn_tail_reports_repair_point(self):
        disk = _store_with([("window", {"state": {"mode": "normal"}})])
        good_len = len(disk.read(JOURNAL_NAME))
        disk.append(JOURNAL_NAME, b"\xba\xc0\x00")  # torn next record
        rec = recover(disk)
        assert rec.state == {"mode": "normal"}
        assert rec.repair_length == good_len
        assert len(rec.discarded) == 1

    def test_corrupt_snapshot_falls_back_and_is_noted(self):
        disk = _store_with(
            [("window", {"state": {"mode": "normal", "tag": "tail"}})],
            snapshot=(1, {"journal_seq": -1, "state": {"tag": "snap"},
                          "meta": None}),
        )
        store = SnapshotStore(disk)
        blob = bytearray(disk.read(store.name_for(1)))
        blob[-1] ^= 0x10
        disk.write(store.name_for(1), bytes(blob))
        rec = recover(disk)
        assert rec.state["tag"] == "tail"          # rebuilt from the journal
        assert rec.corrupt_snapshots == [store.name_for(1)]
        assert rec.next_snapshot_version == 2      # monotonic past corruption


class TestRepair:
    def test_truncates_tear_and_deletes_strays(self):
        disk = _store_with([("window", {"state": {"mode": "normal"}})])
        good_len = len(disk.read(JOURNAL_NAME))
        disk.append(JOURNAL_NAME, b"torn!")
        disk.write("snap-00000003.ckpt.tmp", b"died before rename")
        rec = recover(disk)
        repair(disk, rec)
        assert len(disk.read(JOURNAL_NAME)) == good_len
        assert not disk.exists("snap-00000003.ckpt.tmp")
        # idempotent and now clean
        rec2 = recover(disk)
        assert rec2.repair_length is None and rec2.discarded == []
        repair(disk, rec2)

    def test_appending_after_repair_scans_clean(self):
        disk = _store_with([("window", {"state": {"mode": "normal"}})])
        disk.append(JOURNAL_NAME, b"\x01\x02\x03")
        rec = recover(disk)
        repair(disk, rec)
        JournalWriter(disk, next_seq=rec.next_seq).append(
            "window", {"state": {"mode": "monitor-only"}}
        )
        records, _len, discarded = scan_journal(disk.read(JOURNAL_NAME))
        assert discarded == []
        assert [r["seq"] for r in records] == [0, 1]
        assert records[-1]["state"]["mode"] == "monitor-only"


class TestEmptyState:
    def test_shape_matches_optimizer_export(self):
        state = empty_state()
        assert state["deployments"] == [] and state["mode"] == "normal"
        assert set(state) == {
            "profiler", "cpi_history", "blacklist", "mode",
            "fault_strikes", "events", "deployments", "samples_per_cpu",
        }
        machine = Machine(itanium2_smp(2, scale=4))
        prog = build_daxpy(machine, 64, 2, outer_reps=1)
        exported = Cobra(machine, prog.image).optimizer.export_state()
        assert list(exported) == list(state)
