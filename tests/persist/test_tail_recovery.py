"""Recovery decodes only the journal tail its snapshot has not folded.

A snapshot records where its folded prefix ends (``journal_bytes``);
recovery CRC-checks that prefix without decoding it and decodes only the
record that ends there (its ``seq`` must be ``journal_seq``) and the tail.
Every check here holds the product to :mod:`oracle`, a recovery that
decodes the whole journal and shares no journal code with the product:
generated sessions with crashes, torn tails and corrupt snapshots; every
single-byte flip and truncation of a small store; crafted offsets; and
the exact number of records decoded.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import PersistConfig
from repro.fleet.daemon import FLEET_JOURNAL, FleetDaemon
from repro.persist import (
    JOURNAL_NAME,
    MemoryDisk,
    PersistenceManager,
    SnapshotStore,
    decode_snapshot,
    encode_record,
    recover,
)
from repro.persist import journal as journal_module

from ..fleet.test_state_body import _frame, actions
from . import oracle

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

FIELDS = (
    "state", "meta", "next_seq", "replayed", "discarded", "repair_length",
    "snapshot_version", "next_snapshot_version", "corrupt_snapshots",
)


def assert_matches_oracle(disk: MemoryDisk):
    """``recover(disk)`` agrees with the oracle on every reported field."""
    rec, want = recover(disk), oracle.recover(disk)
    assert {f: getattr(rec, f) for f in FIELDS} == {f: want[f] for f in FIELDS}
    assert rec.tail() == want["tail"]
    return rec


def _damage_newest_snapshot(disk: MemoryDisk) -> None:
    versions = SnapshotStore(disk).versions()
    if versions:
        name = SnapshotStore.name_for(versions[-1])
        disk.files[name][-1] ^= 0x20


# -- generated sessions ----------------------------------------------------

ops = st.lists(
    st.one_of(
        st.tuples(st.just("window"), st.integers(0, 9)),
        st.tuples(st.just("txn"), st.sampled_from(["deploy", "rollback"]),
                  st.sampled_from([64, 128])),
        st.tuples(st.just("decision"), st.integers(0, 99)),
        st.tuples(st.just("snapshot")),
    ),
    max_size=12,
)
sessions = st.lists(
    st.tuples(
        st.sampled_from([None, {"cmd": "daxpy", "reps": 4}, {"cmd": "cg"}]),
        ops,
        st.sampled_from(["close", "crash", "torn"]),
        st.integers(1, 40),   # bytes of the record a torn crash leaves
        st.booleans(),        # damage the newest snapshot afterwards
    ),
    min_size=1,
    max_size=4,
)


def _run_session(disk, meta, session_ops, end, torn, damage) -> None:
    manager = PersistenceManager(PersistConfig(disk=disk, meta=meta))
    manager.open()
    for op in session_ops:
        if op[0] == "window":
            manager.log_window({"mode": "normal", "cpi_history": [op[1] / 4]})
        elif op[0] == "txn":
            manager.log_txn(op[1], op[2], op[2] + 32, 5, "noprefetch", 1)
        elif op[0] == "decision":
            manager.log_decision([op[1], "deploy", 64, "noprefetch", "hot"])
        else:
            manager.snapshot_now()
    if end == "close":
        manager.close({"mode": "monitor-only", "cpi_history": []})
    elif end == "torn":
        record = encode_record({"t": "window", "seq": manager.journal.next_seq})
        disk.append(JOURNAL_NAME, record[: min(torn, len(record) - 1)])
        disk.write("snap-99999999.ckpt.tmp", b"died before its rename")
    if damage:
        _damage_newest_snapshot(disk)


class TestGeneratedSessions:
    @given(sessions=sessions)
    @settings(max_examples=150, **COMMON)
    def test_checkpoint_store_matches_the_oracle(self, sessions):
        disk = MemoryDisk()
        for session in sessions:
            assert_matches_oracle(disk)
            _run_session(disk, *session)
        assert_matches_oracle(disk)

    @given(
        stream=st.lists(st.one_of(actions, st.tuples(st.just("crash"))), max_size=40),
        interval=st.integers(1, 5),
    )
    @settings(max_examples=100, **COMMON)
    def test_daemon_store_matches_the_oracle(self, stream, interval):
        config = dict(quorum=2, snapshot_interval=interval)
        daemon = FleetDaemon(MemoryDisk(), **config)
        sent: list[bytes] = []
        for action in stream:
            if action[0] in ("recover", "crash"):
                if action[0] == "crash":
                    daemon.disk.append(FLEET_JOURNAL, b"\xba\xc0torn")
                daemon = self._recover_against_oracle(daemon.disk, config)
            elif action[0] == "again":
                if sent:
                    daemon.handle(sent[action[1] % len(sent)])
            else:
                sent.append(_frame(action))
                daemon.handle(sent[-1])
        self._recover_against_oracle(daemon.disk, config)

    @staticmethod
    def _recover_against_oracle(disk, config) -> FleetDaemon:
        found = oracle.read_store(disk, FLEET_JOURNAL)
        rebuilt = FleetDaemon(MemoryDisk(), **config)
        if found["snapshot"] is not None:
            rebuilt._restore(found["snapshot"])
        for record in found["tail"]:
            rebuilt._replay(record)
        reborn = FleetDaemon.recover(disk, **config)
        assert reborn.canonical_state() == rebuilt.canonical_state()
        assert reborn.journal.next_seq == found["next_seq"]
        assert reborn.journal.length == len(disk.files.get(FLEET_JOURNAL, b""))
        assert reborn.recovered == {
            "snapshot_version": found["snapshot_version"],
            "replayed": len(found["tail"]),
            "discarded": [
                *(f"corrupt snapshot {n}" for n in found["corrupt_snapshots"]),
                *found["discarded"],
            ],
        }
        return reborn


# -- hostile enumeration of one small store --------------------------------


@pytest.fixture(scope="module")
def small_store() -> MemoryDisk:
    """Three folded records (meta, two windows) and a two-record tail."""
    disk = MemoryDisk()
    manager = PersistenceManager(PersistConfig(disk=disk, meta={"cmd": "daxpy"}))
    manager.open()
    manager.log_window({"mode": "normal", "cpi_history": [1.5]})
    manager.log_window({"mode": "normal", "cpi_history": [1.5, 1.25]})
    manager.snapshot_now()
    manager.log_txn("deploy", 64, 96, 5, "noprefetch", 2)
    manager.log_decision([100, "deploy", 64, "noprefetch", "hot"])
    rec = assert_matches_oracle(disk)
    assert (rec.snapshot["journal_seq"], len(rec.records), rec.replayed) == (2, 2, 2)
    return disk


def _with_journal(disk: MemoryDisk, data: bytes) -> MemoryDisk:
    copy = disk.clone()
    copy.files[JOURNAL_NAME] = bytearray(data)
    return copy


def _record_ends(data: bytes) -> list[int]:
    """The end offset of every record in ``data`` (read off the headers)."""
    ends = [0]
    while ends[-1] < len(data):
        ends.append(ends[-1] + 12 + int.from_bytes(data[ends[-1] + 4 : ends[-1] + 8], "little"))
    return ends[1:]


class TestHostileJournal:
    def test_every_single_byte_flip(self, small_store):
        data = small_store.read(JOURNAL_NAME)
        for offset in range(len(data)):
            for mask in (0x01, 0xFF):
                damaged = bytearray(data)
                damaged[offset] ^= mask
                rec = assert_matches_oracle(_with_journal(small_store, bytes(damaged)))
                assert rec.discarded, offset

    def test_every_truncation(self, small_store):
        data = small_store.read(JOURNAL_NAME)
        for cut in range(len(data)):
            assert_matches_oracle(_with_journal(small_store, data[:cut]))

    def _with_envelope(self, disk, **envelope) -> MemoryDisk:
        copy = disk.clone()
        store = SnapshotStore(copy)
        version = store.versions()[-1]
        payload = decode_snapshot(copy.read(store.name_for(version)))
        store.write(version, {**payload, **envelope})
        return copy

    @pytest.mark.parametrize(
        "craft",
        [
            pytest.param(lambda ends, n: dict(journal_bytes=ends[2] + 5), id="mid-record"),
            pytest.param(lambda ends, n: dict(journal_bytes=n + 12), id="past-the-end"),
            pytest.param(lambda ends, n: dict(journal_bytes=ends[1]), id="boundary-seq-1"),
            pytest.param(lambda ends, n: dict(journal_seq=1), id="seq-claims-1"),
            pytest.param(lambda ends, n: dict(journal_bytes=0), id="zero-bytes"),
        ],
    )
    def test_crafted_offsets_fall_back_to_a_full_scan(self, small_store, craft):
        data = small_store.read(JOURNAL_NAME)
        disk = self._with_envelope(small_store, **craft(_record_ends(data), len(data)))
        rec = assert_matches_oracle(disk)
        assert len(rec.records) == 5 and rec.snapshot_version == 0


# -- exact work ------------------------------------------------------------


@pytest.fixture
def decodes(monkeypatch):
    """The number of journal records JSON-decoded since the fixture armed."""
    count = [0]

    def loads(text):
        count[0] += 1
        return json.loads(text)

    monkeypatch.setattr(
        journal_module, "json",
        SimpleNamespace(loads=loads, JSONDecodeError=json.JSONDecodeError),
    )
    return count


class TestDecodesOnlyTheTail:
    def test_a_closed_checkpoint_store_decodes_one_record(self, decodes):
        disk = MemoryDisk()
        for session in range(3):
            manager = PersistenceManager(PersistConfig(disk=disk, meta={"s": session}))
            manager.open()
            for i in range(9):
                manager.log_window({"mode": "normal", "cpi_history": [i]})
                manager.log_decision([i, "deploy", 64, "noprefetch", "hot"])
            manager.close({"mode": "normal", "cpi_history": []})
        decodes[0] = 0
        rec = recover(disk)
        assert decodes[0] == 1 and rec.records == [] and rec.replayed == 0
        assert rec.meta == {"s": 2}
        manager = PersistenceManager(PersistConfig(disk=disk))
        manager.open()
        manager.log_decision([1, "deploy", 64, "noprefetch", "hot"])
        decodes[0] = 0
        rec = recover(disk)
        # the boundary record, then the resumed session's meta + decision
        assert decodes[0] == 3 and rec.replayed == 1

    def test_a_daemon_store_decodes_the_boundary_and_the_tail(self, decodes):
        daemon = FleetDaemon(MemoryDisk(), quorum=2, snapshot_interval=4)
        for seq in range(1, 11):
            daemon.handle(_frame(("batch", "i0", seq, seq, 0, 1.5)))
        assert daemon.snapshots_written == 2  # after batches 4 and 8
        decodes[0] = 0
        reborn = FleetDaemon.recover(daemon.disk, quorum=2, snapshot_interval=4)
        assert reborn.recovered["replayed"] == 2
        assert decodes[0] == 1 + 2
        assert reborn.canonical_state() == daemon.canonical_state()
