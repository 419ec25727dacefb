"""Snapshot codec, versioned store, fallback, and pruning."""

from __future__ import annotations

import pytest

from repro.persist import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_MAGIC,
    MemoryDisk,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
)


class TestCodec:
    def test_roundtrip(self):
        payload = {"journal_seq": 41, "state": {"mode": "normal"}, "meta": None}
        assert decode_snapshot(encode_snapshot(payload)) == payload

    def test_short_blob_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            decode_snapshot(b"CSNP")

    def test_bad_magic_rejected(self):
        data = bytearray(encode_snapshot({"a": 1}))
        data[0:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            decode_snapshot(bytes(data))

    def test_truncated_payload_rejected(self):
        data = encode_snapshot({"a": 1})
        with pytest.raises(ValueError, match="length"):
            decode_snapshot(data[:-2])

    def test_digest_mismatch_rejected(self):
        data = bytearray(encode_snapshot({"a": 1}))
        data[-1] ^= 0x01
        with pytest.raises(ValueError, match="digest"):
            decode_snapshot(bytes(data))

    def test_newer_format_rejected_older_accepted(self):
        # a snapshot from a future build: digest fine, semantics unknown
        with pytest.raises(ValueError, match="newer"):
            decode_snapshot(encode_snapshot({"a": 1}, fmt=SNAPSHOT_FORMAT + 1))
        assert SNAPSHOT_MAGIC == b"CSNP"

    def test_non_object_payload_rejected(self):
        import hashlib
        import struct

        body = b"[1,2,3]"
        head = struct.Struct("<4sHHI").pack(SNAPSHOT_MAGIC, SNAPSHOT_FORMAT, 0, len(body))
        blob = head + hashlib.sha256(head + body).digest() + body
        with pytest.raises(ValueError, match="object"):
            decode_snapshot(blob)


class TestStore:
    def test_write_load_newest(self):
        disk = MemoryDisk()
        store = SnapshotStore(disk)
        store.write(0, {"v": 0})
        store.write(1, {"v": 1})
        load = store.load_newest()
        assert load.payload == {"v": 1} and load.version == 1
        assert load.corrupt == [] and load.stray_tmp == []

    def test_write_body_is_write_of_the_same_payload(self):
        plain, encoded = MemoryDisk(), MemoryDisk()
        SnapshotStore(plain).write(3, {"v": 3, "a": [1.5, None]})
        SnapshotStore(encoded).write_body(3, b'{"a":[1.5,null],"v":3}')
        assert encoded.files == plain.files
        assert encoded.durable_ops == 1

    def test_falls_back_past_corrupt_newest(self):
        disk = MemoryDisk()
        store = SnapshotStore(disk)
        store.write(0, {"v": 0})
        store.write(1, {"v": 1})
        blob = bytearray(disk.read(store.name_for(1)))
        blob[-3] ^= 0xFF
        disk.write(store.name_for(1), bytes(blob))
        load = store.load_newest()
        assert load.payload == {"v": 0} and load.version == 0
        assert load.corrupt == [store.name_for(1)]

    def test_all_corrupt_returns_none_with_notes(self):
        disk = MemoryDisk()
        store = SnapshotStore(disk)
        store.write(0, {"v": 0})
        disk.write(store.name_for(0), b"garbage bytes, not a snapshot")
        load = store.load_newest()
        assert load.payload is None and load.version == -1
        assert load.corrupt == [store.name_for(0)]

    def test_stray_tmp_is_reported(self):
        disk = MemoryDisk()
        store = SnapshotStore(disk)
        store.write(0, {"v": 0})
        disk.write(store.name_for(1) + ".tmp", b"died before rename")
        load = store.load_newest()
        assert load.payload == {"v": 0}
        assert load.stray_tmp == [store.name_for(1) + ".tmp"]

    def test_prune_keeps_newest(self):
        disk = MemoryDisk()
        store = SnapshotStore(disk)
        for v in range(5):
            store.write(v, {"v": v})
        assert store.prune(keep=2) == 3
        assert store.versions() == [3, 4]

    def test_versions_ignores_foreign_files(self):
        disk = MemoryDisk()
        disk.write("journal.wal", b"x")
        disk.write("snap-zz.ckpt", b"x")
        store = SnapshotStore(disk)
        store.write(7, {"v": 7})
        assert store.versions() == [7]
