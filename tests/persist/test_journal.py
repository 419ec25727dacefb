"""Journal wire format, scan semantics, and the injectable disks."""

from __future__ import annotations

import pytest

from repro.errors import PersistError
from repro.persist import (
    JOURNAL_NAME,
    FileDisk,
    JournalWriter,
    MemoryDisk,
    encode_record,
    scan_journal,
)
from repro.persist.journal import HEADER_BYTES, frame_record


class TestWireFormat:
    def test_roundtrip_multiple_records(self):
        payloads = [{"t": "window", "seq": i, "x": i * 7} for i in range(5)]
        data = b"".join(encode_record(p) for p in payloads)
        records, valid_len, discarded = scan_journal(data)
        assert records == payloads
        assert valid_len == len(data)
        assert discarded == []

    def test_empty_journal(self):
        assert scan_journal(b"") == ([], 0, [])

    def test_torn_header_is_noted(self):
        data = encode_record({"a": 1}) + b"\xba\xc0"  # 2 of 12 header bytes
        records, valid_len, discarded = scan_journal(data)
        assert len(records) == 1
        assert valid_len == len(encode_record({"a": 1}))
        assert len(discarded) == 1 and "torn header" in discarded[0]

    def test_torn_record_is_noted(self):
        record = encode_record({"a": 1})
        data = record + encode_record({"b": 2})[: HEADER_BYTES + 3]
        records, valid_len, discarded = scan_journal(data)
        assert records == [{"a": 1}]
        assert valid_len == len(record)
        assert len(discarded) == 1 and "torn record" in discarded[0]

    def test_bad_magic_stops_the_scan(self):
        record = encode_record({"a": 1})
        data = record + b"\x00" * 32
        records, valid_len, discarded = scan_journal(data)
        assert records == [{"a": 1}] and valid_len == len(record)
        assert "bad magic" in discarded[0]

    def test_crc_covers_the_header(self):
        # flip a byte inside the length field: without header coverage
        # the crc would still match the (unchanged) payload bytes
        record = bytearray(encode_record({"a": 1}))
        record[4] ^= 0x01
        records, valid_len, discarded = scan_journal(bytes(record))
        assert records == [] and valid_len == 0
        assert discarded  # torn record or crc mismatch, never decoded

    def test_crc_covers_the_payload(self):
        record = bytearray(encode_record({"a": 1}))
        record[-1] ^= 0x40
        records, _valid, discarded = scan_journal(bytes(record))
        assert records == []
        assert "crc mismatch" in discarded[0]

    def test_corruption_never_hides_earlier_records(self):
        good = encode_record({"a": 1}) + encode_record({"b": 2})
        bad = bytearray(good + encode_record({"c": 3}))
        bad[len(good) + HEADER_BYTES] ^= 0xFF
        records, valid_len, _ = scan_journal(bytes(bad))
        assert records == [{"a": 1}, {"b": 2}]
        assert valid_len == len(good)


class TestMemoryDisk:
    def test_durable_ops_count_appends_and_atomic_writes(self):
        disk = MemoryDisk()
        disk.append("j", b"one")
        disk.write_atomic("s", b"snap")
        disk.write("s.tmp", b"torn")          # non-durable: not counted
        assert disk.durable_ops == 2

    def test_kill_makes_all_writes_noops(self):
        disk = MemoryDisk()
        disk.append("j", b"one")
        disk.kill()
        disk.append("j", b"two")
        disk.write_atomic("s", b"snap")
        disk.truncate("j", 0)
        assert disk.read("j") == b"one"
        assert not disk.exists("s")

    def test_clone_is_independent(self):
        disk = MemoryDisk()
        disk.append("j", b"one")
        twin = disk.clone()
        disk.append("j", b"two")
        assert twin.read("j") == b"one"
        assert disk.read("j") == b"onetwo"

    def test_read_missing_raises(self):
        with pytest.raises(PersistError):
            MemoryDisk().read("nope")


class TestFileDisk:
    def test_roundtrip_on_real_files(self, tmp_path):
        disk = FileDisk(str(tmp_path / "ckpt"))
        disk.append(JOURNAL_NAME, b"aaa")
        disk.append(JOURNAL_NAME, b"bbb")
        disk.write_atomic("snap-00000000.ckpt", b"snap")
        assert disk.read(JOURNAL_NAME) == b"aaabbb"
        assert disk.listdir() == [JOURNAL_NAME, "snap-00000000.ckpt"]
        disk.truncate(JOURNAL_NAME, 3)
        assert disk.read(JOURNAL_NAME) == b"aaa"
        disk.delete("snap-00000000.ckpt")
        assert not disk.exists("snap-00000000.ckpt")

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        disk = FileDisk(str(tmp_path))
        disk.write_atomic("x", b"data")
        assert disk.listdir() == ["x"]


class TestJournalWriter:
    def test_sequences_are_stamped_monotonically(self):
        disk = MemoryDisk()
        writer = JournalWriter(disk, next_seq=10)
        assert writer.append("window", {"x": 1}) == 10
        assert writer.append("txn", {"y": 2}) == 11
        records, _, discarded = scan_journal(disk.read(JOURNAL_NAME))
        assert discarded == []
        assert [(r["t"], r["seq"]) for r in records] == [("window", 10), ("txn", 11)]
        assert writer.records_written == 2

    def test_gate_runs_before_the_write(self):
        calls = []

        def gate(name, data, mode):
            calls.append((name, len(data), mode))
            raise RuntimeError("gated")

        disk = MemoryDisk()
        writer = JournalWriter(disk, gate=gate)
        with pytest.raises(RuntimeError):
            writer.append("window", {"x": 1})
        assert calls and calls[0][0] == JOURNAL_NAME and calls[0][2] == "append"
        assert not disk.exists(JOURNAL_NAME)  # nothing landed

    def test_append_body_is_append_of_the_same_record(self):
        plain, encoded = MemoryDisk(), MemoryDisk()
        JournalWriter(plain, next_seq=7).append("txn", {"y": 2, "a": [1.5, None]})
        writer = JournalWriter(encoded, next_seq=7)
        assert writer.append_body(b'{"a":[1.5,null],"seq":7,"t":"txn","y":2}') == 7
        assert encoded.read(JOURNAL_NAME) == plain.read(JOURNAL_NAME)
        assert writer.next_seq == 8 and writer.records_written == 1


class TestChainedCrc:
    """The CRC is computed head-then-body without joining the two; the
    bytes on disk and every scan verdict are what the joined CRC gave."""

    def test_frame_is_the_crc_of_head_plus_body(self):
        import struct
        import zlib

        body = b'{"seq":0,"t":"window"}'
        data = encode_record({"t": "window", "seq": 0})
        assert data == frame_record(body)
        head = data[:8]
        assert struct.unpack_from("<I", data, 8)[0] == zlib.crc32(head + body)

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_scan_verdicts_unchanged(self, kind):
        payloads = [{"t": "window", "seq": i} for i in range(3)]
        data = b"".join(encode_record(p) for p in payloads) + b"\xba\xc0torn"
        records, valid_len, discarded = scan_journal(kind(data))
        assert records == payloads
        assert valid_len == len(data) - 6
        assert discarded == [f"torn header at offset {valid_len} (6 byte(s))"]
