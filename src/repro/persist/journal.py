"""Write-ahead journal over an injectable disk.

The journal is the durability backbone of ``repro.persist``: an
append-only stream of length-prefixed, CRC-guarded records, fsync'd
record-by-record.  Three record types flow through it during a COBRA
run (profiler window merges, trace-cache deploy/rollback transactions,
optimizer decisions) plus a session ``meta`` record; recovery replays
the longest valid prefix and accounts every torn or corrupt byte after
it.

Record wire format (little-endian)::

    magic:u16  flags:u16  payload_len:u32  crc32:u32  payload bytes

``crc32`` covers the first 8 header bytes *and* the payload, so a
single flipped bit anywhere in a record — magic, flags, length, or
body — breaks the checksum (the classic WAL torn-write guard; cf.
perf-tools' durable counter records).  Payloads are canonical JSON
(sorted keys, no whitespace), which keeps encoding deterministic and
the format forward-compatible: readers ignore keys they do not know.

Durability is mediated by a :class:`Disk` so tests stay deterministic:
:class:`MemoryDisk` models a kernel page cache that can die mid-write
(crash injection leaves a torn prefix), :class:`FileDisk` is the real
fsync/rename-backed store for ``--checkpoint-dir``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from ..errors import PersistError

__all__ = [
    "Disk",
    "MemoryDisk",
    "FileDisk",
    "JournalWriter",
    "JOURNAL_NAME",
    "RECORD_MAGIC",
    "canonical_json",
    "decode_record",
    "encode_record",
    "folded_prefix",
    "frame_record",
    "scan_journal",
]

#: Journal file name inside a checkpoint directory / disk namespace.
JOURNAL_NAME = "journal.wal"

#: First header field of every journal record.
RECORD_MAGIC = 0xC0BA

_HEAD = struct.Struct("<HHI")     # magic, flags, payload_len
_CRC = struct.Struct("<I")
HEADER_BYTES = _HEAD.size + _CRC.size


#: The one canonical JSON text of a value (sorted keys, no whitespace):
#: journal records, wire frames and snapshot payloads are all this, and
#: the text of a nested value is a substring of its parent's.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _canonical(payload: dict) -> bytes:
    return canonical_json(payload).encode()


def frame_record(body: bytes) -> bytes:
    """Frame one already-encoded canonical-JSON record body."""
    head = _HEAD.pack(RECORD_MAGIC, 0, len(body))
    return head + _CRC.pack(zlib.crc32(body, zlib.crc32(head))) + body


def encode_record(payload: dict) -> bytes:
    """One framed journal record for ``payload`` (canonical JSON)."""
    return frame_record(_canonical(payload))


def _frame_end(data: bytes, offset: int) -> int | str:
    """End offset of the CRC-valid record framed at ``offset``, or a
    note on why there is none (torn header, bad magic, torn body, CRC)."""
    remaining = len(data) - offset
    if remaining < HEADER_BYTES:
        return f"torn header at offset {offset} ({remaining} byte(s))"
    magic, _flags, length = _HEAD.unpack_from(data, offset)
    if magic != RECORD_MAGIC:
        return f"bad magic {magic:#06x} at offset {offset}"
    (crc,) = _CRC.unpack_from(data, offset + _HEAD.size)
    body_start = offset + HEADER_BYTES
    if length > len(data) - body_start:
        return (
            f"torn record at offset {offset}: {length} byte payload, "
            f"{len(data) - body_start} on disk"
        )
    body = data[body_start : body_start + length]
    if crc != zlib.crc32(body, zlib.crc32(data[offset : offset + _HEAD.size])):
        return f"crc mismatch at offset {offset}"
    return body_start + length


def _decode_body(data: bytes, offset: int, end: int) -> dict | str:
    """The payload of the CRC-valid record at ``offset``, or a note."""
    try:
        payload = json.loads(data[offset + HEADER_BYTES : end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        # a crc collision would be required to reach this; account
        # it the same way rather than trusting the bytes
        return f"undecodable payload at offset {offset}"
    if not isinstance(payload, dict):
        return f"non-record payload at offset {offset}"
    return payload


def scan_journal(data: bytes, start: int = 0) -> tuple[list[dict], int, list[str]]:
    """Decode the longest valid record prefix of ``data[start:]``.

    Returns ``(records, valid_len, discarded)``: the decoded payloads,
    the byte length of the valid prefix (the journal repair point), and
    one human-readable note per discarded region; offsets count from
    the start of ``data``.  Scanning stops at the first bad record — in
    an append-only journal everything after a corruption is unordered
    noise, never silently decoded.
    """
    records: list[dict] = []
    offset = start
    while offset < len(data):
        end = _frame_end(data, offset)
        payload = end if isinstance(end, str) else _decode_body(data, offset, end)
        if isinstance(payload, str):
            return records, offset, [payload]
        records.append(payload)
        offset = end
    return records, offset, []


def folded_prefix(data: bytes, length: int, seq: int) -> int:
    """Where the tail after a snapshot starts: ``length`` when the first
    ``length`` bytes of ``data`` are whole CRC-valid records and the last
    of them carries ``seq``, else 0 (the whole journal is the tail).

    Only the boundary record is decoded; the records before it are
    checked, not read — the snapshot already folded them.
    """
    offset = last = 0
    while offset < length:
        end = _frame_end(data, offset)
        if isinstance(end, str):
            return 0
        last, offset = offset, end
    if offset != length or length == 0:
        return 0
    record = _decode_body(data, last, offset)
    return length if isinstance(record, dict) and record.get("seq") == seq else 0


def decode_record(data: bytes) -> dict | None:
    """The payload of ``data`` if it is exactly one valid record, else
    ``None`` (the fleet's wire frames)."""
    records, valid_len, _discarded = scan_journal(data)
    return records[0] if len(records) == 1 and valid_len == len(data) else None


# -- disks --------------------------------------------------------------------


class Disk:
    """Durable byte store interface (the injectable 'disk').

    Contract: :meth:`append` and :meth:`write_atomic` are durable when
    they return (append implies fsync; write_atomic implies
    write-temp + fsync + atomic rename).  :meth:`write` is a plain
    non-atomic create/overwrite — the crash injector uses it to leave
    torn temporaries behind, exactly like a real snapshot writer dying
    before its rename.
    """

    def append(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def write(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def write_atomic(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def read(self, name: str) -> bytes:
        raise NotImplementedError

    def exists(self, name: str) -> bool:
        raise NotImplementedError

    def listdir(self) -> list[str]:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def truncate(self, name: str, length: int) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        """The owning process died: ignore every later write.

        Host-side cleanup code keeps running after a simulated crash
        (``finally`` blocks); a dead process cannot reach the disk, so
        post-crash writes must not land.
        """
        raise NotImplementedError


class MemoryDisk(Disk):
    """Deterministic in-memory disk for tests and the crash sweeps."""

    def __init__(self) -> None:
        self.files: dict[str, bytearray] = {}
        self.dead = False
        #: durable operations performed (appends + atomic writes); the
        #: crash sweep enumerates its kill points over this count
        self.durable_ops = 0

    def append(self, name: str, data: bytes) -> None:
        if self.dead:
            return
        self.files.setdefault(name, bytearray()).extend(data)
        self.durable_ops += 1

    def write(self, name: str, data: bytes) -> None:
        if self.dead:
            return
        self.files[name] = bytearray(data)

    def write_atomic(self, name: str, data: bytes) -> None:
        if self.dead:
            return
        self.files[name] = bytearray(data)
        self.durable_ops += 1

    def read(self, name: str) -> bytes:
        try:
            return bytes(self.files[name])
        except KeyError:
            raise PersistError(f"no such file {name!r} on disk") from None

    def exists(self, name: str) -> bool:
        return name in self.files

    def listdir(self) -> list[str]:
        return sorted(self.files)

    def delete(self, name: str) -> None:
        self.files.pop(name, None)

    def truncate(self, name: str, length: int) -> None:
        if self.dead:
            return
        if name in self.files:
            del self.files[name][length:]

    def kill(self) -> None:
        self.dead = True

    def clone(self) -> "MemoryDisk":
        """Independent copy (the recovery harness resumes from copies)."""
        disk = MemoryDisk()
        disk.files = {name: bytearray(data) for name, data in self.files.items()}
        disk.durable_ops = self.durable_ops
        return disk


class FileDisk(Disk):
    """Checkpoint directory on the real filesystem (``--checkpoint-dir``)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.dead = False
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def append(self, name: str, data: bytes) -> None:
        if self.dead:
            return
        with open(self._path(name), "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())

    def write(self, name: str, data: bytes) -> None:
        if self.dead:
            return
        with open(self._path(name), "wb") as fh:
            fh.write(data)

    def write_atomic(self, name: str, data: bytes) -> None:
        if self.dead:
            return
        tmp = self._path(name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path(name))

    def read(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise PersistError(f"no such file {name!r} on disk") from None

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def listdir(self) -> list[str]:
        return sorted(os.listdir(self.root))

    def delete(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass

    def truncate(self, name: str, length: int) -> None:
        if self.dead:
            return
        if self.exists(name):
            os.truncate(self._path(name), length)

    def kill(self) -> None:
        self.dead = True


class JournalWriter:
    """Appends sequenced records to the journal, one fsync per record.

    ``gate`` (if given) is called with ``(name, encoded_bytes, "append")``
    before each durable write — the crash-injection hook.  ``length`` is
    the journal's byte length when the writer starts (after recovery:
    the repaired valid length); :attr:`length` then tracks the end of
    every record appended, for snapshots to record as ``journal_bytes``.
    """

    def __init__(
        self,
        disk: Disk,
        next_seq: int = 0,
        name: str = JOURNAL_NAME,
        gate=None,
        length: int = 0,
    ) -> None:
        self.disk = disk
        self.name = name
        self.next_seq = next_seq
        self.length = length
        self.records_written = 0
        self.gate = gate

    def append(self, kind: str, payload: dict) -> int:
        """Frame and durably append one record; return its sequence."""
        record = dict(payload)
        record["t"] = kind
        record["seq"] = self.next_seq
        return self.append_body(_canonical(record))

    def append_body(self, body: bytes) -> int:
        """Append a record whose canonical-JSON body the caller encoded
        itself (``"seq"`` must be :attr:`next_seq`); return its sequence."""
        seq = self.next_seq
        data = frame_record(body)
        if self.gate is not None:
            self.gate(self.name, data, "append")
        self.disk.append(self.name, data)
        self.next_seq = seq + 1
        self.length += len(data)
        self.records_written += 1
        return seq
