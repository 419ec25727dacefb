"""A reference recovery that decodes the whole journal.

This is the algorithm recovery used before snapshots recorded where
their journal prefix ends: load the newest snapshot that verifies,
decode every valid journal record, replay those after the snapshot's
``journal_seq``.  It shares no journal code with the product — the
record scan below is its own — so a test can hold the product's
tail-only recovery to it.  Snapshot blobs go through the codec
(``decode_snapshot``); the store's envelope rule (``journal_seq`` an int
>= -1, ``journal_bytes`` an int >= 0, bools refused) is restated here.
"""

from __future__ import annotations

import json
import re
import struct
import zlib

from repro.core.tracecache import Deployment
from repro.persist import JOURNAL_NAME, decode_snapshot, empty_state

_HEAD = struct.Struct("<HHII")  # magic, flags, payload_len, crc32
_SNAP = re.compile(r"^snap-(\d{8})\.ckpt$")


def scan(data: bytes) -> tuple[list[dict], int, list[str]]:
    """Every record of the longest valid prefix, the prefix's length, and
    one note for the region after it (the product's wording)."""
    records, offset = [], 0
    while offset < len(data):
        left = len(data) - offset
        if left < _HEAD.size:
            return records, offset, [f"torn header at offset {offset} ({left} byte(s))"]
        magic, _flags, length, crc = _HEAD.unpack_from(data, offset)
        if magic != 0xC0BA:
            return records, offset, [f"bad magic {magic:#06x} at offset {offset}"]
        body = data[offset + _HEAD.size : offset + _HEAD.size + length]
        if len(body) < length:
            return records, offset, [
                f"torn record at offset {offset}: {length} byte payload, "
                f"{len(body)} on disk"
            ]
        if zlib.crc32(data[offset : offset + 8] + body) != crc:
            return records, offset, [f"crc mismatch at offset {offset}"]
        try:
            payload = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, offset, [f"undecodable payload at offset {offset}"]
        if not isinstance(payload, dict):
            return records, offset, [f"non-record payload at offset {offset}"]
        records.append(payload)
        offset += _HEAD.size + length
    return records, offset, []


def _envelope_ok(payload: dict) -> bool:
    seq = payload.get("journal_seq", -1)
    size = payload.get("journal_bytes", 0)
    return type(seq) is int and seq >= -1 and type(size) is int and size >= 0


def read_store(disk, journal: str) -> dict:
    """The store's newest good snapshot, its every valid journal record,
    and what recovery reports about both."""
    versions = sorted(int(m.group(1)) for m in map(_SNAP.match, disk.listdir()) if m)
    snapshot, version, corrupt = None, -1, []
    for v in reversed(versions):
        name = f"snap-{v:08d}.ckpt"
        try:
            payload = decode_snapshot(disk.read(name))
        except ValueError:
            payload = None
        if payload is None or not _envelope_ok(payload):
            corrupt.insert(0, name)
            continue
        snapshot, version = payload, v
        break
    data = disk.read(journal) if disk.exists(journal) else b""
    records, valid, discarded = scan(data)
    folded = snapshot.get("journal_seq", -1) if snapshot is not None else -1
    return {
        "snapshot": snapshot,
        "folded": folded,
        "records": records,
        "tail": [r for r in records if r.get("seq", -1) > folded],
        "next_seq": max([folded, *(r.get("seq", -1) for r in records)]) + 1,
        "snapshot_version": version,
        "next_snapshot_version": versions[-1] + 1 if versions else 0,
        "discarded": discarded,
        "corrupt_snapshots": corrupt,
        "repair_length": valid if valid < len(data) else None,
    }


def recover(disk) -> dict:
    """:func:`read_store` of the checkpoint journal, plus the state and
    meta its records rebuild."""
    found = read_store(disk, JOURNAL_NAME)
    state = meta = None
    if found["snapshot"] is not None:
        state, meta = found["snapshot"].get("state"), found["snapshot"].get("meta")
    for record in found["records"]:
        if record.get("t") == "meta":
            meta = record.get("meta", meta)
    replayed = 0
    for record in found["tail"]:
        kind = record.get("t")
        if kind == "meta":
            continue
        replayed += 1
        if kind == "window":
            state = record.get("state", state)
        elif kind in ("txn", "decision"):
            if state is None:
                state = empty_state()
            try:
                if kind == "decision":
                    state.setdefault("events", []).append(record.get("event"))
                else:
                    head = record.get("head")
                    deployments = state.setdefault("deployments", [])
                    deployments[:] = [d for d in deployments if d["head"] != head]
                    if record.get("op") == "deploy":
                        deployments.append({f: record.get(f) for f in Deployment.RECORD.fields})
            except (AttributeError, KeyError, TypeError):
                pass
    return {**found, "state": state, "meta": meta, "replayed": replayed}
