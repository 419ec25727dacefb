"""Checksummed, versioned control-plane snapshots.

A snapshot compacts the journal: it captures the full recoverable
state (profiler aggregates, trace-cache deployments, optimizer
history) at a journal sequence point so recovery replays only the
tail.  Snapshots are written via write-temp-then-atomic-rename, so a
crash mid-write leaves either the previous snapshot intact plus a
stray ``.tmp``, or the new one — never a half-visible file under the
real name.

On-disk layout of ``snap-%08d.ckpt``::

    magic:b"CSNP"  format:u16  reserved:u16  payload_len:u32
    sha256:32 bytes  payload bytes

The digest covers header + payload, so corruption anywhere in the
file (including a tampered format version or length) is detected and
recovery falls back to the next-older snapshot.  ``format`` is the
forward-compatibility gate: readers refuse versions newer than
:data:`SNAPSHOT_FORMAT` (they cannot know the semantics) and fall
back, while older-but-supported versions decode normally.  Payloads
are canonical JSON; unknown keys are ignored on load.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass, field

from .journal import Disk, canonical_json

__all__ = [
    "SNAPSHOTS_KEPT",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_MAGIC",
    "SnapshotStore",
    "encode_snapshot",
    "frame_snapshot",
    "decode_snapshot",
]

SNAPSHOT_MAGIC = b"CSNP"
#: Current snapshot format version.  Bump on incompatible layout change.
SNAPSHOT_FORMAT = 1
#: Newest snapshots a store keeps when it prunes.
SNAPSHOTS_KEPT = 3

_HEAD = struct.Struct("<4sHHI")   # magic, format, reserved, payload_len
_DIGEST_BYTES = 32

_SNAP_RE = re.compile(r"^snap-(\d{8})\.ckpt$")


def frame_snapshot(body: bytes, fmt: int = SNAPSHOT_FORMAT) -> bytes:
    """Frame a payload the caller has already encoded as canonical JSON."""
    head = _HEAD.pack(SNAPSHOT_MAGIC, fmt, 0, len(body))
    digest = hashlib.sha256(head)
    digest.update(body)
    return b"".join((head, digest.digest(), body))


def encode_snapshot(payload: dict, fmt: int = SNAPSHOT_FORMAT) -> bytes:
    return frame_snapshot(canonical_json(payload).encode(), fmt)


def decode_snapshot(data: bytes) -> dict:
    """Decode one snapshot blob; raise ``ValueError`` on any damage.

    Callers (the store, recovery) treat a ``ValueError`` as "fall back
    to an older snapshot", never as fatal.
    """
    if len(data) < _HEAD.size + _DIGEST_BYTES:
        raise ValueError("snapshot shorter than header")
    magic, fmt, _reserved, length = _HEAD.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    digest = data[_HEAD.size : _HEAD.size + _DIGEST_BYTES]
    body = data[_HEAD.size + _DIGEST_BYTES :]
    if len(body) != length:
        raise ValueError(f"snapshot payload length {len(body)} != header {length}")
    want = hashlib.sha256(data[: _HEAD.size] + body).digest()
    if digest != want:
        raise ValueError("snapshot digest mismatch")
    if fmt > SNAPSHOT_FORMAT:
        # digest is fine but the layout postdates this reader; a newer
        # build wrote it — treat like corruption and fall back
        raise ValueError(f"snapshot format {fmt} newer than supported {SNAPSHOT_FORMAT}")
    payload = json.loads(body.decode())
    if not isinstance(payload, dict):
        raise ValueError("snapshot payload is not an object")
    return payload


@dataclass
class SnapshotLoad:
    """Result of :meth:`SnapshotStore.load_newest`."""

    payload: dict | None
    version: int
    #: snapshot files that failed verification, oldest-first
    corrupt: list[str] = field(default_factory=list)
    #: stray temp files from writes that died before their rename
    stray_tmp: list[str] = field(default_factory=list)


class SnapshotStore:
    """Versioned snapshot files on a :class:`Disk`."""

    def __init__(self, disk: Disk) -> None:
        self.disk = disk

    @staticmethod
    def name_for(version: int) -> str:
        return f"snap-{version:08d}.ckpt"

    def versions(self) -> list[int]:
        """All snapshot versions present, ascending."""
        out = []
        for name in self.disk.listdir():
            m = _SNAP_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def write(self, version: int, payload: dict) -> None:
        self.write_body(version, canonical_json(payload).encode())

    def write_body(self, version: int, body: bytes) -> None:
        """:meth:`write` for a payload already encoded as canonical JSON."""
        self.disk.write_atomic(self.name_for(version), frame_snapshot(body))

    def load_newest(self) -> SnapshotLoad:
        """Newest snapshot that verifies, falling back past corrupt ones."""
        stray = [n for n in self.disk.listdir() if n.endswith(".tmp")]
        corrupt: list[str] = []
        for version in reversed(self.versions()):
            name = self.name_for(version)
            try:
                payload = decode_snapshot(self.disk.read(name))
            except ValueError:
                corrupt.append(name)
                continue
            corrupt.reverse()
            return SnapshotLoad(payload, version, corrupt, stray)
        corrupt.reverse()
        return SnapshotLoad(None, -1, corrupt, stray)

    def prune(self, keep: int = SNAPSHOTS_KEPT) -> int:
        """Delete all but the newest ``keep`` snapshots; return count removed."""
        versions = self.versions()
        removed = 0
        for version in versions[:-keep] if keep else versions:
            self.disk.delete(self.name_for(version))
            removed += 1
        return removed
