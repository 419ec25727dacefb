"""Fleet wire format: one journal-codec record per frame.

The transport between a fleet agent and the daemon reuses the
write-ahead journal's framing (:mod:`repro.persist.journal`): magic,
flags, length, CRC-32 over header+payload, canonical-JSON body.  The
CRC is the transport's integrity check — a corrupted frame fails
:func:`decode_frame` at the daemon exactly like a torn journal record
fails recovery, and the sender retransmits.

Frame kinds (the ``"k"`` payload key):

``hello`` (agent → daemon)
    Registers instance ``i`` for profile key ``key`` with the full
    binary image digest ``digest`` (the consensus check input).  The
    daemon's reply carries the current quorum-published entry.

``batch`` (agent → daemon)
    One :class:`~repro.hpm.batch.WindowBatch` payload under ``window``,
    sequence-numbered by ``n``.  Idempotent: the daemon drops ``n``
    values it has already accepted, so duplicates and reorders are
    no-ops.

``profile`` (agent → daemon)
    The run's final mergeable profile entry (``entry``, the
    :func:`repro.persist.profiledb.merge_entries` operand) plus the
    image digest again, sequence-numbered like a batch.
"""

from __future__ import annotations

from ..persist.journal import encode_record, scan_journal

__all__ = [
    "FRAME_KINDS",
    "encode_frame",
    "decode_frame",
    "hello_frame",
    "batch_frame",
    "profile_frame",
]

FRAME_KINDS = ("hello", "batch", "profile")


def encode_frame(payload: dict) -> bytes:
    """Frame one wire payload (journal record framing, CRC-guarded)."""
    return encode_record(payload)


def decode_frame(data: bytes) -> dict | None:
    """Decode one frame; ``None`` if the CRC (or any framing) fails.

    A frame must be exactly one valid record — trailing bytes mean a
    truncated/concatenated transmission and are rejected wholesale.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    records, valid_len, _discarded = scan_journal(data)
    if len(records) != 1 or valid_len != len(data):
        return None
    return records[0]


def hello_frame(instance: str, key: str, digest: str) -> dict:
    return {"k": "hello", "i": instance, "n": 0, "key": key, "digest": digest}


def batch_frame(instance: str, seq: int, key: str, window: dict) -> dict:
    return {"k": "batch", "i": instance, "n": seq, "key": key, "window": window}


def profile_frame(
    instance: str, seq: int, key: str, digest: str, entry: dict
) -> dict:
    return {
        "k": "profile",
        "i": instance,
        "n": seq,
        "key": key,
        "digest": digest,
        "entry": entry,
    }
