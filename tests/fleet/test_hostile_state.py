"""Crafted input the fleet daemon accepts: frames, snapshots, journal records.

Every value here passed the transport's or the disk's CRC, so only the
trees can refuse it.  A frame that fails the envelope is nacked
``malformed``; a bad batch window or profile entry quarantines its
stream, the reason naming the field.  A snapshot body or journal record
that fails its tree stops :meth:`FleetDaemon.recover` with one
:class:`ProfileStateError` line naming file and path — never a
``TypeError``/``ValueError``/``KeyError``, never a daemon that loaded
garbage — and leaves the disk as it found it.
"""

from __future__ import annotations

import pytest

from repro.errors import ProfileStateError
from repro.fleet.daemon import FLEET_JOURNAL, FleetDaemon
from repro.fleet.wire import batch_frame, encode_frame, hello_frame, profile_frame
from repro.persist import MemoryDisk, SnapshotStore, decode_snapshot, encode_record

from .test_daemon import DECISIONS, DIGEST, KEY, _entry, _window

# -- frames ----------------------------------------------------------------

HELLO = hello_frame("i0", KEY, DIGEST)
BATCH = batch_frame("i0", 1, KEY, _window(0))
PROFILE = profile_frame("i0", 2, KEY, DIGEST, _entry(DECISIONS))


def _without(name: str, frame: dict) -> tuple[str, dict]:
    return f"{frame['k']}-without-{name}", {k: v for k, v in frame.items() if k != name}


def _with(frame: dict, **fields) -> tuple[str, dict]:
    label = ",".join(f"{k}={v!r}" for k, v in fields.items())
    return f"{frame['k']}-{label}", {**frame, **fields}


def _window_with(**fields) -> tuple[str, dict]:
    return _with(BATCH, window=dict(_window(0), **fields))


#: (label, frame) -> nack ``malformed``, one CRC/format reject, nothing kept
NACKED = [
    *(_without(name, frame) for frame in (HELLO, BATCH, PROFILE)
      for name in ("k", "i", "n", "key")),
    _with(BATCH, k="bogus"), _with(BATCH, k=3), _with(BATCH, i=3),
    _with(BATCH, n=-1), _with(BATCH, n=True), _with(BATCH, n=1.0), _with(BATCH, n="1"),
    _with(BATCH, key=None),
    _without("digest", HELLO), _with(HELLO, digest=""), _with(HELLO, digest=7),
    _without("digest", PROFILE), _with(PROFILE, digest=""),
]

#: (label, frame, reason) -> the stream is quarantined for ``reason``
QUARANTINED = [
    (*_without("window", BATCH), "type"),
    (*_with(BATCH, window=[0, 1000]), "type"),
    (*_window_with(samples=-1), "samples-range"),
    (*_window_with(samples="10"), "samples-range"),
    (*_window_with(cpi=float("inf")), "cpi-range"),
    (*_without("entry", PROFILE), "entry-type"),
    (*_with(PROFILE, entry=dict(_entry(), cpi_count=-1)), "entry-cpi_count-range"),
]

FRAMES = [
    *(pytest.param(frame, {"k": "nack", "reason": "malformed"}, 1, None, id=label)
      for label, frame in NACKED),
    *(pytest.param(frame, {"k": "ack", "status": "quarantined", "reason": reason}, 0,
                   reason, id=label)
      for label, frame, reason in QUARANTINED),
]


@pytest.mark.parametrize("frame, reply, rejects, reason", FRAMES)
def test_malformed_frame_reply_and_counters(frame, reply, rejects, reason):
    daemon = FleetDaemon()
    if frame.get("k") != "hello":
        daemon.handle(encode_frame(HELLO))
    before = daemon.canonical_state()
    assert daemon.handle(encode_frame(frame)) == reply
    assert (daemon.crc_rejects, daemon.batches_accepted, daemon.duplicates) == (rejects, 0, 0)
    if reason is None:
        assert daemon.canonical_state() == before
    else:
        assert daemon.quarantined == {"i0": reason}


# -- snapshots and journal records -----------------------------------------


@pytest.fixture
def store() -> MemoryDisk:
    """A real daemon's store: two hellos, three batches and a profile
    (the newest snapshot folds them all), then a quarantine record."""
    daemon = FleetDaemon(MemoryDisk(), snapshot_interval=2)
    for frame in (
        hello_frame("i0", KEY, DIGEST), hello_frame("i1", KEY, DIGEST),
        *(batch_frame("i0", seq, KEY, _window(seq)) for seq in (1, 2, 3)),
        profile_frame("i1", 1, KEY, DIGEST, _entry(DECISIONS)),
        batch_frame("i1", 2, KEY, dict(_window(0), samples=-1)),
    ):
        daemon.handle(encode_frame(frame))
    assert daemon.snapshots_written == 2 and daemon.quarantined == {"i1": "samples-range"}
    return daemon.disk


def _refused(disk: MemoryDisk, where: str) -> None:
    """Recovery fails with one line naming ``where``, the disk untouched."""
    files = {name: bytes(data) for name, data in disk.files.items()}
    with pytest.raises(ProfileStateError) as caught:
        FleetDaemon.recover(disk, snapshot_interval=2)
    line = str(caught.value)
    assert "\n" not in line and line.startswith(where), line
    assert {name: bytes(data) for name, data in disk.files.items()} == files


def _newest(disk: MemoryDisk) -> tuple[int, dict]:
    store = SnapshotStore(disk)
    version = store.versions()[-1]
    return version, decode_snapshot(disk.read(store.name_for(version)))


def _body(**fields):
    return lambda payload: {**payload, **fields}


def _nested(name: str, key: str, value):
    return lambda payload: {**payload, name: {**payload[name], key: value}}


def _first_entry(**fields):
    def damage(payload):
        entry = payload["store"][KEY]["i1"]
        return {**payload, "store": {KEY: {"i1": {**entry, **fields}}}}
    return damage


#: (damage to the snapshot body, path the error names)
SNAPSHOTS = [
    # the probes that used to raise TypeError/ValueError or load garbage
    (_body(instances=5), "instances"),
    (_body(store={"k": 3}), "store[k]"),
    (_body(windows={"a": {"1": 5}}), "windows[a][1]"),
    (_body(seen={"a": "x"}), "seen[a]"),
    (_body(windows={"a": {"z": [1]}}), "windows[a][z]"),
    # an integer key spelt two ways would collapse two windows into one
    (_body(windows={"a": {"01": [1000, 10, 0, 1.5]}}), "windows[a][01]"),
    (_body(windows={"a": {"1": [1000, 10, 0, 1.5], " 1": [2000, 10, 0, 1.5]}}),
     "windows[a][ 1]"),
    (_body(batches_accepted="lots"), "batches_accepted"),
    # one more per field of the tree
    (_body(batches_accepted=-1), "batches_accepted"),
    (_body(digests={KEY: {"i0": ""}}), f"digests[{KEY}][i0]"),
    (_body(digests=[]), "digests"),
    (_body(format="1"), "format"),
    (_body(instances=["i0", 7]), "instances[1]"),
    (_body(quarantined={"i0": None}), "quarantined[i0]"),
    (_body(quorum=None), "quorum"),
    (_nested("seen", "i0", {"w": -1, "r": []}), "seen[i0].w"),
    (_nested("seen", "i0", {"w": 2, "r": "3"}), "seen[i0].r"),
    (_nested("seen", "i0", {"w": 2, "r": [3, 1.5]}), "seen[i0].r[1]"),
    (_first_entry(cpi_count="1"), f"store[{KEY}][i1].cpi_count"),
    (_first_entry(decisions={"x": {}}), f"store[{KEY}][i1].decisions[x]"),
    (_nested("windows", "i0", {"1": [1000, 10, 0]}), "windows[i0][1]"),
    (_nested("windows", "i0", {"1": [1000, 10, 0, -2.0]}), "windows[i0][1][3]"),
]


@pytest.mark.parametrize("damage, path", SNAPSHOTS, ids=[p for _d, p in SNAPSHOTS])
def test_malformed_snapshot_body_stops_recovery(store, damage, path):
    version, payload = _newest(store)
    SnapshotStore(store).write(version, damage(payload))
    _refused(store, f"{SnapshotStore.name_for(version)}.{path}:")


@pytest.mark.parametrize("field", ["journal_bytes", "journal_seq"])
def test_malformed_snapshot_envelope_falls_back(store, field):
    """The envelope is the store's: a bad one is a corrupt snapshot and
    recovery falls back past it (the checkpoint store's rule)."""
    version, payload = _newest(store)
    SnapshotStore(store).write(version, {**payload, field: "x"})
    reborn = FleetDaemon.recover(store, snapshot_interval=2)
    assert reborn.recovered["discarded"] == [
        f"corrupt snapshot {SnapshotStore.name_for(version)}"
    ]


def _append(disk: MemoryDisk, record: dict) -> int:
    """Append ``record`` as the journal's next one; its ``seq``."""
    seq = FleetDaemon.recover(disk.clone()).journal.next_seq
    disk.append(FLEET_JOURNAL, encode_record({**record, "seq": seq}))
    return seq


#: (journal record, path under its ``fleet.wal[seq]`` the error names)
RECORDS = [
    ({"t": "fleet-hello", "i": "i2", "key": KEY}, "digest"),
    ({"t": "fleet-hello", "i": "i2", "key": 3, "digest": DIGEST}, "key"),
    ({"t": "fleet-batch", "i": "i0", "n": 9, "key": KEY}, "window"),
    ({"t": "fleet-batch", "i": "i0", "n": 9, "key": KEY,
      "window": dict(_window(9), retired="9")}, "window.retired"),
    ({"t": "fleet-batch", "i": "i0", "n": -9, "key": KEY, "window": _window(9)}, "n"),
    ({"t": "fleet-profile", "i": "i0", "n": 9, "key": KEY, "digest": DIGEST,
      "entry": _entry(runs=-1)}, "entry.runs"),
    ({"t": "fleet-profile", "i": None, "n": 9, "key": KEY, "digest": DIGEST,
      "entry": _entry()}, "i"),
    ({"t": "fleet-quarantine", "i": "i0"}, "reason"),
    ({"t": "fleet-bogus", "i": "i0"}, "t"),
    ({"i": "i0"}, "t"),
]


@pytest.mark.parametrize(
    "record, path", RECORDS, ids=[f"{r.get('t')}-{p}" for r, p in RECORDS]
)
def test_malformed_journal_record_stops_recovery(store, record, path):
    seq = _append(store, record)
    _refused(store, f"{FLEET_JOURNAL}[{seq}].{path}:")
