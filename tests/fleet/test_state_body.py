"""The daemon's cached state body and published-entry memo change what
ingest costs, never what it writes: every snapshot, ``canonical_state()``
and published entry must equal a from-scratch rebuild, and the work per
frame must not grow with the fleet."""

from __future__ import annotations

import gc
import json
import weakref

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet.daemon import FleetDaemon
from repro.fleet.wire import batch_frame, encode_frame, hello_frame, profile_frame
from repro.persist.journal import MemoryDisk
from repro.persist.profiledb import empty_entry, merge_entries
from repro.persist.snapshot import SnapshotStore, encode_snapshot

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

KEY = "deadbeefdeadbeef/smp-4/adaptive"
INSTANCES = ["i0", "i1", "i10", "i2", 'q"é']
DIGESTS = ["a" * 16, "b" * 16]


def _entry(variant: int, cpi_total: float) -> dict:
    entry = empty_entry()
    entry["runs"] = 1 + variant
    entry["cpi_total"] = cpi_total
    entry["cpi_count"] = 1
    entry["decisions"] = {
        str(64 * (1 + variant % 2)): {
            "noprefetch": {
                "proven": 1 + variant % 3,
                "rolled_back": variant % 2,
                "back_branch": 96,
                "hotness": 12 + variant,
            }
        }
    }
    return entry


# -- the definitions the cached paths replaced, rebuilt from public state ----


def reference_payload(daemon: FleetDaemon) -> dict:
    return {
        "format": 1,
        "quorum": daemon.quorum,
        "instances": sorted(daemon.instances),
        "seen": {inst: s.to_payload() for inst, s in sorted(daemon.seen.items())},
        "windows": {
            inst: {str(w): list(c) for w, c in sorted(ws.items())}
            for inst, ws in sorted(daemon.windows.items())
        },
        "digests": {
            key: dict(sorted(slot.items()))
            for key, slot in sorted(daemon.digests.items())
        },
        "store": {
            key: dict(sorted(slot.items()))
            for key, slot in sorted(daemon.store.items())
        },
        "quarantined": dict(sorted(daemon.quarantined.items())),
        "batches_accepted": daemon.batches_accepted,
        "journal_bytes": daemon.journal.length,
        "journal_seq": daemon.journal.next_seq - 1,
    }


def reference_canonical(daemon: FleetDaemon) -> bytes:
    payload = reference_payload(daemon)
    del payload["journal_bytes"], payload["journal_seq"]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def reference_published(daemon: FleetDaemon, key: str) -> dict | None:
    per_instance = daemon.store.get(key, {})
    contributors = sorted(i for i in per_instance if i not in daemon.quarantined)
    if len(contributors) < daemon.quorum:
        return None
    merged = empty_entry()
    support: dict[tuple[str, str], set[str]] = {}
    for inst in contributors:
        merged = merge_entries(merged, per_instance[inst])
        for head, opts in per_instance[inst].get("decisions", {}).items():
            for opt, rec in opts.items():
                if rec["proven"] > rec["rolled_back"]:
                    support.setdefault((head, opt), set()).add(inst)
    decisions: dict[str, dict] = {}
    for head in sorted(merged["decisions"], key=int):
        opts = {
            opt: merged["decisions"][head][opt]
            for opt in sorted(merged["decisions"][head])
            if len(support.get((head, opt), ())) >= daemon.quorum
        }
        if opts:
            decisions[head] = opts
    merged["decisions"] = decisions
    return merged


def check_against_rebuild(daemon: FleetDaemon) -> None:
    assert daemon.canonical_state() == reference_canonical(daemon)
    want = reference_published(daemon, KEY)
    assert daemon.published_entry(KEY) == want
    assert daemon.published_count(KEY) == (
        0 if want is None else sum(len(o) for o in want["decisions"].values())
    )
    for inst, ws in daemon.windows.items():
        assert daemon._ordinals[inst] == sorted(ws)


# -- (a) any frame stream ---------------------------------------------------

instances = st.sampled_from(INSTANCES)
seqs = st.integers(1, 14)
actions = st.one_of(
    st.tuples(st.just("hello"), instances, st.sampled_from(DIGESTS)),
    st.tuples(
        st.just("batch"), instances, seqs,
        st.integers(0, 11),                 # ordinal ("10" sorts before "2")
        st.sampled_from([0, 0, 0, -1, 1]),  # retired jitter: sometimes time travel
        st.sampled_from([1.5, 1.5, 2.0]),   # cpi: sometimes a window conflict
    ),
    st.tuples(
        st.just("profile"), instances, seqs, st.sampled_from(DIGESTS),
        st.integers(0, 5), st.floats(0.1, 9.9),
    ),
    st.tuples(st.just("poison"), instances, seqs),
    st.tuples(st.just("again"), st.integers(0, 40)),
    st.tuples(st.just("recover")),
)


def _frame(action: tuple) -> bytes:
    kind = action[0]
    if kind == "hello":
        return encode_frame(hello_frame(action[1], KEY, action[2]))
    if kind == "batch":
        _, inst, seq, ordinal, jitter, cpi = action
        window = {
            "window": ordinal, "retired": 1000 * (ordinal + 1) + 1500 * jitter,
            "samples": 10, "quarantined": 0, "cpi": cpi,
        }
        return encode_frame(batch_frame(inst, seq, KEY, window))
    if kind == "profile":
        _, inst, seq, digest, variant, cpi_total = action
        return encode_frame(
            profile_frame(inst, seq, KEY, digest, _entry(variant, cpi_total))
        )
    _, inst, seq = action
    window = {"window": 0, "retired": 0, "samples": -1, "quarantined": 0, "cpi": 0.0}
    return encode_frame(batch_frame(inst, seq, KEY, window))


class TestBytesAreTheOldEncoders:
    @given(
        stream=st.lists(actions, max_size=40),
        quorum=st.integers(1, 3),
        interval=st.integers(1, 5),
        budget=st.sampled_from([None, 2]),
    )
    @settings(max_examples=150, **COMMON)
    def test_every_snapshot_and_canonical_state_equal_a_rebuild(
        self, stream, quorum, interval, budget
    ):
        config = dict(quorum=quorum, snapshot_interval=interval, window_budget=budget)
        daemon = FleetDaemon(MemoryDisk(), **config)
        sent: list[bytes] = []
        for action in stream:
            if action[0] == "recover":
                daemon = FleetDaemon.recover(daemon.disk, **config)
                check_against_rebuild(daemon)
                continue
            if action[0] == "again":
                if not sent:
                    continue
                data = sent[action[1] % len(sent)]
            else:
                data = _frame(action)
                sent.append(data)
            written = daemon.snapshots_written
            daemon.handle(data)
            if daemon.snapshots_written > written:
                name = SnapshotStore.name_for(daemon.batches_accepted)
                assert daemon.disk.read(name) == encode_snapshot(
                    reference_payload(daemon)
                )
            check_against_rebuild(daemon)

    def test_empty_daemon(self):
        check_against_rebuild(FleetDaemon(quorum=2))

    def test_shed_windows_leave_the_body(self):
        daemon = FleetDaemon(snapshot_interval=1, window_budget=2)
        for seq, ordinal in enumerate([3, 11, 2, 10, 0, 4], start=1):
            daemon.handle(_frame(("batch", "i0", seq, ordinal, 0, 1.5)))
            check_against_rebuild(daemon)
            name = SnapshotStore.name_for(daemon.batches_accepted)
            assert daemon.disk.read(name) == encode_snapshot(reference_payload(daemon))
        assert sorted(daemon.windows["i0"]) == [10, 11]


# -- (b) the memo is not handed out -------------------------------------------


def _clean_stream(instance: str, n_batches: int = 3) -> list[bytes]:
    frames = [hello_frame(instance, KEY, DIGESTS[0])]
    for i in range(n_batches):
        window = {
            "window": i, "retired": 1000 * (i + 1), "samples": 10,
            "quarantined": 0, "cpi": 1.5,
        }
        frames.append(batch_frame(instance, len(frames), KEY, window))
    frames.append(profile_frame(instance, len(frames), KEY, DIGESTS[0], _entry(0, 1.5)))
    return [encode_frame(f) for f in frames]


class TestPublishedMemo:
    def test_editing_a_published_entry_leaves_the_next_one_alone(self):
        daemon = FleetDaemon(quorum=2)
        for inst in ("i0", "i1"):
            for data in _clean_stream(inst):
                daemon.handle(data)
        first = daemon.published_entry(KEY)
        want = reference_published(daemon, KEY)
        first["runs"] = 99
        first["decisions"]["64"]["noprefetch"]["proven"] = 0
        first["decisions"]["zzz"] = {}
        assert daemon.published_entry(KEY) == want
        assert daemon.published_count(KEY) == 1
        reply = daemon.handle(_clean_stream("i2")[0])
        assert reply["entry"] == want
        reply["entry"]["decisions"].clear()
        assert daemon.published_entry(KEY) == want
        # and nothing reached the store the fold reads
        assert reference_published(daemon, KEY) == want

    def test_memo_dropped_by_profile_quarantine_and_recovery(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=2)
        for inst in ("i0", "i1"):
            for data in _clean_stream(inst):
                daemon.handle(data)
        assert daemon.published_count(KEY) == 1
        folds = daemon.cost.publish_folds
        assert daemon.published_entry(KEY)["runs"] == 2
        assert daemon.cost.publish_folds == folds  # served from the memo
        for data in _clean_stream("i2"):
            daemon.handle(data)
        assert daemon.published_entry(KEY)["runs"] == 3
        poison = {"window": 9, "retired": 0, "samples": -1, "quarantined": 0, "cpi": 0.0}
        daemon.handle(encode_frame(batch_frame("i2", 9, KEY, poison)))
        assert daemon.published_entry(KEY)["runs"] == 2
        recovered = FleetDaemon.recover(disk, quorum=2)
        assert recovered.published_entry(KEY) == daemon.published_entry(KEY)


# -- (c) work per frame does not grow with the fleet --------------------------


def _ingest_fleet(n: int) -> FleetDaemon:
    """``n`` instances, one whole stream after the other, then every
    hello once more (a fleet-wide reconnect)."""
    daemon = FleetDaemon(quorum=2)
    streams = [_clean_stream(f"n{i:03d}") for i in range(n)]
    for stream in streams:
        for data in stream:
            daemon.handle(data)
    for stream in streams:
        daemon.handle(stream[0])
    assert not daemon.quarantined and daemon.crc_rejects == 0
    return daemon


class TestCostDoesNotScaleWithTheFleet:
    def test_fragments_and_folds_per_frame_are_flat(self):
        small, large = _ingest_fleet(8), _ingest_fleet(64)
        for daemon, n in ((small, 8), (large, 64)):
            assert daemon.batches_accepted == 4 * n
            assert daemon.snapshots_written == n // 2
            # a hello folds only if a profile arrived since the last fold
            assert daemon.cost.publish_folds == n + 1
        per_frame = {
            d.cost.fragments_encoded / d.batches_accepted for d in (small, large)
        }
        # a snapshot covers two whole streams: per instance its seen-set,
        # three windows, the object holding them, and its entry
        assert per_frame == {2 * (1 + 3 + 1 + 1) / 8}
        # what the snapshots did not re-encode is what grows with the fleet
        reused = [d.cost.fragments_reused / d.snapshots_written for d in (small, large)]
        assert 4 * reused[0] < reused[1]

    def test_a_dropped_daemon_is_freed_without_the_collector(self):
        # the cache's encoders must not hold the daemon: a recovered
        # daemon carries every instance's entries, and one kept alive by
        # a reference cycle stays until the collector happens to run
        gc.disable()
        try:
            daemon = _ingest_fleet(8)
            recovered = FleetDaemon.recover(daemon.disk, quorum=2)
            recovered.canonical_state()
            refs = [weakref.ref(daemon), weakref.ref(recovered)]
            del daemon, recovered
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_interval_one_encodes_only_the_frame(self):
        daemon = FleetDaemon(quorum=1, snapshot_interval=1)
        for i in range(20):
            spent = []
            for data in _clean_stream(f"n{i:03d}"):
                before = daemon.cost.fragments_encoded
                daemon.handle(data)
                spent.append(daemon.cost.fragments_encoded - before)
            # hello, three batches, profile — whatever i is
            assert spent == [0, 3, 3, 3, 2]
