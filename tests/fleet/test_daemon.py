"""FleetDaemon: idempotent ingestion, defensive admission, quorum
publishing, and crash recovery."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet.daemon import FLEET_JOURNAL, FleetDaemon, SeenSet
from repro.fleet.wire import batch_frame, encode_frame, hello_frame, profile_frame
from repro.persist.journal import MemoryDisk
from repro.persist.profiledb import empty_entry

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

KEY = "deadbeefdeadbeef/smp-4/adaptive"
DIGEST = "a" * 16


def _window(ordinal: int) -> dict:
    return {
        "window": ordinal,
        "retired": 1000 * (ordinal + 1),
        "samples": 10,
        "quarantined": 0,
        "cpi": 1.5,
    }


def _entry(decisions: dict | None = None, runs: int = 1) -> dict:
    entry = empty_entry()
    entry["runs"] = runs
    entry["cpi_total"] = 1.5
    entry["cpi_count"] = 1
    if decisions is not None:
        entry["decisions"] = decisions
    return entry


DECISIONS = {
    "64": {
        "noprefetch": {
            "proven": 1, "rolled_back": 0, "back_branch": 96, "hotness": 12,
        }
    }
}


def _stream(instance: str, n_batches: int = 3, digest: str = DIGEST,
            decisions: dict | None = DECISIONS) -> list[bytes]:
    """One agent's full clean wire traffic."""
    frames = [hello_frame(instance, KEY, digest)]
    for i in range(n_batches):
        frames.append(batch_frame(instance, len(frames), KEY, _window(i)))
    frames.append(
        profile_frame(instance, len(frames), KEY, digest, _entry(decisions))
    )
    return [encode_frame(f) for f in frames]


class TestAdmission:
    def test_clean_stream_accepted(self):
        daemon = FleetDaemon()
        for data in _stream("i0"):
            daemon.handle(data)
        assert daemon.batches_accepted == 4  # 3 batches + 1 profile
        assert daemon.crc_rejects == 0
        assert not daemon.quarantined
        assert "i0" in daemon.instances

    def test_crc_damage_rejected(self):
        daemon = FleetDaemon()
        data = bytearray(_stream("i0")[1])
        data[len(data) // 2] ^= 0xFF
        reply = daemon.handle(bytes(data))
        assert reply == {"k": "nack", "reason": "crc"}
        assert daemon.crc_rejects == 1
        assert daemon.batches_accepted == 0

    def test_malformed_payload_rejected(self):
        daemon = FleetDaemon()
        reply = daemon.handle(encode_frame({"k": "batch", "i": 3, "n": "x"}))
        assert reply == {"k": "nack", "reason": "malformed"}
        assert daemon.crc_rejects == 1

    def test_duplicates_are_noops(self):
        daemon = FleetDaemon()
        stream = _stream("i0")
        for data in stream:
            daemon.handle(data)
        state = daemon.canonical_state()
        for data in stream:
            daemon.handle(data)
        assert daemon.canonical_state() == state
        assert daemon.duplicates == len(stream) - 1  # hello has no seq slot

    def test_hello_welcome_reply(self):
        daemon = FleetDaemon()
        reply = daemon.handle(_stream("i0")[0])
        assert reply["k"] == "welcome"
        assert reply["entry"] is None  # nothing published yet
        assert reply["instances"] == 1


class TestIdempotence:
    """Sequence-number dedup makes batch application idempotent under
    arbitrary duplication and reordering (the satellite property)."""

    @given(
        order=st.permutations(list(range(5))),
        dups=st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    )
    @settings(max_examples=60, **COMMON)
    def test_any_dup_reorder_interleaving_converges(self, order, dups):
        stream = _stream("i0", n_batches=3)  # hello + 3 batches + profile
        reference = FleetDaemon()
        for data in stream:
            reference.handle(data)

        daemon = FleetDaemon()
        daemon.handle(stream[0])  # hello registers the instance
        scrambled = [stream[i] for i in order] + [stream[i] for i in dups]
        for data in scrambled:
            daemon.handle(data)
        assert daemon.canonical_state() == reference.canonical_state()

    @given(
        interleave=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 4)), max_size=20
        )
    )
    @settings(max_examples=60, **COMMON)
    def test_two_instance_interleavings_converge(self, interleave):
        streams = {0: _stream("i0"), 1: _stream("i1")}
        reference = FleetDaemon()
        for inst in (0, 1):
            for data in streams[inst]:
                reference.handle(data)

        daemon = FleetDaemon()
        delivered = [(inst, idx) for inst, idx in interleave]
        # ensure full delivery happens at least once, in some order
        delivered += [(i, n) for i in (0, 1) for n in range(5)]
        for inst, idx in delivered:
            daemon.handle(streams[inst][idx])
        assert daemon.canonical_state() == reference.canonical_state()


class TestSanitizer:
    def test_negative_samples_quarantine(self):
        daemon = FleetDaemon()
        daemon.handle(_stream("i0")[0])
        bad = dict(_window(0), samples=-1)
        reply = daemon.handle(encode_frame(batch_frame("i0", 1, KEY, bad)))
        assert reply["status"] == "quarantined"
        assert daemon.quarantined["i0"] == "samples-range"

    def test_window_conflict_quarantines(self):
        daemon = FleetDaemon()
        daemon.handle(encode_frame(batch_frame("i0", 1, KEY, _window(0))))
        rewrite = dict(_window(0), cpi=9.9)
        reply = daemon.handle(encode_frame(batch_frame("i0", 2, KEY, rewrite)))
        assert daemon.quarantined["i0"] == "window-conflict"
        assert reply["status"] == "quarantined"

    def test_time_travel_quarantines(self):
        daemon = FleetDaemon()
        daemon.handle(encode_frame(batch_frame("i0", 1, KEY, _window(1))))
        backwards = dict(_window(0), retired=99_999)  # window 0 after window 1
        daemon.handle(encode_frame(batch_frame("i0", 2, KEY, backwards)))
        assert daemon.quarantined["i0"] == "time-travel"

    @given(
        stream=st.lists(
            st.tuples(
                st.integers(0, 9),                    # window ordinal
                st.sampled_from([0, 0, 0, 0, -15, 15]),  # retired jitter
                st.sampled_from([1.5, 1.5, 1.5, 2.5]),   # cpi (conflict bait)
            ),
            max_size=24,
        ),
        budget=st.sampled_from([None, 2, 3]),
    )
    @settings(max_examples=200, **COMMON)
    def test_neighbour_check_is_the_full_scan(self, stream, budget):
        """The time-travel check looks at two neighbours; the rule is
        'no accepted window disagrees'.  Same verdict, same reason, same
        retained windows at every step."""
        daemon = FleetDaemon(window_budget=budget)
        accepted: dict[int, tuple] = {}
        verdict = None
        for seq, (ordinal, jitter, cpi) in enumerate(stream, start=1):
            retired = max(0, 10 * ordinal + jitter)
            window = {"window": ordinal, "retired": retired, "samples": 10,
                      "quarantined": 0, "cpi": cpi}
            reply = daemon.handle(encode_frame(batch_frame("i0", seq, KEY, window)))
            content = (retired, 10, 0, cpi)
            if verdict is None:
                prior = accepted.get(ordinal)
                if prior is not None and prior != content:
                    verdict = "window-conflict"
                elif any(
                    (o < ordinal and c[0] > retired) or (o > ordinal and c[0] < retired)
                    for o, c in accepted.items()
                ):
                    verdict = "time-travel"
                else:
                    accepted[ordinal] = content
                    if budget is not None:
                        for shed in sorted(accepted)[: max(0, len(accepted) - budget)]:
                            del accepted[shed]
                want = {"k": "ack", "status": "ok"} if verdict is None else {
                    "k": "ack", "status": "quarantined", "reason": verdict}
            else:
                want = {"k": "ack", "status": "quarantined"}
            assert reply == want
            assert daemon.windows.get("i0", {}) == accepted
            assert daemon.quarantined == ({} if verdict is None else {"i0": verdict})

    def test_damaged_entry_quarantines(self):
        daemon = FleetDaemon()
        entry = _entry()
        entry["cpi_count"] = -1
        daemon.handle(encode_frame(profile_frame("i0", 0, KEY, DIGEST, entry)))
        assert daemon.quarantined["i0"] == "entry-cpi_count-range"

    def test_damaged_profiler_state_quarantines(self):
        daemon = FleetDaemon()
        entry = _entry()
        entry["profiler"] = {"not": "a profiler"}
        daemon.handle(encode_frame(profile_frame("i0", 0, KEY, DIGEST, entry)))
        assert daemon.quarantined["i0"].startswith("entry-profiler")

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda e: e.update(runs=1.5), "entry-runs-range"),
            (lambda e: e.update(cpi_total=float("inf")), "entry-cpi_total-range"),
            (lambda e: e.pop("flips"), "entry-flips-range"),
            (lambda e: e.update(decisions={"64": []}), "entry-decisions-type"),
            # a head that is not a decimal string would sink the publish fold
            (lambda e: e.update(decisions={"x64": {}}), "entry-decisions-type"),
            (
                lambda e: e.update(decisions={"64": {"excl": {**DECISIONS["64"]["noprefetch"], "hotness": -1}}}),
                "entry-decisions-hotness-range",
            ),
        ],
    )
    def test_entry_damage_table(self, damage, reason):
        daemon = FleetDaemon()
        entry = _entry(copy.deepcopy(DECISIONS))
        damage(entry)
        daemon.handle(encode_frame(profile_frame("i0", 0, KEY, DIGEST, entry)))
        assert daemon.quarantined["i0"] == reason
        assert daemon.published_entry(KEY) is None

    def test_quarantine_is_sticky(self):
        daemon = FleetDaemon()
        daemon.handle(_stream("i0")[0])
        bad = dict(_window(0), samples=-1)
        daemon.handle(encode_frame(batch_frame("i0", 1, KEY, bad)))
        # clean frames from the quarantined stream stay refused
        reply = daemon.handle(encode_frame(batch_frame("i0", 2, KEY, _window(1))))
        assert reply["status"] == "quarantined"
        assert daemon.batches_accepted == 0


class TestConsensus:
    def test_divergent_digest_quarantined_once_quorum_backed(self):
        daemon = FleetDaemon(quorum=2)
        daemon.handle(encode_frame(hello_frame("i0", KEY, "x" * 16)))
        # one lone voice is not a consensus yet
        assert not daemon.quarantined
        daemon.handle(encode_frame(hello_frame("i1", KEY, DIGEST)))
        assert not daemon.quarantined
        daemon.handle(encode_frame(hello_frame("i2", KEY, DIGEST)))
        assert daemon.quarantined == {
            "i0": "digest-divergence vs fleet consensus"
        }

    def test_tied_digests_quarantine_nobody(self):
        daemon = FleetDaemon(quorum=1)
        daemon.handle(encode_frame(hello_frame("i0", KEY, "x" * 16)))
        daemon.handle(encode_frame(hello_frame("i1", KEY, DIGEST)))
        assert not daemon.quarantined

    def test_late_quarantine_interleaved_with_digest_changes(self):
        other = "x" * 16
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=3)
        for inst, digest in (("i0", DIGEST), ("i1", DIGEST), ("i2", other), ("i3", other)):
            daemon.handle(encode_frame(hello_frame(inst, KEY, digest)))
        assert not daemon.quarantined  # two against two, quorum three
        # i3 is caught lying about a batch: its vote is withdrawn
        bad = dict(_window(0), samples=-1)
        daemon.handle(encode_frame(batch_frame("i3", 1, KEY, bad)))
        # a quarantined stream re-announcing itself counts for nothing:
        # still two for DIGEST, so still no quorum-backed consensus
        daemon.handle(encode_frame(hello_frame("i3", KEY, DIGEST)))
        assert daemon.quarantined == {"i3": "samples-range"}
        assert daemon.digests[KEY]["i3"] == DIGEST
        # the third honest vote makes the consensus; i2 diverges from it
        daemon.handle(encode_frame(hello_frame("i4", KEY, DIGEST)))
        assert list(daemon.quarantined) == ["i3", "i2"]
        # i4 changes its digest: the consensus loses its quorum, nobody
        # is judged; the next honest vote restores it and i4 diverges
        daemon.handle(encode_frame(hello_frame("i4", KEY, other)))
        assert list(daemon.quarantined) == ["i3", "i2"]
        daemon.handle(encode_frame(hello_frame("i5", KEY, DIGEST)))
        assert list(daemon.quarantined) == ["i3", "i2", "i4"]
        recovered = FleetDaemon.recover(disk, quorum=3)
        assert recovered.quarantined == daemon.quarantined
        assert recovered._tallies == daemon._tallies == {KEY: {DIGEST: 3}}

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["hello", "hello", "profile", "poison"]),
                st.sampled_from(["i0", "i1", "i2", "i3", "i4"]),
                st.sampled_from(["a" * 16, "b" * 16, "c" * 16]),
            ),
            max_size=30,
        ),
        quorum=st.integers(1, 3),
    )
    @settings(max_examples=150, **COMMON)
    def test_tallies_are_a_recount(self, steps, quorum):
        """Consensus by running tallies quarantines whom, and in the
        order, a recount of every digest on every note would."""
        daemon = FleetDaemon(quorum=quorum)
        digests: dict[str, str] = {}
        quarantined: list[str] = []
        for seq, (kind, inst, digest) in enumerate(steps, start=1):
            if kind == "poison":
                frame = batch_frame(inst, seq, KEY, dict(_window(0), samples=-1))
                if inst not in quarantined:
                    quarantined.append(inst)
            else:
                frame = (
                    hello_frame(inst, KEY, digest) if kind == "hello"
                    else profile_frame(inst, seq, KEY, digest, _entry())
                )
                if kind == "hello" or inst not in quarantined:
                    digests[inst] = digest
                    counts: dict[str, int] = {}
                    for i, d in digests.items():
                        if i not in quarantined:
                            counts[d] = counts.get(d, 0) + 1
                    best = max(counts.values(), default=0)
                    winners = [d for d, c in counts.items() if c == best]
                    if best >= quorum and len(winners) == 1:
                        quarantined.extend(
                            i for i in sorted(digests)
                            if i not in quarantined and digests[i] != winners[0]
                        )
            daemon.handle(encode_frame(frame))
            assert list(daemon.quarantined) == quarantined
            assert daemon.digests.get(KEY, {}) == digests


class TestQuorumPublishing:
    def test_below_quorum_publishes_nothing(self):
        daemon = FleetDaemon(quorum=2)
        for data in _stream("i0"):
            daemon.handle(data)
        assert daemon.published_entry(KEY) is None
        assert daemon.published_count(KEY) == 0

    def test_quorum_of_independent_instances_publishes(self):
        daemon = FleetDaemon(quorum=2)
        for inst in ("i0", "i1"):
            for data in _stream(inst):
                daemon.handle(data)
        entry = daemon.published_entry(KEY)
        assert entry is not None
        assert entry["runs"] == 2
        assert "64" in entry["decisions"]
        assert daemon.published_count(KEY) == 1

    def test_one_loud_instance_never_publishes_alone(self):
        daemon = FleetDaemon(quorum=2)
        # the same instance folds in many runs: still ONE contributor
        for data in _stream("i0", decisions=DECISIONS):
            daemon.handle(data)
        for i in range(3):
            daemon.handle(
                encode_frame(
                    profile_frame("i0", 10 + i, KEY, DIGEST, _entry(DECISIONS))
                )
            )
        assert daemon.published_entry(KEY) is None

    def test_unsupported_decisions_filtered(self):
        daemon = FleetDaemon(quorum=2)
        other = {
            "128": {
                "excl": {"proven": 1, "rolled_back": 0,
                         "back_branch": 160, "hotness": 3}
            }
        }
        for data in _stream("i0", decisions=DECISIONS):
            daemon.handle(data)
        for data in _stream("i1", decisions=other):
            daemon.handle(data)
        entry = daemon.published_entry(KEY)
        # two contributors, but no (loop, opt) pair has 2-instance support
        assert entry is not None and entry["decisions"] == {}

    def test_net_rolled_back_evidence_does_not_support(self):
        daemon = FleetDaemon(quorum=1)
        rolled = {
            "64": {
                "noprefetch": {"proven": 1, "rolled_back": 2,
                               "back_branch": 96, "hotness": 12}
            }
        }
        for data in _stream("i0", decisions=rolled):
            daemon.handle(data)
        assert daemon.published_entry(KEY)["decisions"] == {}

    def test_quarantined_instances_do_not_contribute(self):
        daemon = FleetDaemon(quorum=2)
        for inst in ("i0", "i1"):
            for data in _stream(inst):
                daemon.handle(data)
        assert daemon.published_count(KEY) == 1
        # i1 is caught lying afterwards: its evidence is withdrawn
        bad = dict(_window(7), samples=-1)
        daemon.handle(encode_frame(batch_frame("i1", 9, KEY, bad)))
        assert daemon.published_entry(KEY) is None


class TestRecovery:
    def _fill(self, daemon: FleetDaemon, instances=("i0", "i1")) -> None:
        for inst in instances:
            for data in _stream(inst):
                daemon.handle(data)

    def test_recover_equals_uncrashed(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=2, snapshot_interval=3)
        self._fill(daemon)
        state = daemon.canonical_state()
        recovered = FleetDaemon.recover(disk, quorum=2, snapshot_interval=3)
        assert recovered.canonical_state() == state
        assert recovered.recovered["replayed"] >= 0
        assert recovered.published_count(KEY) == 1

    def test_torn_journal_tail_truncated(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=2, snapshot_interval=3)
        self._fill(daemon)
        state = daemon.canonical_state()
        disk.append(FLEET_JOURNAL, b"\xba\xc0torn tail")
        recovered = FleetDaemon.recover(disk, quorum=2, snapshot_interval=3)
        assert recovered.canonical_state() == state
        assert recovered.recovered["discarded"]

    def test_resumes_mid_fleet(self):
        # crash after i0, recover, ingest i1: must equal the uncrashed
        # daemon that saw both streams
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=2, snapshot_interval=2)
        self._fill(daemon, instances=("i0",))
        disk.append(FLEET_JOURNAL, b"half a record")
        recovered = FleetDaemon.recover(disk, quorum=2, snapshot_interval=2)
        self._fill(recovered, instances=("i1",))

        reference = FleetDaemon(MemoryDisk(), quorum=2, snapshot_interval=2)
        self._fill(reference)
        assert recovered.canonical_state() == reference.canonical_state()
        assert recovered.published_count(KEY) == 1

    def test_retransmits_after_recovery_dedup(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=1, snapshot_interval=2)
        self._fill(daemon, instances=("i0",))
        recovered = FleetDaemon.recover(disk, quorum=1, snapshot_interval=2)
        state = recovered.canonical_state()
        self._fill(recovered, instances=("i0",))  # full retransmit
        assert recovered.canonical_state() == state

    def test_recovery_deletes_stray_snapshot_temps(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=1, snapshot_interval=2)
        self._fill(daemon, instances=("i0",))
        disk.write("snap-00000009.ckpt.tmp", b"died before rename")
        first = FleetDaemon.recover(disk, snapshot_interval=2)
        assert first.recovered["discarded"] == [
            "stray snapshot temp snap-00000009.ckpt.tmp"
        ]
        assert not disk.exists("snap-00000009.ckpt.tmp")
        second = FleetDaemon.recover(disk, snapshot_interval=2)
        assert second.recovered["discarded"] == []
        assert second.canonical_state() == daemon.canonical_state()

    def test_quarantine_survives_recovery(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, quorum=1)
        daemon.handle(_stream("i0")[0])
        bad = dict(_window(0), samples=-1)
        daemon.handle(encode_frame(batch_frame("i0", 1, KEY, bad)))
        recovered = FleetDaemon.recover(disk, quorum=1)
        assert recovered.quarantined == {"i0": "samples-range"}
        reply = recovered.handle(
            encode_frame(batch_frame("i0", 2, KEY, _window(1)))
        )
        assert reply["status"] == "quarantined"


class TestValidation:
    def test_bad_quorum(self):
        with pytest.raises(ValueError, match="quorum"):
            FleetDaemon(quorum=0)

    def test_bad_snapshot_interval(self):
        with pytest.raises(ValueError, match="snapshot_interval"):
            FleetDaemon(snapshot_interval=0)

    def test_bad_window_budget(self):
        with pytest.raises(ValueError, match="window_budget"):
            FleetDaemon(window_budget=0)


class TestSeenSet:
    def test_in_order_stream_compacts_to_the_watermark(self):
        # real traffic: hello owns seq 0 (stateless), batches start at 1
        seen = SeenSet()
        for seq in range(1, 1001):
            seen.add(seq)
        assert seen.watermark == 1001
        assert seen.residue == set()
        assert 1000 in seen and 1001 not in seen

    def test_out_of_order_residue_drains_when_the_gap_fills(self):
        seen = SeenSet()
        for seq in (1, 3, 4, 6):
            seen.add(seq)
        assert seen.watermark == 2 and seen.residue == {3, 4, 6}
        seen.add(2)
        assert seen.watermark == 5 and seen.residue == {6}
        seen.add(5)
        assert seen.watermark == 7 and seen.residue == set()

    @given(
        seqs=st.lists(st.integers(min_value=1, max_value=200), max_size=120)
    )
    @settings(**COMMON)
    def test_membership_matches_a_plain_set_and_payload_is_canonical(
        self, seqs
    ):
        seen = SeenSet()
        reference: set[int] = set()
        for seq in seqs:
            seen.add(seq)
            reference.add(seq)
        assert {s for s in range(210) if s in seen} == reference
        assert len(seen) == len(reference)
        # the payload is a canonical function of the *set*: reordering
        # arrival must not change the bytes
        shuffled = SeenSet()
        for seq in sorted(seqs, reverse=True):
            shuffled.add(seq)
        assert shuffled.to_payload() == seen.to_payload()

    def test_legacy_list_payload_restores_identically(self):
        seen = SeenSet()
        for seq in (1, 2, 3, 7, 9):
            seen.add(seq)
        legacy = SeenSet.from_payload([1, 2, 3, 7, 9])
        assert legacy.to_payload() == seen.to_payload() == {"w": 4, "r": [7, 9]}

    def test_daemon_dedup_state_stays_bounded_over_a_long_run(self):
        daemon = FleetDaemon()
        daemon.handle(_stream("i0")[0])   # hello
        for i in range(500):
            daemon.handle(
                encode_frame(batch_frame("i0", i + 1, KEY, _window(i)))
            )
        seen = daemon.seen["i0"]
        # in-order traffic compacts to a pure watermark: O(1) dedup
        # state where the old plain set held one int per frame forever
        assert seen.watermark == 501
        assert seen.residue == set()
        payload = json.loads(daemon.canonical_state())["seen"]["i0"]
        assert payload == {"w": 501, "r": []}

    def test_compacted_seen_survives_recovery(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, snapshot_interval=3)
        for data in _stream("i0", n_batches=6):
            daemon.handle(data)
        recovered = FleetDaemon.recover(disk, snapshot_interval=3)
        assert recovered.canonical_state() == daemon.canonical_state()
        assert recovered.seen["i0"].to_payload() == (
            daemon.seen["i0"].to_payload()
        )


class TestWindowBudget:
    def test_oldest_windows_shed_at_the_budget(self):
        daemon = FleetDaemon(window_budget=3)
        daemon.handle(_stream("i0")[0])
        for i in range(8):
            daemon.handle(
                encode_frame(batch_frame("i0", i + 1, KEY, _window(i)))
            )
        assert sorted(daemon.windows["i0"]) == [5, 6, 7]
        # shed windows stay deduped: their sequence numbers were kept
        assert daemon.batches_accepted == 8
        reply = daemon.handle(
            encode_frame(batch_frame("i0", 1, KEY, _window(0)))
        )
        assert reply["status"] == "dup"

    def test_bounded_daemons_converge_regardless_of_arrival_order(self):
        ordinals = [0, 5, 2, 7, 1, 6, 3, 4]
        daemons = []
        for order in (ordinals, sorted(ordinals), sorted(ordinals, reverse=True)):
            daemon = FleetDaemon(window_budget=3)
            daemon.handle(_stream("i0")[0])
            for i in order:
                daemon.handle(
                    encode_frame(batch_frame("i0", i + 1, KEY, _window(i)))
                )
            daemons.append(daemon)
        states = {d.canonical_state() for d in daemons}
        assert len(states) == 1
        assert sorted(daemons[0].windows["i0"]) == [5, 6, 7]

    def test_budget_threads_through_recovery(self):
        disk = MemoryDisk()
        daemon = FleetDaemon(disk, window_budget=2, snapshot_interval=100)
        daemon.handle(_stream("i0")[0])
        for i in range(5):
            daemon.handle(
                encode_frame(batch_frame("i0", i + 1, KEY, _window(i)))
            )
        recovered = FleetDaemon.recover(disk, window_budget=2)
        assert recovered.canonical_state() == daemon.canonical_state()
        assert sorted(recovered.windows["i0"]) == [3, 4]
