"""The fleet optimization daemon.

One daemon serves a fleet of agent instances running the same binary
image (the BOLT data-center model): it ingests their telemetry frames,
folds their end-of-run profile entries into a shared store keyed by
binary digest × machine descriptor × strategy (the profile-database
key), and publishes patch decisions back — but only once a configurable
**quorum** of independent, non-quarantined instances has reported
net-proven evidence for the same ``(loop, optimization)`` pair.

Defensive admission, in order, for every frame:

1. **CRC** — a frame that fails the journal-codec framing is rejected
   outright (the transport retransmits);
2. **quarantine** — frames from a quarantined instance are refused;
3. **sequence dedup** — a per-instance seen-set makes duplicated and
   reordered frames no-ops (idempotent ingestion);
4. **sanitizer** — window batches pass the same field-level range
   checks the profiler applies to raw samples
   (:meth:`repro.hpm.batch.WindowBatch.anomaly`), plus stream checks:
   two batches claiming the same window ordinal with different content
   (``window-conflict``) or a retired count that runs backwards
   (``time-travel``) quarantine the stream; profile entries are
   loaded by the entry tree (:data:`repro.persist.profiledb.ENTRY`),
   the embedded profiler state included;
5. **consensus** — an instance whose image digest diverges from a
   quorum-backed consensus for the same key is quarantined (a poisoned
   or mismatched binary must never steer fleet-wide patches).

Durability reuses :mod:`repro.persist` wholesale: every accepted frame
is journaled (CRC-framed WAL, own ``fleet.wal`` namespace), state is
periodically snapshotted through the checksummed snapshot codec, and
:meth:`FleetDaemon.recover` rebuilds a crashed daemon from newest valid
snapshot + journal tail — retransmits of already-accepted batches then
dedup against the recovered seen-sets, so a crash mid-fleet is
invisible to agents beyond latency.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from collections import Counter
from types import SimpleNamespace

from ..persist.journal import Disk, JournalWriter, MemoryDisk, canonical_json as _dumps
from ..persist.profiledb import empty_entry, entry_anomaly, merge_entries
from ..persist.recover import read_store, repair
from ..persist.snapshot import SnapshotStore
from .wire import decode_frame

__all__ = ["FLEET_JOURNAL", "FleetDaemon", "SeenSet"]

#: Journal file name inside the daemon's disk namespace (kept distinct
#: from the per-run checkpoint journal so one disk can host both).
FLEET_JOURNAL = "fleet.wal"


class _Members:
    """One JSON object of the state body, held as encoded members.

    ``encode(name)`` gives the canonical JSON of a member's current
    value.  It runs only for members touched since the last
    :meth:`text`, and the joined text is kept until the next touch, so
    a snapshot pays for what changed since the one before it.  Work is
    booked on ``cost`` (the daemon's :attr:`FleetDaemon.cost`); neither
    that nor ``encode`` may refer to the daemon, which would otherwise
    sit in a reference cycle and outlive its last user until a GC pass.
    """

    __slots__ = ("cost", "encode", "members", "dirty", "joined")

    def __init__(self, cost: SimpleNamespace, encode, names=()) -> None:
        self.cost = cost
        self.encode = encode
        self.members: dict[str, str] = {}
        #: touched names -> the new value's text, if the toucher had it
        self.dirty: dict[str, str | None] = dict.fromkeys(names)
        self.joined: str | None = None

    def touch(self, name: str, text: str | None = None) -> None:
        """``name``'s value changed (to what ``text`` encodes, if given)."""
        self.dirty[name] = text

    def drop(self, name: str) -> None:
        self.dirty.pop(name, None)
        if self.members.pop(name, None) is not None:
            self.joined = None

    def text(self) -> str:
        members = self.members
        if self.dirty or self.joined is None:
            for name, text in self.dirty.items():
                if text is None:
                    text = self.encode(name)
                members[name] = f"{_dumps(name)}:{text}"
            self.cost.fragments_encoded += len(self.dirty)
            self.cost.fragments_reused += len(members) - len(self.dirty)
            self.dirty.clear()
            self.joined = "{%s}" % ",".join(map(members.__getitem__, sorted(members)))
        else:
            self.cost.fragments_reused += len(members)
        return self.joined


class SeenSet:
    """Per-instance dedup set, compacted to a contiguous prefix.

    Accepted sequence numbers are dense per instance in the normal case
    (the outbox numbers frames 0..N, where seq 0 is the hello — which
    is stateless and never enters the dedup set), so a plain set of
    every integer ever accepted grows without bound for the life of the
    daemon.  This keeps the same membership semantics in
    O(out-of-order residue) space: ``watermark`` asserts every seq in
    ``[1, watermark)`` was seen, and ``residue`` holds the sparse
    out-of-order arrivals at or above it.  Adding the watermark itself
    drains any now-contiguous residue, so an instance whose frames all
    eventually arrive compacts to an empty residue regardless of
    delivery order.

    The (watermark, residue) pair is a canonical function of the seen
    *set* — independent of arrival order — which keeps snapshot bytes
    and :meth:`FleetDaemon.canonical_state` convergent.
    """

    __slots__ = ("watermark", "residue")

    def __init__(self, watermark: int = 1, residue=()) -> None:
        self.watermark = watermark
        self.residue: set[int] = set(residue)

    def __contains__(self, seq: int) -> bool:
        return 1 <= seq < self.watermark or seq in self.residue

    def __len__(self) -> int:
        return (self.watermark - 1) + len(self.residue)

    def add(self, seq: int) -> None:
        if seq in self:
            return
        if seq == self.watermark:
            self.watermark += 1
            while self.watermark in self.residue:
                self.residue.discard(self.watermark)
                self.watermark += 1
        else:
            self.residue.add(seq)

    def to_payload(self) -> dict:
        return {"w": self.watermark, "r": sorted(self.residue)}

    @classmethod
    def from_payload(cls, payload) -> "SeenSet":
        """Restore from a snapshot payload.

        Accepts the compact ``{"w": ..., "r": [...]}`` form and, for
        snapshots written before compaction existed, a plain list of
        sequence numbers (replayed through :meth:`add` so the restored
        set is identically compacted).
        """
        if isinstance(payload, dict):
            return cls(payload.get("w", 1), payload.get("r", ()))
        seen = cls()
        for seq in sorted(payload):
            seen.add(seq)
        return seen


class FleetDaemon:
    """Central optimizer service for a fleet of agent instances."""

    def __init__(
        self,
        disk: Disk | None = None,
        quorum: int = 1,
        snapshot_interval: int = 8,
        window_budget: int | None = None,
    ) -> None:
        if quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        if snapshot_interval < 1:
            raise ValueError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        if window_budget is not None and window_budget < 1:
            raise ValueError(f"window_budget must be >= 1, got {window_budget}")
        self.disk = disk if disk is not None else MemoryDisk()
        self.quorum = quorum
        self.snapshot_interval = snapshot_interval
        #: per-instance cap on retained window batches; the oldest
        #: ordinals are shed after each accept (top-K of a set is
        #: canonical, so bounded daemons stay convergent)
        self.window_budget = window_budget
        #: registered instances (hello received)
        self.instances: set[str] = set()
        #: per-instance accepted frame sequence numbers (the dedup set,
        #: compacted to watermark + out-of-order residue)
        self.seen: dict[str, SeenSet] = {}
        #: per-instance accepted window batches: ordinal -> content tuple
        self.windows: dict[str, dict[int, tuple]] = {}
        #: per-key, per-instance image digests (consensus input)
        self.digests: dict[str, dict[str, str]] = {}
        #: per-key, per-instance merged profile entries
        self.store: dict[str, dict[str, dict]] = {}
        #: quarantined instances: instance -> first reason
        self.quarantined: dict[str, str] = {}
        self.batches_accepted = 0
        self.crc_rejects = 0
        self.duplicates = 0
        self.snapshots_written = 0
        #: recovery stats when built via :meth:`recover`
        self.recovered: dict | None = None
        self.journal = JournalWriter(self.disk, name=FLEET_JOURNAL)
        self._snapshots = SnapshotStore(self.disk)
        #: work counters (deterministic, in no report): state-body
        #: members encoded / taken from the cache, published-entry folds
        self.cost = SimpleNamespace(
            fragments_encoded=0, fragments_reused=0, publish_folds=0
        )
        #: per-instance sorted window ordinals, kept beside ``windows``
        self._ordinals: dict[str, list[int]] = {}
        #: per-key digest -> number of non-quarantined instances holding it
        self._tallies: dict[str, Counter] = {}
        #: per-key (published entry, decision count), until the key's
        #: store or the quarantine set changes
        self._published: dict[str, tuple[dict | None, int]] = {}
        self._reset_body_cache()

    # -- frame ingestion ---------------------------------------------------

    def handle(self, data: bytes) -> dict:
        """Ingest one wire frame; return the reply payload."""
        frame = decode_frame(data)
        if frame is None:
            self.crc_rejects += 1
            return {"k": "nack", "reason": "crc"}
        kind = frame.get("k")
        instance = frame.get("i")
        seq = frame.get("n")
        key = frame.get("key")
        if (
            kind not in ("hello", "batch", "profile")
            or not isinstance(instance, str)
            or not isinstance(seq, int)
            or isinstance(seq, bool)
            or seq < 0
            or not isinstance(key, str)
        ):
            self.crc_rejects += 1
            return {"k": "nack", "reason": "malformed"}
        if kind == "hello":
            return self._handle_hello(frame, instance, key)
        if instance in self.quarantined:
            return {"k": "ack", "status": "quarantined"}
        if seq in self.seen.get(instance, ()):
            self.duplicates += 1
            return {"k": "ack", "status": "dup"}
        if kind == "batch":
            return self._handle_batch(frame, instance, seq, key)
        return self._handle_profile(frame, instance, seq, key)

    def _handle_hello(self, frame: dict, instance: str, key: str) -> dict:
        digest = frame.get("digest")
        if not isinstance(digest, str) or not digest:
            self.crc_rejects += 1
            return {"k": "nack", "reason": "malformed"}
        fresh = instance not in self.instances
        changed = self.digests.get(key, {}).get(instance) != digest
        self._register(instance)
        self._note_digest(key, instance, digest)
        if fresh or changed:
            self.journal.append(
                "fleet-hello", {"i": instance, "key": key, "digest": digest}
            )
        return {
            "k": "welcome",
            "entry": self.published_entry(key),
            "published": self.published_count(key),
            "quarantined": len(self.quarantined),
            "instances": len(self.instances),
        }

    def _handle_batch(self, frame: dict, instance: str, seq: int, key: str) -> dict:
        from ..hpm.batch import WindowBatch

        try:
            batch = WindowBatch.from_payload(frame.get("window"))
        except ValueError as exc:
            return self._quarantine(instance, f"batch-damage: {exc}")
        reason = batch.anomaly()
        if reason is not None:
            return self._quarantine(instance, reason)
        content = (batch.retired, batch.samples, batch.quarantined, batch.cpi)
        accepted = self.windows.get(instance, {})
        ordinals = self._ordinals.get(instance, [])
        prior = accepted.get(batch.window)
        if prior is None:
            # retired counts only ever rise with the ordinal in the
            # accepted map (a violator is quarantined, never inserted),
            # so the two neighbours stand for every other window
            at = bisect_left(ordinals, batch.window)
            if (at and accepted[ordinals[at - 1]][0] > batch.retired) or (
                at < len(ordinals) and accepted[ordinals[at]][0] < batch.retired
            ):
                return self._quarantine(instance, "time-travel")
            self._insert_window(instance, batch.window, content)
        elif prior != content:
            # a second, different batch for the same window ordinal:
            # the stream is rewriting history (cf. stale-index)
            return self._quarantine(instance, "window-conflict")
        self._mark_seen(instance, seq)
        self.journal.append(
            "fleet-batch",
            {"i": instance, "n": seq, "key": key, "window": batch.to_payload()},
        )
        self._accepted_one()
        return {"k": "ack", "status": "ok"}

    def _handle_profile(self, frame: dict, instance: str, seq: int, key: str) -> dict:
        entry = frame.get("entry")
        reason = entry_anomaly(entry)
        if reason is not None:
            return self._quarantine(instance, reason)
        digest = frame.get("digest")
        if not isinstance(digest, str) or not digest:
            self.crc_rejects += 1
            return {"k": "nack", "reason": "malformed"}
        self._note_digest(key, instance, digest)
        if instance in self.quarantined:
            # the digest note just quarantined this very stream
            return {"k": "ack", "status": "quarantined"}
        # encoded once: the journal record and, for an instance's first
        # profile, the store member of the state body share this text
        text = _dumps(entry)
        self._fold_profile(key, instance, entry, text)
        self._mark_seen(instance, seq)
        self.journal.append_body(
            (
                f'{{"digest":{_dumps(digest)},"entry":{text},"i":{_dumps(instance)},'
                f'"key":{_dumps(key)},"n":{seq},"seq":{self.journal.next_seq},'
                '"t":"fleet-profile"}'
            ).encode()
        )
        self._accepted_one()
        return {"k": "ack", "status": "ok"}

    # -- defensive admission helpers ---------------------------------------

    def _insert_window(self, instance: str, ordinal: int, content: tuple) -> None:
        """Insert an accepted window under a new ordinal, then enforce
        ``window_budget`` by dropping the oldest ordinals.

        Shedding after every accept keeps the retained dict equal to the
        top-K ordinals of everything accepted so far, whatever order the
        frames arrived in — dedup still holds because the *sequence*
        numbers stay in the seen-set even after their windows are shed.
        """
        accepted = self.windows.setdefault(instance, {})
        ordinals = self._ordinals.setdefault(instance, [])
        members = self._window_members.get(instance)
        if members is None:
            members = self._window_members[instance] = self._batch_members(accepted)
        insort(ordinals, ordinal)
        accepted[ordinal] = content
        members.touch(str(ordinal))
        if self.window_budget is not None:
            excess = len(ordinals) - self.window_budget
            if excess > 0:
                for shed in ordinals[:excess]:
                    del accepted[shed]
                    members.drop(str(shed))
                del ordinals[:excess]
        self._windows_body.touch(instance)

    def _mark_seen(self, instance: str, seq: int) -> None:
        self.seen.setdefault(instance, SeenSet()).add(seq)
        self._seen_body.touch(instance)

    def _register(self, instance: str) -> None:
        if instance not in self.instances:
            self.instances.add(instance)
            self._body_parts.pop("instances", None)

    def _fold_profile(
        self, key: str, instance: str, entry: dict, text: str | None = None
    ) -> None:
        """Fold an accepted entry (and its canonical JSON ``text``, if
        the caller has it) into the store."""
        slot = self.store.setdefault(key, {})
        members = self._store_members.get(key)
        if members is None:
            members = self._store_members[key] = self._entry_members(slot)
        existing = slot.get(instance)
        if existing is None:
            slot[instance] = entry
            members.touch(instance, text)
        else:
            slot[instance] = merge_entries(existing, entry)
            members.touch(instance)
        self._published.pop(key, None)

    def _quarantine(self, instance: str, reason: str) -> dict:
        if instance not in self.quarantined:
            self._mark_quarantined(instance, reason)
            self.journal.append(
                "fleet-quarantine", {"i": instance, "reason": reason}
            )
        return {"k": "ack", "status": "quarantined", "reason": reason}

    def _mark_quarantined(self, instance: str, reason: str) -> None:
        self.quarantined[instance] = reason
        self._body_parts.pop("quarantined", None)
        self._published.clear()
        for key, slot in self.digests.items():
            if instance in slot:
                self._untally(key, slot[instance])

    def _untally(self, key: str, digest: str) -> None:
        tally = self._tallies[key]
        tally[digest] -= 1
        if not tally[digest]:
            del tally[digest]

    def _set_digest(self, key: str, instance: str, digest: str) -> None:
        slot = self.digests.setdefault(key, {})
        old = slot.get(instance)
        if old == digest:
            return
        slot[instance] = digest
        self._body_parts.pop("digests", None)
        if instance not in self.quarantined:
            if old is not None:
                self._untally(key, old)
            self._tallies.setdefault(key, Counter())[digest] += 1

    def _note_digest(self, key: str, instance: str, digest: str) -> None:
        self._set_digest(key, instance, digest)
        counts = self._tallies.get(key)
        if not counts or len(counts) == 1:
            # nobody (not quarantined) holds a second digest to diverge by
            return
        best = max(counts.values())
        winners = [d for d, c in counts.items() if c == best]
        if best < self.quorum or len(winners) != 1:
            # no digest commands a strict, quorum-backed majority yet
            return
        consensus = winners[0]
        slot = self.digests[key]
        for inst in sorted(slot):
            if inst not in self.quarantined and slot[inst] != consensus:
                self._quarantine(inst, "digest-divergence vs fleet consensus")

    # -- decision publishing -----------------------------------------------

    def published_entry(self, key: str) -> dict | None:
        """The quorum-gated entry pushed to agents of ``key``.

        ``None`` until a quorum of independent, non-quarantined
        instances has contributed profiles.  Decisions are filtered to
        those with net-proven evidence from at least ``quorum``
        *distinct* instances — one loud instance, however many runs it
        folds in, never publishes alone.
        """
        # a copy: the caller may edit what it gets, the memo stays
        return copy.deepcopy(self._publish(key)[0])

    def published_count(self, key: str) -> int:
        """Quorum-published (loop, optimization) decisions for ``key``."""
        return self._publish(key)[1]

    def _publish(self, key: str) -> tuple[dict | None, int]:
        memo = self._published.get(key)
        if memo is None:
            entry = self._fold_published(key)
            self.cost.publish_folds += 1
            count = 0
            if entry is not None:
                count = sum(len(opts) for opts in entry["decisions"].values())
            memo = self._published[key] = (entry, count)
        return memo

    def _fold_published(self, key: str) -> dict | None:
        per_instance = self.store.get(key, {})
        contributors = sorted(
            inst for inst in per_instance if inst not in self.quarantined
        )
        if len(contributors) < self.quorum:
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
                if len(support.get((head, opt), ())) >= self.quorum
            }
            if opts:
                decisions[head] = opts
        merged["decisions"] = decisions
        return merged

    # -- durability ----------------------------------------------------------

    def _accepted_one(self) -> None:
        self.batches_accepted += 1
        if self.batches_accepted % self.snapshot_interval == 0:
            self._snapshots.write_body(self.batches_accepted, self._state_body(True))
            self._snapshots.prune()
            self.snapshots_written += 1

    def _reset_body_cache(self) -> None:
        """Forget every encoded piece of the state body (state replaced)."""
        seen = self.seen
        self._seen_body = _Members(
            self.cost, lambda inst: _dumps(seen[inst].to_payload()), seen
        )
        #: per instance, one member per accepted window (JSON sorts the
        #: ``str(ordinal)`` keys as strings, and so does ``_Members``)
        window_members = self._window_members = {
            inst: self._batch_members(ws) for inst, ws in self.windows.items()
        }
        self._windows_body = _Members(
            self.cost, lambda inst: window_members[inst].text(), window_members
        )
        self._store_members = {
            key: self._entry_members(slot) for key, slot in self.store.items()
        }
        #: encoded "instances" / "digests" / "quarantined" values, each
        #: dropped by the code that changes what it encodes
        self._body_parts: dict[str, str] = {}

    def _batch_members(self, accepted: dict[int, tuple]) -> _Members:
        return _Members(
            self.cost, lambda w: _dumps(list(accepted[int(w)])), map(str, accepted)
        )

    def _entry_members(self, slot: dict[str, dict]) -> _Members:
        return _Members(self.cost, lambda inst: _dumps(slot[inst]), slot)

    def _state_body(self, journal_seq: bool) -> bytes:
        """The state as canonical JSON, assembled from cached pieces.

        Byte for byte ``json.dumps(payload, sort_keys=True,
        separators=(",", ":"))`` of the payload dict (format 1: the
        keys below, ``windows`` keyed by ``str(ordinal)``): every piece
        is that encoder's text for one value, and pieces are joined
        under their sorted keys.  ``journal_seq`` is the one volatile
        key; :meth:`canonical_state` leaves it out.
        """
        parts = self._body_parts
        if "instances" not in parts:
            parts["instances"] = _dumps(sorted(self.instances))
        if "digests" not in parts:
            parts["digests"] = _dumps(self.digests)
        if "quarantined" not in parts:
            parts["quarantined"] = _dumps(self.quarantined)
        store = ",".join(
            f"{_dumps(key)}:{self._store_members[key].text()}"
            for key in sorted(self._store_members)
        )
        # the last record the snapshot folds, as a checkpoint store writes it
        seq = f'"journal_seq":{self.journal.next_seq - 1},' if journal_seq else ""
        return "".join((
            f'{{"batches_accepted":{self.batches_accepted},"digests":',
            parts["digests"],
            ',"format":1,"instances":',
            parts["instances"],
            f',{seq}"quarantined":',
            parts["quarantined"],
            f',"quorum":{_dumps(self.quorum)},"seen":',
            self._seen_body.text(),
            ',"store":{',
            store,
            '},"windows":',
            self._windows_body.text(),
            "}",
        )).encode()

    def canonical_state(self) -> bytes:
        """Canonical bytes of the convergent daemon state.

        Excludes volatile counters (duplicate/reject tallies, journal
        position): two daemons that ingested the same frames — in any
        order, with any duplication — must agree on these bytes.
        """
        return self._state_body(False)

    def _restore(self, payload: dict) -> None:
        self.instances = set(payload.get("instances", []))
        self.seen = {
            inst: SeenSet.from_payload(seqs)
            for inst, seqs in payload.get("seen", {}).items()
        }
        self.windows = {
            inst: {int(w): tuple(c) for w, c in ws.items()}
            for inst, ws in payload.get("windows", {}).items()
        }
        self.digests = {
            key: dict(slot) for key, slot in payload.get("digests", {}).items()
        }
        self.store = {
            key: dict(slot) for key, slot in payload.get("store", {}).items()
        }
        self.quarantined = dict(payload.get("quarantined", {}))
        self.batches_accepted = payload.get("batches_accepted", 0)
        self._ordinals = {inst: sorted(ws) for inst, ws in self.windows.items()}
        self._tallies = {
            key: Counter(
                d for inst, d in slot.items() if inst not in self.quarantined
            )
            for key, slot in self.digests.items()
        }
        self._published.clear()
        self._reset_body_cache()

    def _replay(self, record: dict) -> None:
        """Re-apply one journal record (already validated at accept time)."""
        kind = record.get("t")
        if kind == "fleet-hello":
            self._register(record["i"])
            self._set_digest(record["key"], record["i"], record["digest"])
        elif kind == "fleet-batch":
            from ..hpm.batch import WindowBatch

            batch = WindowBatch.from_payload(record["window"])
            instance = record["i"]
            if batch.window not in self.windows.get(instance, ()):
                self._insert_window(
                    instance,
                    batch.window,
                    (batch.retired, batch.samples, batch.quarantined, batch.cpi),
                )
            self._mark_seen(instance, record["n"])
            self.batches_accepted += 1
        elif kind == "fleet-profile":
            self._fold_profile(record["key"], record["i"], record["entry"])
            self._set_digest(record["key"], record["i"], record["digest"])
            self._mark_seen(record["i"], record["n"])
            self.batches_accepted += 1
        elif kind == "fleet-quarantine":
            if record["i"] not in self.quarantined:
                self._mark_quarantined(record["i"], record["reason"])

    @classmethod
    def recover(cls, disk: Disk, **options) -> "FleetDaemon":
        """Rebuild a daemon from its journal + snapshot store; ``options``
        are the constructor's (``quorum``, ``snapshot_interval``, ...).

        :mod:`repro.persist.recover`'s procedure: newest valid snapshot
        first (falling back past corrupt ones), then the journal tail is
        replayed; a torn final record is truncated away and stray
        snapshot temps are deleted, each reported in
        ``recovered["discarded"]`` — whatever frame a torn record held
        was never acked, so its agent will retransmit and dedup keeps
        the replay exact.
        """
        daemon = cls(disk=disk, **options)
        found = read_store(disk, FLEET_JOURNAL)
        repair(disk, found)
        if found.snapshot is not None:
            daemon._restore(found.snapshot)
        tail = found.tail()
        for record in tail:
            daemon._replay(record)
        daemon.journal = JournalWriter(disk, next_seq=found.next_seq, name=FLEET_JOURNAL)
        daemon.recovered = {
            "snapshot_version": found.snapshot_version,
            "replayed": len(tail),
            "discarded": [
                *(f"corrupt snapshot {name}" for name in found.corrupt_snapshots),
                *(f"stray snapshot temp {name}" for name in found.stray_tmp),
                *found.discarded,
            ],
        }
        return daemon
