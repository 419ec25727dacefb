"""Cross-run profile database (BOLT-style profile reuse).

Every completed COBRA run knows things the *next* run of the same
binary will spend its whole cold ramp rediscovering: which loops are
hot, how much coherent traffic they generate, which rewrites proved out
and which were rolled back.  The profile database makes that knowledge
durable and shares it **across runs and machine configs**:

* entries are keyed by ``profile_key(image, machine_config, strategy)``
  — a digest of the binary image's canonical instruction stream
  combined with a machine descriptor (name, CPU count, node count,
  capacity scale) and the COBRA strategy.  A recompiled binary, a
  different machine, or a different strategy never reuses a foreign
  profile;
* an entry accumulates the profiler aggregates (miss profile, BTB
  pairs, bus/coherent deltas), steady-state CPI statistics, and
  per-loop proven/rolled-back decision counts.  :func:`merge_entries`
  is pure, commutative, and associative — entries recorded by any
  number of runs in any order merge to the same bytes;
* the store is one snapshot-codec file (CRC/sha-guarded, version-gated
  like every other ``repro.persist`` artifact) on an injectable
  :class:`~repro.persist.journal.Disk`.  Damage of any kind — bad
  magic, digest mismatch, a format version that postdates this reader,
  a non-object payload — makes the database load as *empty*, never
  crash: a profile DB is a pure accelerator, and the worst a corrupt
  one may do is cost the cold ramp again.

Determinism contract: with the database absent, freshly created, or
corrupt, a run's outputs and counters are bit-identical to a run with
no database at all (loading happens before the first instruction,
recording after the last).  A warm hit changes only *when* proven
optimizations deploy (immediately instead of after the profiling
ramp), never what the program computes.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

from ..core.opts import REWRITES
from ..core.policy import EVIDENCE
from ..core.profiler import (
    COUNT, INT, STATE, Leaf, Map, Maybe, Record, Row, Set, one_of,
)
from ..errors import ProfileStateError
from ..isa.binary import BinaryImage
from .journal import Disk, FileDisk
from .snapshot import decode_snapshot, encode_snapshot

__all__ = [
    "PROFILEDB_NAME",
    "PROFILEDB_FORMAT",
    "ProfileDB",
    "ProfileDBStats",
    "image_digest",
    "machine_descriptor",
    "profile_key",
    "merge_entries",
    "empty_entry",
    "entry_anomaly",
    "ENTRY",
]

#: Default file name inside the backing disk.
PROFILEDB_NAME = "profile.db"

#: Inner payload format version.  The outer snapshot codec already
#: gates its own layout; this gates the *entry schema*.  Readers treat
#: a payload whose format postdates this as absent (never mid-restore
#: crashes on fields they cannot interpret).
PROFILEDB_FORMAT = 1


# -- keying -------------------------------------------------------------------


def image_digest(image: BinaryImage) -> str:
    """Canonical digest of a binary image's instruction stream.

    Covers the base address and, per bundle in address order, the
    template and every instruction field — two images digest equal iff
    they decode identically, independent of patch history or the dict
    order bundles were inserted in.
    """
    h = hashlib.sha256()
    h.update(f"base={image.base:#x}".encode())
    for addr, bundle in image.iter_bundles():
        h.update(f"\n{addr:#x}:{bundle.template or '-'}".encode())
        for instr in bundle.slots:
            fields = "|".join(str(getattr(instr, s)) for s in instr.__slots__)
            h.update(f";{fields}".encode())
    return h.hexdigest()


def machine_descriptor(config) -> str:
    """Stable descriptor of the platform a profile was collected on."""
    return (
        f"{config.name}:cpus={config.n_cpus}"
        f":nodes={config.n_nodes}:scale={config.scale}"
    )


def profile_key(image: BinaryImage, machine_config, strategy: str) -> str:
    """Database key: binary identity x machine descriptor x strategy."""
    return f"{image_digest(image)[:16]}/{machine_descriptor(machine_config)}/{strategy}"


# -- entries ------------------------------------------------------------------


#: One profile-database entry: the profiler aggregates, steady-state CPI
#: statistics, per-loop decision evidence (loop head -> optimization ->
#: :data:`~repro.core.policy.EVIDENCE`) and the resident trace-tree
#: shapes.  Scalars merge by addition; an entry written before trace-
#: tree persistence has no ``jit_trees`` and loads as having none.
ENTRY = Record(
    runs=COUNT,
    profiler=Maybe(STATE),
    cpi_total=Leaf(
        lambda v: COUNT.legal(v) or (isinstance(v, float) and math.isfinite(v) and v >= 0),
        "a finite non-negative number", zero=0.0,
    ),
    cpi_count=COUNT,
    decisions=Map(int, Map(one_of(REWRITES).load, Record(**{
        name: Leaf(COUNT.legal, COUNT.what, combine) for name, combine in EVIDENCE.items()
    }))),
    flips=COUNT,
    jit_trees=Maybe(Set(Row(
        root=INT, head=INT, kind=one_of(("loop", "linear")), sor=COUNT,
    ))),
)


#: The store's payload: the entry schema's version and key -> entry (an
#: entry is loaded by :data:`ENTRY` only when a run is offered it).
STORE = Record(format=INT, entries=Map(str, Record()))


def empty_entry() -> dict:
    """A zero entry (the merge identity)."""
    return ENTRY.empty()


def entry_anomaly(entry: object) -> str | None:
    """Why ``entry`` is not a sound profile entry, or ``None``.

    The reason names the field: ``entry-`` + the record fields down to
    the problem + ``-range`` (a bad value) or ``-type`` (a wrong shape),
    e.g. ``entry-decisions-hotness-range``.  It is the fleet daemon's
    quarantine reason for a pushed entry; a run offered an unsound entry
    stays cold.
    """
    try:
        ENTRY.load(entry)
    except ProfileStateError as exc:
        return "-".join(["entry", *exc.fields, "range" if exc.leaf else "type"])
    return None


def merge_entries(a: dict, b: dict) -> dict:
    """Merge two entries for the same key.

    Pure and commutative/associative: counts and deltas add, line/thread
    and trace-tree sets union, decision evidence combines per
    ``(loop, optimization)``, quarantine counters reset (they are
    per-session noise) — so N runs folding into the database produce
    the same entry in any order, and two databases merged either way
    agree byte-for-byte.
    """
    return ENTRY.merge(a, b)


# -- the store ----------------------------------------------------------------


@dataclass
class ProfileDBStats:
    """What loading/saving the database observed."""

    #: the backing file existed at load time
    present: bool = False
    #: the file existed but failed the codec or schema checks
    corrupt: bool = False
    #: the payload's format version postdates this reader
    future_format: bool = False
    #: entries available after load
    entries: int = 0
    #: run records folded in by this process
    runs_recorded: int = 0
    #: the store was (re)written at close
    saved: bool = False


class ProfileDB:
    """One profile database file on an injectable disk."""

    def __init__(self, disk: Disk, name: str = PROFILEDB_NAME) -> None:
        self.disk = disk
        self.name = name
        self.entries: dict[str, dict] = {}
        self.stats = ProfileDBStats()

    @classmethod
    def from_config(cls, config) -> "ProfileDB":
        """Build from a :class:`~repro.config.ProfileDBConfig`."""
        if config.disk is not None:
            return cls(config.disk)
        directory, name = os.path.split(config.path)
        return cls(FileDisk(directory or "."), name=name or PROFILEDB_NAME)

    def load(self) -> None:
        """Read the store; any damage loads as empty, never raises."""
        self.entries = {}
        if not self.disk.exists(self.name):
            return
        self.stats.present = True
        try:
            payload = decode_snapshot(bytes(self.disk.read(self.name)))
            STORE.load(payload)
        except (ValueError, ProfileStateError):
            self.stats.corrupt = True
            return
        if payload["format"] > PROFILEDB_FORMAT:
            # written by a newer build: refuse up front instead of
            # crashing mid-restore on semantics this reader predates
            self.stats.future_format = True
            return
        self.entries = payload["entries"]
        self.stats.entries = len(self.entries)

    def entry(self, key: str) -> dict | None:
        return self.entries.get(key)

    def discard(self, key: str) -> None:
        """Drop one entry (e.g. it failed structural validation)."""
        self.entries.pop(key, None)

    def record_run(self, key: str, entry: dict) -> None:
        """Fold one completed run's entry into the database."""
        existing = self.entries.get(key)
        self.entries[key] = (
            entry if existing is None else merge_entries(existing, entry)
        )
        self.stats.runs_recorded += 1

    def compact(self, max_entries: int) -> int:
        """Drop the coldest entries until at most ``max_entries`` remain.

        Coldness is accumulated run count (``runs``), tie-broken by key
        — a pure function of store content, so any two replicas compact
        to the same surviving set.  Returns the number dropped.
        """
        if len(self.entries) <= max_entries:
            return 0
        order = sorted(
            self.entries, key=lambda k: (self.entries[k].get("runs", 0), k)
        )
        victims = order[: len(self.entries) - max_entries]
        for key in victims:
            del self.entries[key]
        self.stats.entries = len(self.entries)
        return len(victims)

    def save(self) -> None:
        """Write the store atomically (temp + rename via the disk)."""
        payload = {"format": PROFILEDB_FORMAT, "entries": self.entries}
        self.disk.write_atomic(self.name, encode_snapshot(payload))
        self.stats.saved = True
        self.stats.entries = len(self.entries)
