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

from ..core.policy import EVIDENCE
from ..core.profiler import COUNT, STATE, Leaf, Map, Record
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


#: An entry's scalars: name -> legal-value test.  Every one merges by
#: addition; ``profiler`` (a :data:`~repro.core.profiler.STATE` or
#: ``None``), ``decisions`` and ``jit_trees`` are the other three keys.
_SCALARS = {
    "runs": COUNT.legal,
    "cpi_total": lambda v: COUNT.legal(v)
    or (isinstance(v, float) and math.isfinite(v) and v >= 0),
    "cpi_count": COUNT.legal,
    "flips": COUNT.legal,
}

#: ``decisions``: loop head -> optimization -> evidence
_DECISIONS = Map(
    int,
    Map(str, Record(**{f: Leaf(COUNT.legal, COUNT.what, fn) for f, fn in EVIDENCE.items()})),
)


def empty_entry() -> dict:
    """A zero entry (the merge identity)."""
    return {
        "runs": 0,
        "profiler": None,
        "cpi_total": 0.0,
        "cpi_count": 0,
        "decisions": {},
        "flips": 0,
        "jit_trees": [],
    }


def entry_anomaly(entry: object) -> str | None:
    """Why ``entry`` is not a sound profile entry, or ``None``.

    The reason names the field.  It is the fleet daemon's quarantine
    reason for a pushed entry; a run offered an unsound entry stays
    cold.
    """
    if not isinstance(entry, dict):
        return "entry-type"
    for name, legal in _SCALARS.items():
        if not legal(entry.get(name)):
            return f"entry-{name}-range"
    decisions = entry.get("decisions")
    if not isinstance(decisions, dict) or not all(
        isinstance(head, str)
        and head.isdecimal()
        and isinstance(opts, dict)
        and all(isinstance(rec, dict) for rec in opts.values())
        for head, opts in decisions.items()
    ):
        return "entry-decisions-type"
    for field in EVIDENCE:
        for opts in decisions.values():
            if not all(COUNT.legal(rec.get(field)) for rec in opts.values()):
                return f"entry-decision-{field}-range"
    if entry.get("profiler") is not None:
        try:
            STATE.load(entry["profiler"], "state")
        except ProfileStateError as exc:
            return f"entry-profiler: {exc}"
    return None


def _merge_trees(a, b) -> list:
    # canonical sorted union of [root, head, kind, sor] shapes; shapes
    # may arrive as lists (JSON round-trip) or tuples (fresh export) —
    # normalize so merged output is byte-canonical either way
    shapes = {
        tuple(shape)
        for trees in (a, b)
        if isinstance(trees, (list, tuple))
        for shape in trees
        if isinstance(shape, (list, tuple)) and len(shape) == 4
    }
    return sorted(list(shape) for shape in shapes)


def merge_entries(a: dict, b: dict) -> dict:
    """Merge two entries for the same key.

    Pure and commutative/associative: counts and deltas add, line/thread
    sets union, decision evidence combines per ``(loop, optimization)``
    (:data:`~repro.core.policy.EVIDENCE`) — so N runs folding into the
    database produce the same entry in any order, and two databases
    merged either way agree byte-for-byte.
    """
    merged = {name: a[name] + b[name] for name in _SCALARS}
    pa, pb = a.get("profiler"), b.get("profiler")
    if pa is None or pb is None:
        merged["profiler"] = pb if pa is None else pa
    else:
        # quarantine counters are per-session noise, not profile signal;
        # a seeded run must start with a clean quarantine ledger
        merged["profiler"] = {
            **STATE.merge(pa, pb), "quarantined": {}, "quarantined_total": 0
        }
    merged["decisions"] = _DECISIONS.merge(a["decisions"], b["decisions"])
    # additive schema field: entries written before trace-tree
    # persistence merge as having no shapes
    merged["jit_trees"] = _merge_trees(a.get("jit_trees"), b.get("jit_trees"))
    return merged


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
        except ValueError:
            self.stats.corrupt = True
            return
        fmt = payload.get("format")
        if not isinstance(fmt, int):
            self.stats.corrupt = True
            return
        if fmt > PROFILEDB_FORMAT:
            # written by a newer build: refuse up front instead of
            # crashing mid-restore on semantics this reader predates
            self.stats.future_format = True
            return
        entries = payload.get("entries")
        if not isinstance(entries, dict) or not all(
            isinstance(e, dict) for e in entries.values()
        ):
            self.stats.corrupt = True
            return
        self.entries = entries
        self.stats.entries = len(entries)

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
