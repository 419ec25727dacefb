"""System-wide profile aggregation (paper §3.2, §4).

The profiler merges the User Sampling Buffers of all monitoring threads
into

* a system-wide *coherent-access ratio* — the sum of coherent bus
  events divided by all bus transactions, computed from the sampled
  counter deltas ("If we divide the sum of coherent bus events by the
  total number of bus transactions, we could estimate the ratio of
  coherent memory accesses", §4);
* a latency-filtered miss profile per instruction (``MissProfile``);
* a branch-trace history per thread for loop discovery.

Decisions are taken on profiles "collected from multiple threads to
determine if a system-wide optimization is warranted" (§1) — a single
thread's noisy view never triggers a rewrite by itself.

Samples are *untrusted input*: a real perfmon path can deliver torn,
overwritten, or reordered records (USB overflow, signal races), and the
fault injector (:mod:`repro.faults`) provokes exactly that.  Every
sample is sanitized before it touches a profile; garbage is quarantined
(counted per reason, never folded in), so one corrupted record can
perturb at most the sampling density, never the decision inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..config import CobraConfig
from ..errors import ProfileStateError
from ..hpm.counters import COUNTER_MASK
from ..hpm.sample import Sample
from .filters import MissProfile, MissStats
from .monitor import MonitoringThread

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = ["SystemProfiler", "STATE", "COUNT", "Leaf", "Record", "Map"]


# -- the persisted shape ------------------------------------------------------
#
# A profile leaves the process as JSON (checkpoint windows, profile-
# database entries, fleet frames) and comes back as untrusted input.  Its
# shape is written once, as a tree of the node kinds below, and every
# keeper walks that tree: ``load`` validates a JSON value and returns its
# live form (raising :class:`~repro.errors.ProfileStateError` naming the
# path of the first problem); ``merge`` folds two valid JSON values into
# one, in canonical order (the profile database).


def _fail(path: str, message: str) -> ProfileStateError:
    return ProfileStateError(message, path=path)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Leaf:
    """A scalar: ``legal(value)`` is the whole check."""

    legal: Callable[[object], bool]
    what: str  # completes "expected ..."
    merge: Callable = operator.add

    def load(self, value: object, path: str) -> object:
        if not self.legal(value):
            raise _fail(path, f"expected {self.what}, got {value!r}")
        return value


INT = Leaf(_is_int, "an integer")
COUNT = Leaf(lambda v: _is_int(v) and v >= 0, "a non-negative integer")
#: bus/coherent deltas decay by a float factor each window, so an
#: exported snapshot legitimately holds either type
NUM = Leaf(lambda v: _is_int(v) or isinstance(v, float), "a number")


class IntSet:
    """A sorted JSON list of integers; live form ``set``, merge = union."""

    def load(self, value: object, path: str) -> set[int]:
        if not isinstance(value, list):
            raise _fail(path, f"expected a list, got {type(value).__name__}")
        return {INT.load(v, f"{path}[{i}]") for i, v in enumerate(value)}

    def merge(self, a: list, b: list) -> list:
        return sorted({*a, *b})


class Record:
    """A JSON object with exactly these fields, in this order."""

    def __init__(self, **fields) -> None:
        self.fields = fields

    def load(self, value: object, path: str) -> dict:
        if not isinstance(value, dict):
            raise _fail(path, f"expected an object, got {type(value).__name__}")
        live = {}
        for name, node in self.fields.items():
            if name not in value:
                raise _fail(f"{path}.{name}", "missing key")
            # fields of the state itself are named bare: "btb[0]"
            where = name if path == "state" else f"{path}.{name}"
            live[name] = node.load(value[name], where)
        return live

    def merge(self, a: dict, b: dict) -> dict:
        return {name: node.merge(a[name], b[name]) for name, node in self.fields.items()}


class Map:
    """A JSON object whose keys parse with ``key`` and sort by it."""

    def __init__(self, key: Callable, item, what: str = "") -> None:
        self.key, self.item, self.what = key, item, what

    def load(self, value: object, path: str) -> dict:
        if not isinstance(value, dict):
            raise _fail(path, "expected an object")
        live = {}
        for raw, item in value.items():
            where = f"{path}[{raw}]"
            try:
                key = self.key(raw)
            except (TypeError, ValueError):
                raise _fail(where, f"non-integer {self.what} key {raw!r}") from None
            live[key] = self.item.load(item, where)
        return live

    def merge(self, a: dict, b: dict) -> dict:
        # an item only one side holds is that side's, as it stands
        return {
            key: self.item.merge(a[key], b[key]) if key in a and key in b
            else a.get(key, b.get(key))
            for key in sorted({*a, *b}, key=self.key)
        }


class Counts:
    """A JSON list of ``[*key, count]`` integer rows; live ``{key: count}``."""

    def __init__(self, *columns: str) -> None:
        self.columns = columns

    def load(self, value: object, path: str) -> dict:
        if not isinstance(value, list):
            raise _fail(path, "expected a list")
        live = {}
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != len(self.columns):
                raise _fail(
                    f"{path}[{i}]",
                    f"expected [{', '.join(self.columns)}], got {row!r}",
                )
            *key, count = (INT.load(v, f"{path}[{i}][{j}]") for j, v in enumerate(row))
            live[tuple(key)] = count
        return live

    def merge(self, a: list, b: list) -> list:
        total: dict[tuple, int] = {}
        for *key, count in (*a, *b):
            total[tuple(key)] = total.get(tuple(key), 0) + count
        return [[*key, count] for key, count in sorted(total.items())]


#: One miss site (the fields of :class:`~repro.core.filters.MissStats`).
MISS = Record(
    samples=INT, coherent=INT, total_latency=INT, lines=IntSet(), threads=IntSet()
)

#: :meth:`SystemProfiler.export_state`'s output.  Only aggregates: the
#: per-perfmon-session ordering state (``_last_meta``/``_last_counters``)
#: is left out — sample indices and PMD snapshots restart with each
#: process, so that state is meaningless across a restart.
STATE = Record(
    misses=Record(by_pc=Map(int, MISS, "pc"), total_events=INT, total_coherent=INT),
    btb=Counts("branch", "target", "count"),
    samples_seen=INT,
    quarantined=Map(str, INT),
    quarantined_total=INT,
    bus_delta=NUM,
    coherent_delta=NUM,
)


class SystemProfiler:
    """Aggregates profiles across all monitoring threads."""

    def __init__(self, config: CobraConfig, faults: "FaultInjector | None" = None) -> None:
        self.config = config
        self.faults = faults
        self.misses = MissProfile(config)
        self.btb_pairs: dict[tuple[int, int], int] = {}
        self.samples_seen = 0
        #: quarantine counters: sanitizer reason -> rejected sample count
        self.quarantined: dict[str, int] = {}
        self.quarantined_total = 0
        # last counter snapshot per thread: (bus_memory, hit, hitm, inval)
        self._last_counters: dict[int, tuple[int, int, int, int]] = {}
        # last accepted (index, cycles) per thread, for ordering checks
        self._last_meta: dict[int, tuple[int, int]] = {}
        self._bus_delta = 0
        self._coherent_delta = 0

    # -- ingestion ------------------------------------------------------------

    def ingest(self, monitors: list[MonitoringThread]) -> int:
        """Drain all USBs; return the number of samples folded in."""
        n = 0
        for monitor in monitors:
            for sample in monitor.drain():
                self._ingest_sample(sample)
                n += 1
        return n

    def _sanitize(self, sample: Sample) -> str | None:
        """Reason to quarantine ``sample``, or ``None`` to accept it."""
        reason = sample.anomaly(COUNTER_MASK)
        if reason is not None:
            return reason
        meta = self._last_meta.get(sample.thread_id)
        if meta is not None:
            last_index, last_cycles = meta
            if sample.index <= last_index:
                # a duplicate or a straggler delivered out of order; the
                # counter-delta and BTB state already moved past it
                return "stale-index"
            if sample.cycles < last_cycles:
                return "time-travel"
        return None

    def _quarantine(self, sample: Sample, reason: str) -> None:
        self.quarantined[reason] = self.quarantined.get(reason, 0) + 1
        self.quarantined_total += 1
        if self.faults is not None:
            self.faults.claim_sample(sample, f"quarantined ({reason})")

    def _ingest_sample(self, sample: Sample) -> None:
        reason = self._sanitize(sample)
        if reason is not None:
            self._quarantine(sample, reason)
            return
        self._last_meta[sample.thread_id] = (sample.index, sample.cycles)
        self.samples_seen += 1
        self.misses.add_sample(sample)
        for pair in sample.btb:
            self.btb_pairs[pair] = self.btb_pairs.get(pair, 0) + 1
        prev = self._last_counters.get(sample.thread_id)
        cur = sample.counters
        if prev is not None:
            # PMD registers are COUNTER_WIDTH bits and wrap; a snapshot
            # that reads below its predecessor is a wraparound, not a
            # decrease, so each delta is taken modulo the counter width.
            # Each counter wraps independently — one wrapped counter must
            # not discard the others' deltas.
            self._bus_delta += (cur[0] - prev[0]) & COUNTER_MASK
            self._coherent_delta += (
                ((cur[1] - prev[1]) & COUNTER_MASK)
                + ((cur[2] - prev[2]) & COUNTER_MASK)
                + ((cur[3] - prev[3]) & COUNTER_MASK)
            )
        self._last_counters[sample.thread_id] = cur

    # -- queries ---------------------------------------------------------------

    def coherent_ratio(self) -> float:
        """System-wide coherent bus events / bus transactions."""
        if self._bus_delta == 0:
            return 0.0
        return self._coherent_delta / self._bus_delta

    def backward_branches(self) -> list[tuple[tuple[int, int], int]]:
        """(branch, target) pairs with target <= branch, by frequency.

        Ties break on the ``(branch, target)`` pair itself, never on
        dict-insertion order: loop selection (and therefore everything
        downstream of it — deployments, the profile database) must be a
        pure function of the aggregate counts, not of the order samples
        happened to arrive in.
        """
        loops = [
            (pair, count)
            for pair, count in self.btb_pairs.items()
            if pair[1] <= pair[0]
        ]
        loops.sort(key=lambda item: (-item[1], item[0]))
        return loops

    # -- persistence (repro.persist) -------------------------------------------

    def export_state(self) -> dict:
        """JSON-serializable snapshot of the aggregate profile (:data:`STATE`)."""
        return {
            "misses": {
                "by_pc": {
                    str(pc): {
                        name: sorted(value) if isinstance(value, set) else value
                        for name in MISS.fields
                        for value in (getattr(stats, name),)
                    }
                    for pc, stats in sorted(self.misses.by_pc.items())
                },
                "total_events": self.misses.total_events,
                "total_coherent": self.misses.total_coherent,
            },
            "btb": [[b, t, c] for (b, t), c in sorted(self.btb_pairs.items())],
            "samples_seen": self.samples_seen,
            "quarantined": dict(sorted(self.quarantined.items())),
            "quarantined_total": self.quarantined_total,
            "bus_delta": self._bus_delta,
            "coherent_delta": self._coherent_delta,
        }

    def restore_state(self, state: dict) -> None:
        """Warm-restart the aggregates from :meth:`export_state` output.

        Validate-then-commit: :data:`STATE` checks the whole state and
        rebuilds it into fresh structures before any live field is
        assigned, and a structural problem anywhere raises
        :class:`~repro.errors.ProfileStateError` — a torn or
        schema-drifted profile can never half-warm-start the optimizer.

        The ordering/delta state stays reset: restoring last-seen sample
        indices would quarantine every fresh sample of the new session
        as ``stale-index``, and a stale counter snapshot would turn the
        first delta into wraparound garbage.
        """
        live = STATE.load(state, "state")
        misses = live["misses"]
        self.misses.by_pc = {
            pc: MissStats(pc, **fields) for pc, fields in misses["by_pc"].items()
        }
        self.misses.total_events = misses["total_events"]
        self.misses.total_coherent = misses["total_coherent"]
        self.btb_pairs = live["btb"]
        self.samples_seen = live["samples_seen"]
        self.quarantined = live["quarantined"]
        self.quarantined_total = live["quarantined_total"]
        self._bus_delta = live["bus_delta"]
        self._coherent_delta = live["coherent_delta"]
        self._last_counters = {}
        self._last_meta = {}

    def new_window(self, decay: float = 0.5) -> None:
        """Age profiles between optimizer wake-ups (re-adaptation)."""
        self.misses.decay(decay)
        for pair in list(self.btb_pairs):
            self.btb_pairs[pair] = int(self.btb_pairs[pair] * decay)
            if self.btb_pairs[pair] == 0:
                del self.btb_pairs[pair]
        # keep floats: int() truncation rounded the numerator and the
        # denominator differently, so every window turnover perturbed
        # coherent_ratio(); scaling both by the same factor ages the
        # totals without moving the ratio they encode
        self._bus_delta *= decay
        self._coherent_delta *= decay
