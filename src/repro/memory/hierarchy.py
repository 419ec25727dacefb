"""Per-CPU cache hierarchy (private L2 + L3, one MESI state per line).

On Itanium 2 both the 256 KB L2 and the 3 MB L3 are private, and a line
is held by a CPU in a single coherence state, so the hierarchy keeps

* ``state`` — line id -> MESI state (absence = Invalid),
* ``l2`` / ``l3`` — tag arrays with ``l2 ⊆ l3`` (inclusion, enforced on
  every eviction and invalidation),
* ``l2_dirty`` — lines whose L2 copy is ahead of L3 (their L2 eviction
  is a dirty drain, the paper's "writebacks in L2").

``access`` returns the stall cycles charged to the issuing instruction:
loads stall for the full miss latency, stores are buffered
(``store_factor``), prefetches never stall (their cost is bus occupancy
and the coherence side effects they trigger).

``lfetch.excl`` allocates the line in E and marks it for *cast-out*:
its eviction writes back even if it was never stored to.  This models
the paper's observation that exclusive prefetching "could increase the
number of writebacks in L2 [and] result in longer latency for the store
instructions" while keeping the line coherence-clean, so the upgrades it
performs on behalf of later stores happen in the background.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import LatencyConfig, MachineConfig
from .address import LINE_SHIFT
from .cache import CacheArray
from .coherence import EXCLUSIVE, MODIFIED, SHARED
from .events import MemEvents

if TYPE_CHECKING:  # pragma: no cover
    from .fabric import CoherentFabric

__all__ = ["CpuCacheSystem", "LOAD", "STORE", "PREFETCH", "PREFETCH_EXCL", "LOAD_BIAS", "ATOMIC"]

LOAD = 0
STORE = 1
PREFETCH = 2
PREFETCH_EXCL = 3
LOAD_BIAS = 4
ATOMIC = 5


class CpuCacheSystem:
    """All cache state of one CPU, attached to a coherent fabric."""

    __slots__ = (
        "cpu_id",
        "node_id",
        "l2",
        "l3",
        "state",
        "l2_dirty",
        "excl_alloc",
        "events",
        "fabric",
        "validator",
        "lat",
        "_sf",
        "_occ_data",
        "_occ_ctrl",
        "dear_threshold",
        "dear_pending",
        "access_fn",
        "_l2_sets",
        "_l2_nsets",
        "_l2_hit",
    )

    def __init__(
        self, cpu_id: int, node_id: int, config: MachineConfig, fabric: "CoherentFabric"
    ) -> None:
        self.cpu_id = cpu_id
        self.node_id = node_id
        self.l2 = CacheArray(config.l2)
        self.l3 = CacheArray(config.l3)
        self.state: dict[int, int] = {}
        self.l2_dirty: set[int] = set()
        # lines allocated by lfetch.excl: cast out (written back) on
        # eviction even if never stored to — the paper's "increase the
        # number of writebacks" effect (§2, §4)
        self.excl_alloc: set[int] = set()
        self.events = MemEvents()
        self.fabric = fabric
        self.lat: LatencyConfig = config.latency
        self._sf = config.latency.store_factor
        self._occ_data = config.bus.occupancy_data
        self._occ_ctrl = config.bus.occupancy_ctrl
        # DEAR capture: protocol latency of the last qualifying access
        # (set here because the store-buffered *stall* understates the
        # latency the PMU reports; the core attaches the faulting PC)
        self.dear_threshold = 1 << 30
        self.dear_pending: int | None = None
        # optional invariant checker (repro.validate); None on the hot path
        self.validator = None
        # Hot-path entry point the cores call.  Bound to ``_access`` while
        # no validator is attached (skipping the wrapper's per-call check)
        # and rebound to ``access`` by ``set_validator``.
        self.access_fn = self._access
        # L2 set dicts hoisted for the hit fast path in _access; reads
        # the live tag array, so snoops and evictions need no hooks
        self._l2_nsets = self.l2.n_sets
        self._l2_sets = self.l2._sets
        self._l2_hit = config.latency.l2_hit
        fabric.attach(self)

    def set_validator(self, validator) -> None:
        """Attach/detach an invariant checker, rebinding the hot path."""
        self.validator = validator
        self.access_fn = self._access if validator is None else self.access

    # -- main access path ---------------------------------------------------

    def access(self, now: int, addr: int, kind: int) -> int:
        """Simulate one data access; return stall cycles.

        When a validator is attached it observes the completed access —
        after every coherence side effect, including fills and forced
        evictions — so it can check the global line state.
        """
        validator = self.validator
        if validator is None:
            return self._access(now, addr, kind)
        stall = self._access(now, addr, kind)
        validator.after_access(self, addr >> LINE_SHIFT, kind)
        return stall

    def _access(self, now: int, addr: int, kind: int) -> int:
        line = addr >> LINE_SHIFT

        # L2-hit fast path against the tag array's own set dict: L2
        # residency implies a tracked coherence state (L2 ⊆ L3), so the
        # full path below would charge exactly ``l2_hit`` and make
        # exactly the transitions replicated here; the del/re-insert is
        # ``l2.touch``'s LRU promotion inlined.  SHARED stores (bus
        # upgrade) and non-MODIFIED lfetch.excl (ownership/alloc
        # bookkeeping) still take the full path.
        lru = self._l2_sets[line % self._l2_nsets]
        if line in lru:
            if kind == LOAD:
                self.events.loads += 1
                del lru[line]
                lru[line] = None
                return self._l2_hit
            if kind == STORE:
                st = self.state[line]
                if st != SHARED:
                    self.events.stores += 1
                    if st != MODIFIED:
                        self.state[line] = MODIFIED
                    self.l2_dirty.add(line)
                    del lru[line]
                    lru[line] = None
                    return self._l2_hit
            elif kind == PREFETCH:
                self.events.prefetches += 1
                del lru[line]
                lru[line] = None
                return 0
            elif kind == PREFETCH_EXCL and self.state[line] == MODIFIED:
                self.events.prefetches += 1
                del lru[line]
                lru[line] = None
                return 0

        ev = self.events
        lat = self.lat
        st = self.state.get(line)

        if kind == LOAD:
            ev.loads += 1
            if st is not None:
                if self.l2.touch(line):
                    return lat.l2_hit
                ev.l2_misses += 1
                return lat.l3_hit + self._promote(line)
            ev.l2_misses += 1
            ev.l3_misses += 1
            wait, latency, install = self.fabric.read(now, self, line)
            if latency > self.dear_threshold:
                self.dear_pending = latency
            return wait + latency + self._install(now, line, install)

        if kind == PREFETCH:
            ev.prefetches += 1
            if st is not None:
                if not self.l2.touch(line):
                    # the promote may force a dirty L2 drain whose
                    # write-buffer backpressure the core still feels
                    return self._promote(line)
                return 0
            ev.l2_misses += 1
            ev.l3_misses += 1
            wait, _, _ = self.fabric.read(now, self, line)
            # a plain lfetch brings the line in "the usual shared state"
            # (paper §1), not E — so a later store still pays an upgrade.
            extra = self._install(now, line, SHARED)
            # non-blocking, but the request port / MSHRs back-pressure the
            # core at the bus bandwidth (issue cost = queue wait + occupancy)
            return wait + self._occ_data + extra

        if kind == PREFETCH_EXCL:
            ev.prefetches += 1
            if st is not None:
                cost = 0
                if st == SHARED:
                    # acquire ownership in the background (bus traffic,
                    # issue cost only — the store it covers won't stall)
                    wait, _ = self.fabric.upgrade(now, self, line)
                    cost = wait + self._occ_ctrl
                    self.state[line] = EXCLUSIVE
                    self.l2_dirty.add(line)
                    self.excl_alloc.add(line)
                elif st == EXCLUSIVE:
                    self.l2_dirty.add(line)
                    self.excl_alloc.add(line)
                if not self.l2.touch(line):
                    cost += self._promote(line)
                return cost
            ev.l2_misses += 1
            ev.l3_misses += 1
            wait, _, _ = self.fabric.read_excl(now, self, line)
            extra = self._install(now, line, EXCLUSIVE)
            self.l2_dirty.add(line)
            self.excl_alloc.add(line)
            return wait + self._occ_data + extra

        # Ownership arm: STORE, ATOMIC (fetchadd8) and LOAD_BIAS (ld8.bias)
        # all end owning the line -- an upgrade from S, a read-for-ownership
        # from I.  They differ in three things only:
        #  * what is counted: a store is a store, ld8.bias a load,
        #    fetchadd8 (read-modify-write) both;
        #  * only a store is buffered: it stalls for ``store_factor`` of the
        #    protocol latency and arms the DEAR with all of it (the PMU
        #    reports the latency, not the stall); the other two serialize
        #    and stall for the whole latency;
        #  * ld8.bias asks for ownership but writes nothing: a hit on an
        #    owned line (E or M) leaves its state and L2 dirtiness alone.
        store = kind == STORE
        if not store:
            ev.loads += 1
        if kind != LOAD_BIAS:
            ev.stores += 1
        if st is not None:
            extra = 0
            if st == SHARED:
                wait, latency = self.fabric.upgrade(now, self, line)
                if store:
                    if latency > self.dear_threshold:
                        self.dear_pending = latency
                    latency = int(latency * self._sf)
                extra = wait + latency
            if st == SHARED or kind != LOAD_BIAS:
                self.state[line] = MODIFIED
                self.l2_dirty.add(line)
            if self.l2.touch(line):
                return lat.l2_hit + extra
            ev.l2_misses += 1
            return lat.l3_hit + extra + self._promote(line)
        ev.l2_misses += 1
        ev.l3_misses += 1
        wait, latency, _ = self.fabric.read_excl(now, self, line)
        if store:
            if latency > self.dear_threshold:
                self.dear_pending = latency
            latency = int(latency * self._sf)
        stall = wait + latency + self._install(now, line, MODIFIED)
        self.l2_dirty.add(line)
        return stall

    # -- fills and evictions ---------------------------------------------

    def _promote(self, line: int) -> int:
        """Bring an L3-resident line into L2; return extra drain cycles."""
        victim = self.l2.insert(line)
        if victim is not None and victim in self.l2_dirty:
            self.l2_dirty.discard(victim)
            self.events.l2_writebacks += 1
            return self.lat.l2_writeback
        return 0

    def _install(self, now: int, line: int, st: int) -> int:
        """Fill a missing line into L3+L2 with state ``st``.

        Returns extra cycles charged for evictions forced by the fill.
        """
        extra = 0
        victim3 = self.l3.insert(line)
        if victim3 is not None:
            vstate = self.state.pop(victim3, None)
            self.l2.remove(victim3)
            self.l2_dirty.discard(victim3)
            # dirty, or the cast-out of an exclusively-prefetched (never
            # stored) line
            wrote_back = vstate == MODIFIED or (
                vstate == EXCLUSIVE and victim3 in self.excl_alloc
            )
            if wrote_back:
                extra += self.fabric.writeback(now, self, victim3)
            self.excl_alloc.discard(victim3)
            if self.validator is not None:
                self.validator.on_evict(self, victim3, vstate, wrote_back)
        victim2 = self.l2.insert(line)
        if victim2 is not None and victim2 in self.l2_dirty:
            self.l2_dirty.discard(victim2)
            self.events.l2_writebacks += 1
            extra += self.lat.l2_writeback
        self.state[line] = st
        return extra

    # -- snooping (called by the fabric on behalf of other CPUs) -----------

    def snoop_read(self, line: int) -> int:
        """Remote shared read.  M -> S (+writeback), E -> S.

        Returns the prior state (0 if not present).
        """
        st = self.state.get(line)
        if st is None:
            return 0
        if st == MODIFIED:
            self.state[line] = SHARED
            self.l2_dirty.discard(line)
            self.events.writebacks += 1
            return MODIFIED
        if st == EXCLUSIVE:
            self.state[line] = SHARED
            self.excl_alloc.discard(line)
            return EXCLUSIVE
        return SHARED

    def snoop_invalidate(self, line: int) -> int:
        """Remote RFO/upgrade.  Drop the line; return the prior state."""
        st = self.state.pop(line, None)
        if st is None:
            return 0
        self.l3.remove(line)
        self.l2.remove(line)
        self.l2_dirty.discard(line)
        self.excl_alloc.discard(line)
        self.events.invalidations_received += 1
        if st == MODIFIED:
            self.events.writebacks += 1
        return st

    # -- introspection -------------------------------------------------------

    def state_of(self, line: int) -> int | None:
        return self.state.get(line)

    def check_inclusion(self) -> None:
        """Assert structural invariants (used by property tests)."""
        l2_lines = self.l2.lines()
        l3_lines = self.l3.lines()
        assert l2_lines <= l3_lines, "L2 must be a subset of L3"
        assert set(self.state) == l3_lines, "state map must mirror L3 tags"
        assert self.l2_dirty <= l2_lines, "dirty set must be L2-resident"
        assert self.excl_alloc <= l3_lines, "excl-alloc set must be cached"
