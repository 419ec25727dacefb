"""The coherent fabric: MESI over node buses joined by an interconnect.

The paper's two platforms run one protocol in two topologies.  Nodes
hold CPUs on a shared front-side bus; a line's *home* is the node its
page was first touched from (§3.2).  The SGI Altix has two CPUs per node
and a fat tree between nodes; the 4-way Itanium 2 SMP server is the same
fabric with ``n_nodes == 1`` — every line is homed on the requester's
node and no sharer is ever remote, so every interconnect term below is
zero and what is left is a snooping bus.

Every miss, read-for-ownership, upgrade and writeback is a transaction
that

* occupies the requester's node bus and, when the home is another node,
  the home node's bus too, for ``occupancy_data`` or ``occupancy_ctrl``
  cycles each (queueing delay emerges from the per-node busy-until
  bookkeeping — this is how aggressive prefetching by one CPU slows the
  others down, and one node's traffic delays other nodes' demand misses
  at their shared home memory), and
* snoops every other CPU's cache, producing the coherent bus events the
  paper's profiler watches (``BUS_RD_HIT``, ``BUS_RD_HITM``,
  ``BUS_RD_INVAL``).  The "directory" is exactly this walk: the
  simulator is sequential, so asking the caches is exact.

The *latency* follows the protocol's message flow:

* clean miss: ``memory`` from a local home, ``remote_memory`` otherwise
  (requester -> home -> requester);
* dirty in a cache on the requester's node: ``cache_to_cache``; dirty in
  a remote cache: ``remote_cache_to_cache`` (a three-hop transfer — why
  "the penalty of coherent misses is much higher on cc-NUMA machines
  than that on SMP machines", §5.2.1, and why COBRA gains more there);
* invalidations that cross the interconnect add ``interconnect_hop``.

Transactions return the queue wait apart from the latency, so the cache
hierarchy can charge a prefetch its bus bandwidth without the data
latency (prefetches are non-blocking).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import BusConfig, LatencyConfig
from .address import LINE_SHIFT
from .coherence import EXCLUSIVE, MODIFIED, SHARED
from .dram import MemorySystem

if TYPE_CHECKING:  # pragma: no cover
    from .hierarchy import CpuCacheSystem

__all__ = ["CoherentFabric"]


class CoherentFabric:
    """``n_nodes`` node buses, first-touch homes, snooped MESI."""

    def __init__(
        self,
        n_nodes: int,
        bus: BusConfig,
        latency: LatencyConfig,
        memory: MemorySystem,
    ) -> None:
        self.n_nodes = n_nodes
        self.latency = latency
        self.memory = memory
        self.caches: list["CpuCacheSystem"] = []
        self._busy = [0] * n_nodes
        self.total_transactions = 0
        self.total_queue_cycles = 0
        self._occ_data = bus.occupancy_data
        self._occ_ctrl = bus.occupancy_ctrl
        # per-requester snoop lists (everyone but the requester), so the
        # per-transaction loop needs no identity filtering
        self._peers: dict[int, list["CpuCacheSystem"]] = {}

    def attach(self, cache: "CpuCacheSystem") -> None:
        if not 0 <= cache.node_id < self.n_nodes:
            raise ValueError(
                f"cpu {cache.cpu_id} on node {cache.node_id}, "
                f"fabric has nodes 0..{self.n_nodes - 1}"
            )
        self.caches.append(cache)
        self._peers = {
            c.cpu_id: [o for o in self.caches if o is not c] for c in self.caches
        }

    # -- arbitration -------------------------------------------------------

    def _acquire(self, node: int, now: int, occupancy: int) -> int:
        """Reserve ``node``'s bus at ``now``; return the queueing delay."""
        busy = self._busy[node]
        start = busy if busy > now else now
        self._busy[node] = start + occupancy
        self.total_transactions += 1
        wait = start - now
        self.total_queue_cycles += wait
        return wait

    def _arbitrate(
        self, now: int, requester: "CpuCacheSystem", line: int, occupancy: int
    ) -> tuple[int, bool]:
        """Win the requester's node bus, then the home node's if it is another.

        Returns ``(queue_wait, home_is_remote)``.
        """
        node = requester.node_id
        home = self.memory.home_node(line << LINE_SHIFT, node)
        wait = self._acquire(node, now, occupancy)
        if home == node:
            return wait, False
        return wait + self._acquire(home, now + wait, occupancy), True

    # -- the snoop walk ------------------------------------------------------

    def _snoop(
        self, requester: "CpuCacheSystem", line: int, invalidate: bool
    ) -> tuple[int | None, bool, bool]:
        """Ask every other cache about ``line``, demoting or dropping copies.

        Returns ``(dirty owner's node or None, a cache on the requester's
        node held it clean, a cache on another node held it clean)``.
        """
        node = requester.node_id
        owner_node = None
        local = remote = False
        for cache in self._peers[requester.cpu_id]:
            resp = cache.snoop_invalidate(line) if invalidate else cache.snoop_read(line)
            if resp == MODIFIED:
                owner_node = cache.node_id
            elif resp:
                if cache.node_id == node:
                    local = True
                else:
                    remote = True
        return owner_node, local, remote

    # -- transactions ----------------------------------------------------------

    def read(self, now: int, requester: "CpuCacheSystem", line: int) -> tuple[int, int, int]:
        """Shared read (load or plain lfetch miss).

        Returns ``(queue_wait, latency, state)`` where ``state`` is the
        MESI state the requester installs: E if no other cache held the
        line, else S.
        """
        lat = self.latency
        ev = requester.events
        wait, far_home = self._arbitrate(now, requester, line, self._occ_data)
        ev.bus_memory += 1
        owner_node, local, remote = self._snoop(requester, line, invalidate=False)
        if owner_node is not None:
            ev.bus_rd_hitm += 1
            ev.coherent_misses += 1
            if owner_node == requester.node_id:
                return wait, lat.cache_to_cache, SHARED
            return wait, lat.remote_cache_to_cache, SHARED
        base = lat.remote_memory if far_home else lat.memory
        if local or remote:
            ev.bus_rd_hit += 1
            return wait, base, SHARED
        return wait, base, EXCLUSIVE

    def read_excl(self, now: int, requester: "CpuCacheSystem", line: int) -> tuple[int, int, int]:
        """Read-for-ownership (store miss, or lfetch.excl miss).

        Returns ``(queue_wait, latency, state)``.  All other copies are
        invalidated; the requester installs M.
        """
        lat = self.latency
        ev = requester.events
        wait, far_home = self._arbitrate(now, requester, line, self._occ_data)
        ev.bus_memory += 1
        owner_node, local, remote = self._snoop(requester, line, invalidate=True)
        if owner_node is not None:
            ev.bus_rd_inval += 1
            ev.bus_rd_inval_hitm += 1
            ev.coherent_misses += 1
            if owner_node == requester.node_id:
                return wait, lat.cache_to_cache, MODIFIED
            return wait, lat.remote_cache_to_cache, MODIFIED
        base = lat.remote_memory if far_home else lat.memory
        if local or remote:
            ev.bus_rd_inval += 1
            ev.coherent_misses += 1
            if remote:
                base += lat.interconnect_hop  # invalidation acks cross the tree
        return wait, base, MODIFIED

    def upgrade(self, now: int, requester: "CpuCacheSystem", line: int) -> tuple[int, int]:
        """Ownership upgrade for a store hitting a SHARED line.

        Returns ``(queue_wait, latency)``.
        """
        lat = self.latency
        ev = requester.events
        wait, far_home = self._arbitrate(now, requester, line, self._occ_ctrl)
        ev.bus_memory += 1
        ev.upgrades += 1
        _, local, remote = self._snoop(requester, line, invalidate=True)
        if local or remote:
            ev.bus_rd_inval += 1
            ev.coherent_misses += 1
            return wait, lat.upgrade + (lat.interconnect_hop if remote else 0)
        # nobody to invalidate: only the home has to hear of it
        return wait, lat.upgrade_quiet + (lat.interconnect_hop if far_home else 0)

    def writeback(self, now: int, requester: "CpuCacheSystem", line: int) -> int:
        """Dirty L3 eviction to the home memory (posted; small drain cost).

        Nobody waits for the grant, so both buses are reserved from
        ``now`` rather than one after the other.
        """
        ev = requester.events
        node = requester.node_id
        home = self.memory.home_node(line << LINE_SHIFT, node)
        self._acquire(node, now, self._occ_data)
        if home != node:
            self._acquire(home, now, self._occ_data)
        ev.bus_memory += 1
        ev.writebacks += 1
        return self.latency.writeback
