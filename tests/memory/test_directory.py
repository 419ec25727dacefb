"""The fabric across nodes: locality-dependent latencies.

The protocol itself (states, events) is ``test_coherence.py``'s
``TestTransitionsAcrossNodes``.
"""

from repro.config import sgi_altix
from repro.cpu import Machine
from repro.memory import LOAD, STORE

BASE = 0x8000_0000


def _numa():
    machine = Machine(sgi_altix(4))  # nodes: {0,1}, {2,3}
    return machine, machine.caches


class TestLatencies:
    def test_local_vs_remote_memory(self):
        machine, caches = _numa()
        lat = machine.config.latency
        # cpu0 touches first -> page homed on node 0
        local = caches[0].access(0, BASE, LOAD)
        assert local >= lat.memory
        remote = caches[2].access(0, BASE + 4096, LOAD)  # untouched page? no:
        # first touch by cpu2 homes it on node 1 -> local for cpu2
        assert remote < lat.remote_memory
        # cpu0 now reads cpu2's page: remote
        stall = caches[0].access(0, BASE + 4096 + 128, LOAD)
        assert stall >= lat.remote_memory

    def test_local_vs_remote_hitm(self):
        machine, caches = _numa()
        lat = machine.config.latency
        caches[0].access(0, BASE, STORE)
        local_hitm = caches[1].access(0, BASE, LOAD)   # same node as cpu0
        assert lat.cache_to_cache <= local_hitm < lat.remote_cache_to_cache
        caches[0].access(0, BASE + 128, STORE)
        remote_hitm = caches[2].access(0, BASE + 128, LOAD)
        assert remote_hitm >= lat.remote_cache_to_cache
        assert remote_hitm > local_hitm, "NUMA coherent misses cost more (§5.2.1)"

    def test_remote_upgrade_costs_a_hop(self):
        machine, caches = _numa()
        lat = machine.config.latency
        caches[0].access(0, BASE, LOAD)
        caches[2].access(0, BASE, LOAD)  # remote sharer
        stall = caches[0].access(0, BASE, STORE)
        assert stall >= lat.interconnect_hop
