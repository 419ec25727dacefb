"""Cache hierarchy internals: inclusion, drains, cast-outs, DEAR capture."""

import pytest

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.memory import (
    ATOMIC,
    EXCLUSIVE,
    LOAD,
    LOAD_BIAS,
    MODIFIED,
    PREFETCH,
    PREFETCH_EXCL,
    SHARED,
    STORE,
)

BASE = 0x8000_0000


def _one_cpu():
    machine = Machine(itanium2_smp(1))
    return machine.caches[0]


def _lines_to_fill_l2(cache):
    return cache.l2.n_sets * cache.l2.associativity


class TestLevels:
    def test_l3_hit_after_l2_eviction(self):
        cache = _one_cpu()
        n_l2 = _lines_to_fill_l2(cache)
        for i in range(n_l2 + 1):  # overflow L2 by one line
            cache.access(0, BASE + 128 * i, LOAD)
        # line 0 was evicted from L2 (same set as line n_l2) but stays in L3
        stall = cache.access(0, BASE, LOAD)
        assert stall == cache.lat.l3_hit
        assert cache.events.l2_misses > cache.events.l3_misses

    def test_l2_subset_of_l3_always(self):
        cache = _one_cpu()
        for i in range(3 * _lines_to_fill_l2(cache)):
            cache.access(0, BASE + 128 * i, STORE if i % 3 else LOAD)
        cache.check_inclusion()

    def test_l3_eviction_of_dirty_line_writes_back(self):
        cache = _one_cpu()
        n_l3 = cache.l3.n_sets * cache.l3.associativity
        cache.access(0, BASE, STORE)
        for i in range(1, n_l3 + cache.l3.n_sets):
            cache.access(0, BASE + 128 * i, LOAD)
        assert cache.events.writebacks >= 1
        assert cache.state_of(BASE >> 7) is None or True  # may or may not survive
        cache.check_inclusion()

    def test_dirty_l2_eviction_counts_drain(self):
        cache = _one_cpu()
        cache.access(0, BASE, STORE)  # dirty in L2
        n_l2 = _lines_to_fill_l2(cache)
        for i in range(1, n_l2 + 1):
            cache.access(0, BASE + 128 * i, LOAD)
        assert cache.events.l2_writebacks >= 1


class TestExclCastOut:
    def test_excl_prefetched_line_casts_out_on_l3_eviction(self):
        cache = _one_cpu()
        cache.access(0, BASE, PREFETCH_EXCL)
        assert cache.state_of(BASE >> 7) == EXCLUSIVE
        assert (BASE >> 7) in cache.excl_alloc
        n_l3 = cache.l3.n_sets * cache.l3.associativity
        for i in range(1, n_l3 + cache.l3.n_sets):
            cache.access(0, BASE + 128 * i, LOAD)
        # the exclusive-prefetched (never stored!) line wrote back
        assert cache.events.writebacks >= 1

    def test_plain_prefetched_line_evicts_clean(self):
        cache = _one_cpu()
        cache.access(0, BASE, PREFETCH)
        n_l3 = cache.l3.n_sets * cache.l3.associativity
        for i in range(1, n_l3 + cache.l3.n_sets):
            cache.access(0, BASE + 128 * i, LOAD)
        assert cache.events.writebacks == 0


class TestDearCapture:
    def test_memory_miss_above_threshold_recorded(self):
        cache = _one_cpu()
        cache.dear_threshold = 12
        cache.access(0, BASE, LOAD)
        assert cache.dear_pending == cache.lat.memory

    def test_l3_hits_never_recorded(self):
        cache = _one_cpu()
        cache.dear_threshold = 12
        cache.access(0, BASE, LOAD)
        cache.dear_pending = None
        n_l2 = _lines_to_fill_l2(cache)
        for i in range(1, n_l2 + 1):
            cache.access(0, BASE + 128 * i, LOAD)
        cache.dear_pending = None
        cache.access(0, BASE, LOAD)  # L3 hit
        assert cache.dear_pending is None

    def test_upgrade_latency_recorded_on_store(self):
        machine = Machine(itanium2_smp(2))
        c0, c1 = machine.caches
        c0.dear_threshold = 180
        c0.access(0, BASE, LOAD)
        c1.access(0, BASE, LOAD)  # both share
        c0.access(0, BASE, STORE)  # upgrade with a sharer
        assert c0.dear_pending == c0.lat.upgrade
        assert c0.lat.upgrade > 180  # classified coherent by the filter

    def test_prefetch_never_records_dear(self):
        cache = _one_cpu()
        cache.dear_threshold = 0
        cache.access(0, BASE, PREFETCH)
        assert cache.dear_pending is None


# fetchadd8 and ld8.bias appear in no BENCH_perf.json case, so their arm of
# ``_access`` is pinned here.  A row: the requester's state before the access,
# what the peer holds (None / "clean" / "dirty"), and the stall as a function
# of the latency table and ``far`` (1 when the peer sits on another node).
OWNERSHIP_ROWS = [
    ("I", None, lambda lat, far: lat.memory),
    ("I", "clean", lambda lat, far: lat.memory + far * lat.interconnect_hop),
    ("I", "dirty", lambda lat, far: lat.remote_cache_to_cache if far else lat.cache_to_cache),
    ("S", None, lambda lat, far: lat.upgrade_quiet),
    ("S", "clean", lambda lat, far: lat.upgrade + far * lat.interconnect_hop),
    ("E", None, lambda lat, far: lat.l2_hit),
    ("M", None, lambda lat, far: lat.l2_hit),
]
_SOLO_SETUP = {"I": None, "S": PREFETCH, "E": LOAD, "M": STORE}


class TestOwnershipLoads:
    """ATOMIC and LOAD_BIAS from every state, with and without a peer copy."""

    @pytest.mark.parametrize("topology", ["one-node", "two-node"])
    @pytest.mark.parametrize("kind", [ATOMIC, LOAD_BIAS], ids=["fetchadd8", "ld8.bias"])
    @pytest.mark.parametrize(
        "start, peer, stall", OWNERSHIP_ROWS, ids=[f"{s}-{p}" for s, p, _ in OWNERSHIP_ROWS]
    )
    def test_stall_state_and_counters(self, topology, kind, start, peer, stall):
        far = topology == "two-node"
        machine = Machine(sgi_altix(4) if far else itanium2_smp(2))
        mine, other = machine.caches[0], machine.caches[2 if far else 1]
        machine.mem.home_node(BASE, mine.node_id)  # first touch: homed with the requester
        line = BASE >> 7
        if peer is None:
            if _SOLO_SETUP[start] is not None:
                mine.access(0, BASE, _SOLO_SETUP[start])
        elif start == "S":
            mine.access(0, BASE, LOAD)
            other.access(10_000, BASE, LOAD)
        else:
            other.access(0, BASE, STORE if peer == "dirty" else LOAD)
        assert mine.state_of(line) == {"I": None, "S": SHARED, "E": EXCLUSIVE, "M": MODIFIED}[start]
        mine.dear_threshold = 0  # anything this arm captured would show
        before = (mine.events.loads, mine.events.stores, mine.events.upgrades)

        got = mine.access(20_000, BASE, kind)  # the bus is idle again: no queue wait

        assert got == stall(mine.lat, far)
        keeps_e = kind == LOAD_BIAS and start == "E"  # ld8.bias leaves an E hit in E
        assert mine.state_of(line) == (EXCLUSIVE if keeps_e else MODIFIED)
        assert other.state_of(line) is None
        after = (mine.events.loads, mine.events.stores, mine.events.upgrades)
        assert tuple(a - b for a, b in zip(after, before)) == (
            1, int(kind == ATOMIC), int(start == "S"),
        )
        assert mine.dear_pending is None
        mine.check_inclusion()
