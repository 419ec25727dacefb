"""MESI protocol over the coherent fabric, in both topologies: transitions, events, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.memory import (
    ATOMIC,
    EXCLUSIVE,
    LOAD,
    MODIFIED,
    PREFETCH,
    PREFETCH_EXCL,
    SHARED,
    STORE,
    state_name,
)

LINE = 0x8000_0000


def _caches(n=2):
    machine = Machine(itanium2_smp(n))
    return machine, machine.caches


class TestTransitions:
    """One protocol suite; the subclass below reruns it across two nodes."""

    @staticmethod
    def pair():
        """Two caches of a fresh machine: here, both on the one node."""
        caches = Machine(itanium2_smp(4)).caches
        return caches[0], caches[1]

    def test_cold_load_installs_exclusive(self):
        c0, c1 = self.pair()
        c0.access(0, LINE, LOAD)
        assert c0.state_of(LINE >> 7) == EXCLUSIVE
        assert c1.state_of(LINE >> 7) is None

    def test_second_reader_shares(self):
        c0, c1 = self.pair()
        c0.access(0, LINE, LOAD)
        c1.access(0, LINE, LOAD)
        assert c0.state_of(LINE >> 7) == SHARED
        assert c1.state_of(LINE >> 7) == SHARED
        assert c1.events.bus_rd_hit == 1

    def test_store_miss_takes_modified_and_invalidates(self):
        c0, c1 = self.pair()
        c0.access(0, LINE, LOAD)
        c1.access(0, LINE, STORE)
        assert c1.state_of(LINE >> 7) == MODIFIED
        assert c0.state_of(LINE >> 7) is None
        assert c0.events.invalidations_received == 1
        assert c1.events.bus_rd_inval == 1

    def test_store_on_exclusive_is_silent(self):
        c0, c1 = self.pair()
        c0.access(0, LINE, LOAD)
        bus_before = c0.events.bus_memory
        c0.access(0, LINE, STORE)
        assert c0.state_of(LINE >> 7) == MODIFIED
        assert c0.events.bus_memory == bus_before  # E -> M without the bus

    def test_store_on_shared_upgrades(self):
        c0, c1 = self.pair()
        c0.access(0, LINE, LOAD)
        c1.access(0, LINE, LOAD)
        c0.access(0, LINE, STORE)
        assert c0.state_of(LINE >> 7) == MODIFIED
        assert c1.state_of(LINE >> 7) is None
        assert c0.events.upgrades == 1

    def test_read_of_modified_is_hitm_with_writeback(self):
        c0, c1 = self.pair()
        c0.access(0, LINE, STORE)
        stall = c1.access(0, LINE, LOAD)
        assert c1.events.bus_rd_hitm == 1
        assert c1.events.coherent_misses == 1
        assert c0.events.writebacks == 1  # owner flushed
        assert c0.state_of(LINE >> 7) == SHARED
        assert c1.state_of(LINE >> 7) == SHARED
        assert stall >= c1.lat.cache_to_cache  # the coherent-miss band

    def test_plain_prefetch_installs_shared(self):
        c0, _ = self.pair()
        c0.access(0, LINE, PREFETCH)
        assert c0.state_of(LINE >> 7) == SHARED  # "the usual shared state"

    def test_prefetch_excl_installs_exclusive_and_invalidates(self):
        c0, c1 = self.pair()
        c1.access(0, LINE, LOAD)
        c0.access(0, LINE, PREFETCH_EXCL)
        assert c0.state_of(LINE >> 7) == EXCLUSIVE
        assert c1.state_of(LINE >> 7) is None

    def test_prefetch_excl_covers_later_store(self):
        c0, c1 = self.pair()
        c1.access(0, LINE, LOAD)
        c0.access(0, LINE, PREFETCH_EXCL)
        bus_before = c0.events.bus_memory
        stall = c0.access(0, LINE, STORE)
        assert c0.events.bus_memory == bus_before, "store must not transact"
        assert stall == c0.lat.l2_hit

    def test_atomic_is_store_like(self):
        c0, c1 = self.pair()
        c1.access(0, LINE, LOAD)
        c0.access(0, LINE, ATOMIC)
        assert c0.state_of(LINE >> 7) == MODIFIED
        assert c1.state_of(LINE >> 7) is None

    def test_coherent_ratio_tracks_events(self):
        c0, c1 = self.pair()
        for i in range(8):
            addr = LINE + 128 * i
            c0.access(0, addr, STORE)
            c1.access(0, addr, LOAD)
        assert c1.events.coherent_ratio() > 0.5

    def test_third_cpu_store_invalidates_every_sharer(self):
        c0, c1 = self.pair()
        c2 = c0.fabric.caches[3]
        for cache in (c0, c1):
            cache.access(0, LINE, LOAD)
        c2.access(0, LINE, STORE)
        assert c2.state_of(LINE >> 7) == MODIFIED
        assert c0.state_of(LINE >> 7) is None
        assert c1.state_of(LINE >> 7) is None


class TestTransitionsAcrossNodes(TestTransitions):
    """The same transitions with the two caches on different nodes."""

    @staticmethod
    def pair():
        caches = Machine(sgi_altix(4)).caches  # nodes: {0,1}, {2,3}
        assert caches[0].node_id != caches[2].node_id
        return caches[0], caches[2]


class TestStateNames:
    @pytest.mark.parametrize(
        "state,name", [(None, "I"), (SHARED, "S"), (EXCLUSIVE, "E"), (MODIFIED, "M")]
    )
    def test_names(self, state, name):
        assert state_name(state) == name


KINDS = [LOAD, STORE, PREFETCH, PREFETCH_EXCL, ATOMIC]


class TestProtocolInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 11), st.sampled_from(KINDS)),
            min_size=1,
            max_size=250,
        )
    )
    def test_single_writer_invariant(self, ops):
        """At most one cache holds a line in M or E; M/E excludes others."""
        machine, caches = _caches(4)
        lines = set()
        for cpu, line_idx, kind in ops:
            addr = LINE + 128 * line_idx
            caches[cpu].access(0, addr, kind)
            lines.add(addr >> 7)
            for line in lines:
                states = [c.state_of(line) for c in caches]
                owners = [s for s in states if s in (EXCLUSIVE, MODIFIED)]
                holders = [s for s in states if s is not None]
                assert len(owners) <= 1, f"line {line:#x}: {states}"
                if owners:
                    assert len(holders) == 1, f"M/E must be exclusive: {states}"

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 400), st.sampled_from(KINDS)),
            min_size=1,
            max_size=200,
        )
    )
    def test_structural_invariants_under_pressure(self, ops):
        """Inclusion and bookkeeping hold even with capacity evictions."""
        machine, caches = _caches(4)
        for cpu, line_idx, kind in ops:
            caches[cpu].access(0, LINE + 128 * line_idx, kind)
        for cache in caches:
            cache.check_inclusion()
