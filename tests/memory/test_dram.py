"""Memory system: allocation, data access, first-touch placement."""

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.memory.dram import DATA_BASE, MemorySystem


class TestAllocation:
    def test_alloc_is_line_aligned_and_disjoint(self):
        mem = MemorySystem(1 << 20)
        a = mem.alloc("a", 100)
        b = mem.alloc("b", 300)
        assert a.base % 128 == 0 and b.base % 128 == 0
        assert b.base >= a.end

    def test_duplicate_name(self):
        mem = MemorySystem(1 << 20)
        mem.alloc("x", 8)
        with pytest.raises(MemoryError_):
            mem.alloc("x", 8)

    def test_exhaustion(self):
        mem = MemorySystem(1024)
        with pytest.raises(MemoryError_):
            mem.alloc("big", 4096)

    def test_bad_size(self):
        mem = MemorySystem(1 << 20)
        with pytest.raises(MemoryError_):
            mem.alloc("zero", 0)

    def test_addr_helper(self):
        mem = MemorySystem(1 << 20)
        a = mem.alloc("a", 64)
        assert a.addr(3) == a.base + 24
        assert a.n_words == a.nbytes // 8


class TestAccess:
    def test_float_round_trip(self):
        mem = MemorySystem(1 << 20)
        a = mem.alloc("a", 64)
        mem.write_f64(a.base, 3.25)
        assert mem.read_f64(a.base) == 3.25

    def test_int_round_trip_and_wrap(self):
        mem = MemorySystem(1 << 20)
        a = mem.alloc("a", 64)
        mem.write_i64(a.base, -7)
        assert mem.read_i64(a.base) == -7
        mem.write_i64(a.base, 1 << 63)
        assert mem.read_i64(a.base) == -(1 << 63)

    def test_float_int_views_share_bits(self):
        mem = MemorySystem(1 << 20)
        a = mem.alloc("a", 64)
        mem.write_f64(a.base, 1.0)
        assert mem.read_i64(a.base) == 0x3FF0000000000000

    def test_views(self):
        mem = MemorySystem(1 << 20)
        a = mem.alloc("a", 64)
        view = mem.view_f64(a)  # padded to the 128-byte line: 16 words
        view[:8] = np.arange(8.0)
        assert mem.read_f64(a.addr(5)) == 5.0

    def test_bounds_and_alignment(self):
        mem = MemorySystem(1024)
        with pytest.raises(MemoryError_):
            mem.read_f64(DATA_BASE - 8)
        with pytest.raises(MemoryError_):
            mem.read_f64(DATA_BASE + 2048)
        with pytest.raises(MemoryError_):
            mem.read_f64(DATA_BASE + 4)  # unaligned


class TestFirstTouch:
    def test_first_touch_pins_page(self):
        mem = MemorySystem(1 << 20)
        a = mem.alloc("a", 4096)
        assert mem.home_node(a.base, toucher_node=1) == 1
        assert mem.home_node(a.base, toucher_node=0) == 1  # already pinned
        assert mem.home_node(a.base + 1024, toucher_node=0) == 0  # next page

    def test_place_pages(self):
        mem = MemorySystem(1 << 20, n_nodes=4)
        a = mem.alloc("a", 4096)
        mem.place_pages(a, node=2)
        assert mem.home_node(a.base, toucher_node=0) == 2
        assert mem.home_node(a.end - 8, toucher_node=0) == 2
