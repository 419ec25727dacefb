"""Simulated physical memory: data storage, allocation, NUMA placement.

One flat backing store holds the program's data.  Words are 8 bytes;
the same buffer is viewed as both ``int64`` and ``float64`` (like real
memory, a float store read back as an integer yields the bit pattern).

For cc-NUMA machines the memory system also assigns pages to home nodes
with the SGI Altix *first-touch* policy the paper describes: a page is
pinned to the node of the first CPU that touches it (§3.2).
"""

from __future__ import annotations

import numpy as np

from ..errors import MemoryError_
from .address import PAGE_SHIFT

__all__ = ["Allocation", "MemorySystem", "DATA_BASE"]

#: Base byte address of the simulated data segment.
DATA_BASE = 0x8000_0000

_WORD = 8


class Allocation:
    """A named, line-aligned region of the data segment."""

    __slots__ = ("name", "base", "nbytes")

    def __init__(self, name: str, base: int, nbytes: int) -> None:
        self.name = name
        self.base = base
        self.nbytes = nbytes

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    @property
    def n_words(self) -> int:
        return self.nbytes // _WORD

    def addr(self, index: int) -> int:
        """Byte address of 8-byte element ``index``."""
        return self.base + index * _WORD

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Allocation {self.name} @{self.base:#x} {self.nbytes}B>"


class MemorySystem:
    """Backing store + bump allocator + first-touch page homes."""

    def __init__(self, capacity_bytes: int = 8 << 20, align: int = 128) -> None:
        if capacity_bytes % _WORD:
            raise MemoryError_("capacity must be word-aligned")
        self.capacity = capacity_bytes
        self._i64 = np.zeros(capacity_bytes // _WORD, dtype=np.int64)
        self._f64 = self._i64.view(np.float64)
        # the same words for compiled traces: a memoryview subscript
        # yields/takes a Python scalar at about half the cost of
        # ``ndarray.item``/``__setitem__``
        self._i64_mv = memoryview(self._i64)
        self._f64_mv = memoryview(self._f64)
        self._align = align
        self._next = DATA_BASE
        self.allocations: dict[str, Allocation] = {}
        #: page id -> home node id (first touch)
        self.page_home: dict[int, int] = {}

    # -- allocation -------------------------------------------------------

    def alloc(self, name: str, nbytes: int) -> Allocation:
        """Reserve a line-aligned region; zero-filled."""
        if name in self.allocations:
            raise MemoryError_(f"allocation {name!r} already exists")
        if nbytes <= 0:
            raise MemoryError_("allocation size must be positive")
        nbytes = -(-nbytes // self._align) * self._align
        base = self._next
        if base + nbytes > DATA_BASE + self.capacity:
            raise MemoryError_(
                f"out of simulated memory ({nbytes} B requested, "
                f"{DATA_BASE + self.capacity - base} B free)"
            )
        self._next += nbytes
        alloc = Allocation(name, base, nbytes)
        self.allocations[name] = alloc
        return alloc

    def _index(self, addr: int) -> int:
        off = addr - DATA_BASE
        if off < 0 or off >= self.capacity:
            raise MemoryError_(f"address {addr:#x} outside the data segment")
        if off % _WORD:
            raise MemoryError_(f"unaligned 8-byte access at {addr:#x}")
        return off // _WORD

    # -- data access (functional correctness; timing lives in the caches) --
    # The index arithmetic is inlined here (these run once per simulated
    # memory instruction); _index keeps the precise error reporting.

    def read_f64(self, addr: int) -> float:
        off = addr - DATA_BASE
        if off < 0 or off >= self.capacity or off & 7:
            self._index(addr)
        return float(self._f64[off >> 3])

    def write_f64(self, addr: int, value: float) -> None:
        off = addr - DATA_BASE
        if off < 0 or off >= self.capacity or off & 7:
            self._index(addr)
        self._f64[off >> 3] = value

    def read_i64(self, addr: int) -> int:
        off = addr - DATA_BASE
        if off < 0 or off >= self.capacity or off & 7:
            self._index(addr)
        return int(self._i64[off >> 3])

    def write_i64(self, addr: int, value: int) -> None:
        off = addr - DATA_BASE
        if off < 0 or off >= self.capacity or off & 7:
            self._index(addr)
        # wrap to signed 64-bit two's complement
        self._i64[off >> 3] = ((value + (1 << 63)) % (1 << 64)) - (1 << 63)

    def view_f64(self, alloc: Allocation) -> np.ndarray:
        """Writable float64 view of an allocation (bulk init / checks)."""
        start = self._index(alloc.base)
        return self._f64[start : start + alloc.n_words]

    def view_i64(self, alloc: Allocation) -> np.ndarray:
        start = self._index(alloc.base)
        return self._i64[start : start + alloc.n_words]

    # -- NUMA first-touch ----------------------------------------------------

    def home_node(self, addr: int, toucher_node: int) -> int:
        """Home node of the page containing ``addr``.

        Implements first-touch: an untouched page is pinned to
        ``toucher_node``.
        """
        page = addr >> PAGE_SHIFT
        home = self.page_home.get(page)
        if home is None:
            home = toucher_node
            self.page_home[page] = home
        return home

    def place_pages(self, alloc: Allocation, node: int) -> None:
        """Pin all of an allocation's pages to ``node`` (explicit placement)."""
        for page in range(alloc.base >> PAGE_SHIFT, ((alloc.end - 1) >> PAGE_SHIFT) + 1):
            self.page_home[page] = node
