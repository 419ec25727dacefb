"""Address arithmetic: the line and page shifts.

Data addresses are byte addresses.  Cache state is tracked at line
granularity using integer *line ids* (``addr >> line_shift``); NUMA
first-touch placement works at page granularity (``addr >> page_shift``).
"""

from __future__ import annotations

from ..config import LINE_SIZE, PAGE_SIZE

__all__ = ["LINE_SHIFT", "PAGE_SHIFT"]

LINE_SHIFT = LINE_SIZE.bit_length() - 1
PAGE_SHIFT = PAGE_SIZE.bit_length() - 1

assert (1 << LINE_SHIFT) == LINE_SIZE, "line size must be a power of two"
assert (1 << PAGE_SHIFT) == PAGE_SIZE, "page size must be a power of two"

