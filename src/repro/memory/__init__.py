"""Simulated memory system: caches, MESI coherence, buses, NUMA, DRAM.

The observable quantities the paper's profiler consumes — L2/L3 misses,
bus transactions, coherent snoop events, access latencies — are all
produced mechanistically by this package.
"""

from .address import LINE_SHIFT, PAGE_SHIFT
from .cache import CacheArray
from .coherence import EXCLUSIVE, MODIFIED, SHARED, state_name
from .dram import DATA_BASE, Allocation, MemorySystem
from .events import MemEvents
from .fabric import CoherentFabric
from .hierarchy import ATOMIC, LOAD, LOAD_BIAS, PREFETCH, PREFETCH_EXCL, STORE, CpuCacheSystem

__all__ = [
    "LINE_SHIFT",
    "PAGE_SHIFT",
    "CacheArray",
    "SHARED",
    "EXCLUSIVE",
    "MODIFIED",
    "state_name",
    "CoherentFabric",
    "MemorySystem",
    "Allocation",
    "DATA_BASE",
    "MemEvents",
    "CpuCacheSystem",
    "LOAD",
    "ATOMIC",
    "STORE",
    "PREFETCH",
    "PREFETCH_EXCL",
    "LOAD_BIAS",
]
