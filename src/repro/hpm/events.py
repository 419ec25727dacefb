"""PMU event definitions (Itanium 2 naming).

Each event maps onto the simulator's raw counters: the core's retirement
counters or the CPU's :class:`~repro.memory.events.MemEvents`.  The
names follow the Itanium 2 reference manual events the paper uses
(``BUS_MEMORY``, ``BUS_RD_HIT``, ``BUS_RD_HITM``,
``BUS_RD_INVAL_ALL_HITM``; §4).
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from ..cpu.core import Core

__all__ = ["PmuEvent", "event_reader", "read_event"]


class PmuEvent(Enum):
    """Monitorable performance events."""

    CPU_CYCLES = "CPU_CYCLES"
    IA64_INST_RETIRED = "IA64_INST_RETIRED"
    LOADS_RETIRED = "LOADS_RETIRED"
    STORES_RETIRED = "STORES_RETIRED"
    DATA_PREFETCHES = "DATA_PREFETCHES"
    L2_MISSES = "L2_MISSES"
    L3_MISSES = "L3_MISSES"
    L2_WRITEBACKS = "L2_WRITEBACKS"
    L3_WRITEBACKS = "L3_WRITEBACKS"
    BUS_MEMORY = "BUS_MEMORY"
    BUS_RD_HIT = "BUS_RD_HIT"
    BUS_RD_HITM = "BUS_RD_HITM"
    BUS_RD_INVAL = "BUS_RD_INVAL"
    BUS_RD_INVAL_ALL_HITM = "BUS_RD_INVAL_ALL_HITM"
    BR_TAKEN = "BR_TAKEN"


#: event -> where it counts: an attribute of the core, or (``mem``) of
#: its CPU's memory events
_SOURCES = {
    PmuEvent.CPU_CYCLES: ("core", "cycles"),
    PmuEvent.IA64_INST_RETIRED: ("core", "retired"),
    PmuEvent.LOADS_RETIRED: ("mem", "loads"),
    PmuEvent.STORES_RETIRED: ("mem", "stores"),
    PmuEvent.DATA_PREFETCHES: ("mem", "prefetches"),
    PmuEvent.L2_MISSES: ("mem", "l2_misses"),
    PmuEvent.L3_MISSES: ("mem", "l3_misses"),
    PmuEvent.L2_WRITEBACKS: ("mem", "l2_writebacks"),
    PmuEvent.L3_WRITEBACKS: ("mem", "writebacks"),
    PmuEvent.BUS_MEMORY: ("mem", "bus_memory"),
    PmuEvent.BUS_RD_HIT: ("mem", "bus_rd_hit"),
    PmuEvent.BUS_RD_HITM: ("mem", "bus_rd_hitm"),
    PmuEvent.BUS_RD_INVAL: ("mem", "bus_rd_inval"),
    PmuEvent.BUS_RD_INVAL_ALL_HITM: ("mem", "bus_rd_inval_hitm"),
    PmuEvent.BR_TAKEN: ("core", "taken_branches"),
}


def event_reader(core: "Core", event: PmuEvent) -> Callable[[], int]:
    """A function of no arguments returning ``event``'s free-running
    value on ``core`` — bound once, read at every sample."""
    where, name = _SOURCES[event]
    return partial(getattr, core if where == "core" else core.cache.events, name)


def read_event(core: "Core", event: PmuEvent) -> int:
    """Current free-running value of ``event`` on ``core``."""
    return event_reader(core, event)()
