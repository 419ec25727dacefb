"""Programmable performance counters (four per CPU, as on Itanium 2)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import HpmError
from .events import PmuEvent, event_reader

if TYPE_CHECKING:  # pragma: no cover
    from ..cpu.core import Core

__all__ = ["PerformanceCounters", "N_COUNTERS", "COUNTER_WIDTH", "COUNTER_MASK"]

N_COUNTERS = 4

#: Hardware PMD registers are fixed-width and wrap; consumers computing
#: deltas between snapshots must subtract modulo this width.
COUNTER_WIDTH = 48
COUNTER_MASK = (1 << COUNTER_WIDTH) - 1


class PerformanceCounters:
    """Four programmable counters over one core's event sources.

    Counters are virtualized on top of the simulator's free-running
    totals: programming or resetting a counter records the current total
    as its base.  Programming binds the counter's reader
    (:func:`~repro.hpm.events.event_reader`), so a read — four per
    sampling interrupt — is one call, not a walk over the event list.
    """

    def __init__(self, core: "Core") -> None:
        self.core = core
        self._events: list[PmuEvent | None] = [None] * N_COUNTERS
        self._readers: list = [None] * N_COUNTERS
        self._base: list[int] = [0] * N_COUNTERS

    def program(self, index: int, event: PmuEvent) -> None:
        """Bind ``event`` to counter ``index`` and zero it."""
        if not 0 <= index < N_COUNTERS:
            raise HpmError(f"counter index {index} out of range")
        reader = event_reader(self.core, event)
        self._events[index] = event
        self._readers[index] = reader
        self._base[index] = reader()

    def event_of(self, index: int) -> PmuEvent | None:
        return self._events[index]

    def _reader(self, index: int):
        reader = self._readers[index]
        if reader is None:
            raise HpmError(f"counter {index} not programmed")
        return reader

    def read(self, index: int) -> int:
        """Current value of counter ``index`` since it was programmed."""
        return (self._reader(index)() - self._base[index]) & COUNTER_MASK

    def reset(self, index: int) -> None:
        self._base[index] = self._reader(index)()

    def read_all(self) -> tuple[int, int, int, int]:
        """Snapshot of all four counters (unprogrammed read as 0)."""
        return tuple(  # type: ignore[return-value]
            0 if reader is None else (reader() - base) & COUNTER_MASK
            for reader, base in zip(self._readers, self._base)
        )
