"""perfmon-like sampling driver.

Mirrors the structure the paper describes (§3.1–3.2): the "kernel"
driver programs each CPU's PMU, arms an overflow interrupt every
``interval`` retired instructions, and on each interrupt hands a
:class:`~repro.hpm.sample.Sample` to the registered listener (COBRA's
monitoring thread), which queues it in its User Sampling Buffer.

The interrupt + copy cost is charged to the monitored core
(``overhead_cycles``), which is how the framework's monitoring overhead
shows up in measured execution time.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from ..errors import HpmError
from .btb import BranchTraceBuffer
from .counters import PerformanceCounters
from .dear import DataEventAddressRegister
from .events import PmuEvent
from .sample import Sample

if TYPE_CHECKING:  # pragma: no cover
    from ..cpu.core import Core

__all__ = ["PerfmonSession", "PerfmonDriver"]


class PerfmonSession:
    """Sampling session on one CPU."""

    def __init__(self, core: "Core", pid: int = 0) -> None:
        self.core = core
        self.pid = pid
        self.pmu = PerformanceCounters(core)
        self.btb = BranchTraceBuffer(core)
        self.dear = DataEventAddressRegister(core)
        self._listener: Callable[[Sample], None] | None = None
        self._index = 0
        self._active = False

    def configure(
        self,
        events: list[PmuEvent],
        interval: int,
        dear_min_latency: int,
        overhead_cycles: int = 0,
    ) -> None:
        """Program the PMU and arm the sampling interrupt."""
        if self._active:
            raise HpmError("session already active")
        if interval <= 0:
            raise HpmError("sampling interval must be positive")
        if len(events) > 4:
            raise HpmError("only four performable counters exist")
        for i, event in enumerate(events):
            self.pmu.program(i, event)
        self.dear.program(dear_min_latency)
        self.core.enable_sampling(interval, self._overflow, overhead_cycles)
        self._active = True

    def set_listener(self, listener: Callable[[Sample], None]) -> None:
        """Register the monitoring thread's signal handler."""
        self._listener = listener

    def stop(self) -> None:
        if self._active:
            self.core.disable_sampling()
            self.dear.disable()
            self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def _overflow(self, core: "Core") -> None:
        miss = self.dear.consume()
        sample = Sample(
            index=self._index,
            pc=core.pc,
            pid=self.pid,
            thread_id=core.cpu_id,  # threads are 1:1 bound to CPUs
            cpu_id=core.cpu_id,
            counters=self.pmu.read_all(),
            btb=self.btb.snapshot(),
            miss_pc=miss.pc if miss else None,
            miss_latency=miss.latency if miss else None,
            miss_addr=miss.addr if miss else None,
            cycles=core.cycles,
        )
        self._index += 1
        if self._listener is not None:
            self._listener(sample)


class PerfmonDriver:
    """Driver facade: one session per CPU of a machine."""

    def __init__(self, cores: list["Core"], pid: int = 0) -> None:
        self.sessions = [PerfmonSession(core, pid) for core in cores]

    def stop_all(self) -> None:
        for session in self.sessions:
            session.stop()
