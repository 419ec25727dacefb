"""Machine assembly: cores + cache hierarchies + fabric + memory.

``Machine(config)`` builds either platform from a
:class:`~repro.config.MachineConfig` the same way: one
:class:`~repro.memory.fabric.CoherentFabric` with ``config.n_nodes``
node buses, CPU ``i`` on node ``i // cpus_per_node``.  The 4-way
Itanium 2 SMP server is the one-node machine; the SGI Altix cc-NUMA
system has two CPUs per node and first-touch page placement between
them.
"""

from __future__ import annotations

from operator import attrgetter

from ..config import MachineConfig
from ..errors import MachineError
from ..isa.binary import BinaryImage
from ..memory.dram import MemorySystem
from ..memory.events import MemEvents
from ..memory.fabric import CoherentFabric
from ..memory.hierarchy import CpuCacheSystem
from .core import Core

__all__ = ["Machine"]

_RETIRED = attrgetter("retired")


class Machine:
    """One simulated multiprocessor."""

    def __init__(self, config: MachineConfig, memory_bytes: int = 8 << 20) -> None:
        self.config = config
        self.mem = MemorySystem(memory_bytes)
        self.fabric = CoherentFabric(config.n_nodes, config.bus, config.latency, self.mem)
        self.caches = [
            CpuCacheSystem(cpu, cpu // config.cpus_per_node, config, self.fabric)
            for cpu in range(config.n_cpus)
        ]
        self.cores = [Core(cpu, self.caches[cpu], self.mem) for cpu in range(config.n_cpus)]
        self._next_text = 0x4000_0000

    @property
    def n_cpus(self) -> int:
        return self.config.n_cpus

    def node_of(self, cpu: int) -> int:
        return cpu // self.config.cpus_per_node

    # -- code ------------------------------------------------------------------

    def next_text_base(self, reserve: int = 1 << 20) -> int:
        """Hand out a disjoint text segment (programs must not overlap)."""
        base = self._next_text
        self._next_text += reserve
        return base

    def load_image(self, image: BinaryImage) -> None:
        """Make ``image`` fetchable by every core (shared address space)."""
        for core in self.cores:
            core.add_image(image)

    # -- validation -------------------------------------------------------------

    def attach_validator(self, validator) -> None:
        """Hook an invariant checker into every cache hierarchy.

        Only one validator may be attached at a time (each cache has a
        single observer slot on its access path).
        """
        for cache in self.caches:
            if cache.validator is not None and cache.validator is not validator:
                raise MachineError("another validator is already attached")
        for cache in self.caches:
            cache.set_validator(validator)

    def detach_validator(self) -> None:
        for cache in self.caches:
            cache.set_validator(None)

    # -- aggregate observables ----------------------------------------------------

    def total_cycles(self) -> int:
        """Wall-clock proxy: the cycle count of the slowest core."""
        return max(core.cycles for core in self.cores)

    def total_retired(self) -> int:
        # the optimizer's tick hook asks after every scheduler slice
        return sum(map(_RETIRED, self.cores))

    def aggregate_events(self) -> MemEvents:
        """System-wide memory-event totals (COBRA's profiler input)."""
        total = MemEvents()
        for cache in self.caches:
            total.add(cache.events)
        return total

    def events_of(self, cpu: int) -> MemEvents:
        if not 0 <= cpu < self.n_cpus:
            raise MachineError(f"no cpu {cpu}")
        return self.caches[cpu].events
