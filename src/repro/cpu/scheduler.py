"""Time-ordered interleaved execution of multiple cores.

The simulator is sequential, so concurrency is modeled conservatively:
the core with the *smallest cycle count* executes until its clock
passes the second-smallest clock (plus a small margin).  All cores'
clocks therefore stay within roughly one memory stall of each other,
which is what makes shared-resource effects — bus queueing, coherence
ping-pong, barrier spinning — physically meaningful.  (A fixed
bundle-count quantum is *wrong* here: it lets the leader ratchet the
bus ``busy_until`` to its own miss-inflated clock and charges laggards
the gap as phantom queueing delay.)

Tick hooks run between scheduling slices — COBRA's optimization thread
lives there: it is not a simulated core (the paper runs it on spare
capacity; DESIGN.md §15), but it observes and patches the machine while
the worker threads execute.  A hook may return how many more retired
instructions pass before it has anything to do; the scheduler, which
counts them anyway, calls it again only then (DESIGN.md §6).
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..errors import MachineError
from .core import Core

__all__ = ["Scheduler", "DEFAULT_MARGIN"]

#: Extra cycles the running core may advance past the runner-up clock.
#: One bus occupancy keeps interleaving tight without thrashing.
DEFAULT_MARGIN = 16

#: Upper bound on bundles per slice (guards spin loops from starving
#: the tick hooks).
_SLICE_BUNDLES = 512


class Scheduler:
    """Min-clock time-ordered scheduler."""

    def __init__(self, cores: Iterable[Core], margin: int = DEFAULT_MARGIN) -> None:
        self.cores = list(cores)
        if not self.cores:
            raise MachineError("scheduler needs at least one core")
        self.margin = margin
        #: instructions the scheduled cores have retired, kept per slice:
        #: a slice changes only the running core's count
        self.retired = sum(core.retired for core in self.cores)
        #: [hook, retired count at which it is next due]
        self._hooks: list[list] = []
        self._due = 0   # the earliest of those

    def add_tick_hook(self, hook: Callable[[], int | None]) -> None:
        """Call ``hook()`` after the next slice; it returns how many more
        retired instructions pass before it is due again, or ``None`` to
        run after every slice."""
        self._hooks.append([hook, 0])
        self._due = 0

    def _tick(self) -> None:
        """Call the hooks that are due; note when each is due next."""
        retired = self.retired
        due = 1 << 62
        for entry in self._hooks:
            if retired >= entry[1]:
                wait = entry[0]()
                entry[1] = 0 if wait is None else retired + wait
            due = min(due, entry[1])
        self._due = due

    def _run(self, slices: int, budget: int) -> int:
        """Run up to ``slices`` scheduling slices; return bundles executed
        (0 = every core has halted).

        In each, the runnable core with the lowest clock (the first such
        in core order) runs until its clock passes the runner-up's plus
        the margin, its slice body resumed directly, not through
        :meth:`Core.run`.
        """
        cores = self.cores
        margin = self.margin
        total = 0
        for _ in range(slices):
            lowest: Core | None = None
            second = None
            for core in cores:
                if core.halted:
                    continue
                if lowest is None or core.cycles < lowest.cycles:
                    second = lowest.cycles if lowest is not None else None
                    lowest = core
                elif second is None or core.cycles < second:
                    second = core.cycles
            if lowest is None:
                break
            limit = (second if second is not None else lowest.cycles + 100_000) + margin
            before = lowest.retired
            try:
                try:
                    ran = lowest._slices.send((_SLICE_BUNDLES, limit))
                except BaseException as end:
                    ran = lowest._restart(end)
                if not ran and not lowest.halted:
                    # guarantee forward progress even if already past the limit
                    ran = lowest.run(1)
            finally:
                self.retired += lowest.retired - before
            total += ran
            if total > budget:
                raise MachineError(
                    f"execution exceeded {budget} bundles (livelock or runaway loop?)"
                )
            if self.retired >= self._due:
                self._tick()
        return total

    def run_until_halt(self, max_bundles: int | None = None) -> int:
        """Run all cores to completion; return total bundles executed.

        ``max_bundles`` bounds total work (guards against livelock in
        tests); exceeding it raises :class:`MachineError`.
        """
        return self._run(1 << 62, max_bundles if max_bundles is not None else 1 << 62)

    def step(self) -> bool:
        """Advance one slice; return False when all cores have halted."""
        return self._run(1, 1 << 62) > 0
