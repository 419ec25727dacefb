"""What every workload is: set-up, one checked op, its numbers.

``setup()`` does everything that is not timed (input generation,
``none`` reference runs, one warm-up op), ``op()`` runs one closed-loop
op and checks its outputs, ``end_to_end()`` gives the workload's own
end-to-end numbers and ``layers()`` — traced runs only — the per-layer
ones, running the outside-in probes of the layers the workload
exercises.  Every size in a workload module is a fixed constant; nothing
is calibrated against host time, and the program under test sees only
the inputs generated from ``--seed``.

Op sizes are about a quarter of what the issue sketched (0.75–0.95 s at
reference host speed, 2.7 s on ``cli_cold``, not 3–5 s): the driver gives
92 runs 3420 s, so a run is 15 s of ops plus three set-ups, and the
per-run figure is the median over its ops.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

import host
from tracer import Tracer

__all__ = ["Op", "Workload", "median_of", "ProbeFailure"]


class ProbeFailure(RuntimeError):
    """A probe's output was wrong: the traced run has no result."""


@dataclass
class Op:
    """One timed op: its wall, what failed, and the numbers it produced."""

    wall: float
    failures: list[str] = field(default_factory=list)
    #: named host timings inside the op (seconds)
    parts: dict[str, float] = field(default_factory=dict)
    #: exact, repeatable numbers of the op (simulated counts, bytes, frames)
    counts: dict[str, float] = field(default_factory=dict)

    def at_speed(self, factor: float) -> "Op":
        """The op with every host timing multiplied by ``factor``."""
        return replace(self, wall=self.wall * factor,
                       parts={k: v * factor for k, v in self.parts.items()})


def median_of(ops: list[Op], part: str) -> float:
    return statistics.median(op.parts[part] for op in ops)


class Workload:
    name = ""
    #: peak RSS is read from the children (the work happens in subprocesses)
    children_rss = False

    def __init__(self, seed: int, src: str, tracer: Tracer) -> None:
        self.seed = seed
        self.src = src
        self.tracer = tracer
        #: host-speed samples taken in mid-op; the runner drains them
        self.spins: list[float] = []

    def calibrate(self) -> None:
        """Sample the host speed between two calls of an op or a set-up,
        outside anything that is timed."""
        with self.tracer.span("host.calib_spin"):
            self.spins.append(host.calib_spin())

    def drain_spins(self) -> list[float]:
        spins, self.spins = self.spins, []
        return spins

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        """The end-to-end metrics only this kind of workload has."""
        return {}

    def layers(self, ops: list[Op]) -> dict[str, float]:
        raise NotImplementedError
