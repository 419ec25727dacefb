"""Common infrastructure for the NPB-like benchmark suite.

Each benchmark is a structural analogue of its NAS Parallel Benchmark
namesake (DESIGN.md §1): the same loop templates, array roles, sharing
patterns, and parallelization (OpenMP static chunking over the outer
dimension), at class-S-like scaled sizes.  All stencil kernels are
double-buffered (destination differs from shifted sources), so parallel
execution is deterministic.

``NpbBenchmark.build`` returns a ready :class:`ParallelProgram` whose
arrays, kernels and regions a subclass's ``populate`` adds;
``verify`` checks it was built with the given repetitions and that
every array matches ``ParallelProgram.evaluate`` — the recorded region
schedule replayed through the kernel templates' NumPy meaning.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from importlib import import_module

from ...compiler.prefetch import AGGRESSIVE, PrefetchPlan
from ...cpu.machine import Machine
from ...errors import WorkloadError
from ...runtime.team import ParallelProgram

__all__ = ["NpbBenchmark", "BENCHMARKS", "register"]


class NpbBenchmark:
    """Base class: subclasses define kernels and the region schedule."""

    name = "base"
    default_reps = 4

    def build(
        self,
        machine: Machine,
        n_threads: int,
        plan: PrefetchPlan = AGGRESSIVE,
        reps: int | None = None,
    ) -> ParallelProgram:
        """The benchmark's program, built with ``reps`` outer
        repetitions (default: its own)."""
        prog = ParallelProgram(machine, self.name)
        self.populate(prog, n_threads, plan)
        prog.build(outer_reps=reps or self.default_reps)
        return prog

    def populate(self, prog: ParallelProgram, n_threads: int, plan: PrefetchPlan) -> None:
        """Allocate the arrays, compile the kernels, add the regions."""
        raise NotImplementedError

    def verify(self, prog: ParallelProgram, reps: int | None = None) -> bool:
        """Built by this benchmark with ``reps`` (default: its own), and
        every array equal to the evaluation of its schedule."""
        reps = reps or self.default_reps
        return (
            prog.name == self.name
            and all(r == reps for r in prog.outer_reps)
            and prog.check()
        )


#: Benchmark name -> defining module, in the paper's order (Table 1).
_MODULES = {
    "bt": "bt", "sp": "sp", "lu": "lu", "ft": "ft",
    "mg": "mg", "cg": "cg", "ep": "ep", "is": "is_",
}
_registered: dict[str, NpbBenchmark] = {}


class _Registry(Mapping):
    """Benchmark name -> instance, read-only.

    Knows all eight names without importing any of them: a benchmark's
    module is imported, and registers its instance, when that name is
    first looked up — ``repro npb cg`` never builds MG's grids.
    """

    def __getitem__(self, name: str) -> NpbBenchmark:
        if name not in _registered:
            import_module(f".{_MODULES[name]}", __package__)
        return _registered[name]

    def __iter__(self) -> Iterator[str]:
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


BENCHMARKS = _Registry()


def register(bench: NpbBenchmark) -> NpbBenchmark:
    if bench.name in _registered:
        raise WorkloadError(f"benchmark {bench.name!r} already registered")
    _registered[bench.name] = bench
    return bench
