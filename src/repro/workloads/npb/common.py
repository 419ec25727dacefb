"""Common infrastructure for the NPB-like benchmark suite.

Each benchmark is a structural analogue of its NAS Parallel Benchmark
namesake (DESIGN.md §1): the same loop templates, array roles, sharing
patterns, and parallelization (OpenMP static chunking over the outer
dimension), at class-S-like scaled sizes.  All stencil kernels are
double-buffered (destination differs from shifted sources), so parallel
execution is deterministic and every benchmark carries an exact NumPy
reference mirror for verification.

``NpbBenchmark.build`` returns a ready :class:`ParallelProgram`;
``reference`` replays the same region sequence in NumPy; ``verify``
compares the simulated arrays against the mirror.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from importlib import import_module

import numpy as np

from ...compiler.kernels import StreamLoop, Term
from ...compiler.prefetch import AGGRESSIVE, PrefetchPlan
from ...cpu.machine import Machine
from ...errors import WorkloadError
from ...runtime.team import ParallelProgram

__all__ = ["NpbBenchmark", "BENCHMARKS", "register", "apply_stream"]


def apply_stream(
    arrays: dict[str, np.ndarray],
    template: StreamLoop,
    start: int,
    n: int,
) -> None:
    """NumPy mirror of one StreamLoop region over ``[start, start+n)``.

    Shifted reads index into halo padding; the arrays are allocated with
    the same padding the simulated kernel sees.
    """
    acc = np.zeros(n)
    for term in template.terms:
        src = arrays[term.array]
        lo = start + term.shift
        acc = acc + term.coef * src[lo : lo + n]
    if template.scale is not None:
        acc = acc * arrays[template.scale][start : start + n]
    arrays[template.dest][start : start + n] = acc


class NpbBenchmark:
    """Base class: subclasses define kernels and the region schedule."""

    name = "base"
    default_reps = 4
    #: verification tolerance (accumulated FP differences stay tiny
    #: because region order is deterministic)
    rtol = 1e-9

    def build(
        self,
        machine: Machine,
        n_threads: int,
        plan: PrefetchPlan = AGGRESSIVE,
        reps: int | None = None,
    ) -> ParallelProgram:
        raise NotImplementedError

    def verify(self, prog: ParallelProgram, reps: int | None = None) -> bool:
        raise NotImplementedError


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


@dataclass(frozen=True)
class StencilSpec:
    """A named double-buffered stencil: dest <- linear combo of srcs."""

    name: str
    dest: str
    terms: tuple[Term, ...]
    scale: str | None = None

    def template(self) -> StreamLoop:
        return StreamLoop(self.name, dest=self.dest, terms=self.terms, scale=self.scale)
