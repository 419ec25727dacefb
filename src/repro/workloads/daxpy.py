"""The OpenMP DAXPY kernel (paper §2, Figures 1-3).

``y[i] = y[i] + a * x[i]`` inside an outer repetition loop, statically
chunked across threads — the paper's motivating example.  The builder
compiles the icc-style binary (software-pipelined ``br.ctop`` loop,
rotating prefetch queue, prologue prefetches); ``verify_daxpy`` checks
the result against the evaluation of the recorded schedule.

The paper's three working-set classes (128 KB, 512 KB, 2 MB, both
arrays counted) map to element counts through the machine's cache scale
factor, so cache-fit crossovers land where the paper's do.
"""

from __future__ import annotations

import numpy as np

from ..compiler.kernels import StreamLoop, Term
from ..compiler.prefetch import AGGRESSIVE, PrefetchPlan
from ..cpu.machine import Machine
from ..errors import WorkloadError
from ..runtime.team import ParallelProgram

__all__ = ["build_daxpy", "working_set_elems", "DAXPY_CLASSES", "verify_daxpy"]

#: Paper working-set labels -> total bytes (both arrays) before scaling.
DAXPY_CLASSES = {"128K": 128 * 1024, "512K": 512 * 1024, "2M": 2 * 1024 * 1024}


def working_set_elems(label: str, scale: int) -> int:
    """Elements per array for a paper working-set class at ``scale``."""
    try:
        total = DAXPY_CLASSES[label]
    except KeyError:
        raise WorkloadError(
            f"unknown working set {label!r} (choose from {sorted(DAXPY_CLASSES)})"
        ) from None
    return total // scale // 2 // 8  # two arrays, 8-byte elements


def _kernel(name: str, a: float) -> StreamLoop:
    return StreamLoop(name, dest="y", terms=(Term("y", 1.0), Term("x", a)))


def build_daxpy(
    machine: Machine,
    n_elems: int,
    n_threads: int,
    outer_reps: int,
    a: float = 2.0,
    plan: PrefetchPlan = AGGRESSIVE,
    name: str = "daxpy",
) -> ParallelProgram:
    """Compile and build the parallel DAXPY program (ready to run)."""
    if n_elems < 16 * n_threads:
        raise WorkloadError("working set too small to chunk across threads")
    prog = ParallelProgram(machine, name)
    prog.array("x", n_elems, np.arange(n_elems, dtype=float))
    prog.array("y", n_elems, 1.0)
    fn = prog.kernel(_kernel(name, a), plan)
    prog.parallel_for(fn, n_elems, n_threads)
    prog.build(outer_reps=outer_reps)
    return prog


def verify_daxpy(prog: ParallelProgram, outer_reps: int, a: float = 2.0) -> bool:
    """Built with ``outer_reps`` and coefficient ``a``, and every array
    equal to the evaluation of its schedule."""
    return (
        prog.outer_reps == [outer_reps]
        and prog.templates.get(prog.name) == _kernel(prog.name, a)
        and prog.check()
    )
