"""Generic 2-D grid stencil benchmark (the BT / SP / LU chassis).

The simulated CFD applications (BT, SP, LU) share a structure: per
time step, several grid sweeps — alternating i-contiguous and
j-direction (stride-``side``) stencils — each parallelized over the
flattened index range with OpenMP static chunking.  The j-direction
sweeps read rows owned by neighbouring threads, which is the inherent
true sharing; the compiler's 9-lines-ahead prefetch adds the
prefetch-induced sharing COBRA removes.

Arrays carry a halo of ``side`` elements on both ends so stencil shifts
never leave the allocation; all sweeps are double-buffered (destination
is never a shifted source), so parallel execution is deterministic.
"""

from __future__ import annotations

import numpy as np

from ...compiler.kernels import ReduceLoop, StreamLoop
from ...compiler.prefetch import PrefetchPlan
from ...errors import WorkloadError
from ...runtime.team import ParallelProgram, static_chunks
from .common import NpbBenchmark

__all__ = ["GridBenchmark"]


class GridBenchmark(NpbBenchmark):
    """A sequence of double-buffered stencil sweeps over a 2-D grid."""

    def __init__(
        self,
        name: str,
        side: int,
        specs: list[StreamLoop],
        default_reps: int = 6,
        with_residual: bool = True,
        seed: int = 7,
    ) -> None:
        self.name = name
        self.side = side
        self.n = side * side
        self.halo = 2 * side + 16
        self.specs = specs
        self.default_reps = default_reps
        self.with_residual = with_residual
        self.seed = seed
        names: set[str] = set()
        for spec in specs:
            names.add(spec.dest)
            for term in spec.terms:
                names.add(term.array)
                if term.array == spec.dest and term.shift != 0:
                    raise WorkloadError(
                        f"{name}/{spec.name}: in-place shifted stencil would race"
                    )
                if abs(term.shift) > self.halo:
                    raise WorkloadError(f"{name}/{spec.name}: shift exceeds halo")
            if spec.scale is not None:
                names.add(spec.scale)
        self.array_names = sorted(names)

    def populate(self, prog: ParallelProgram, n_threads: int, plan: PrefetchPlan) -> None:
        rng = np.random.default_rng(self.seed)
        padded = self.n + 2 * self.halo
        for name in self.array_names:
            prog.array(name, padded, rng.uniform(0.5, 1.5, padded))
        if self.with_residual:
            prog.array("__res", 16 * n_threads)  # one line per thread slot

        chunks = static_chunks(self.n, n_threads)
        for spec in self.specs:
            fn = prog.kernel(spec, plan)
            prog.region(
                [
                    prog.make_call(fn, self.halo + start, count) if count else None
                    for start, count in chunks
                ]
            )
        if self.with_residual:
            rfn = prog.kernel(ReduceLoop(f"{self.name}_norm", src_a=self.specs[-1].dest), plan)
            res = prog.arrays["__res"]
            prog.region(
                [
                    prog.make_call(
                        rfn, self.halo + start, count, raw={"result": res.addr(16 * tid)}
                    )
                    if count
                    else None
                    for tid, (start, count) in enumerate(chunks)
                ]
            )
