"""EP — embarrassingly parallel kernel (structural analogue).

Pure register-resident FP work (the Gaussian-pair arithmetic core) plus
a small *private* per-thread tally histogram.  EP touches almost no
shared data — the paper excludes it from the final results because it
"doesn't show any long latency coherent misses", and this analogue
reproduces that property mechanistically (nothing is shared except the
barrier).
"""

from __future__ import annotations

import numpy as np

from ...compiler.kernels import ComputeLoop, HistogramLoop
from ...compiler.prefetch import PrefetchPlan
from ...runtime.team import ParallelProgram, static_chunks
from .common import NpbBenchmark, register

__all__ = ["EP"]

_N_KEYS = 4096
_N_BINS = 64
_BIN_PAD = 16  # pad each thread's bins to a line multiple -> private lines
_COMPUTE_ITERS = 3000


class EpBenchmark(NpbBenchmark):
    name = "ep"
    default_reps = 4

    def __init__(self) -> None:
        rng = np.random.default_rng(41)
        self.keys = rng.integers(0, _N_BINS, _N_KEYS).astype(np.int64)
        self.compute = ComputeLoop("ep_gauss", flops_per_iter=4)
        self.tally = HistogramLoop("ep_tally", key="keys", cnt="bins")

    def populate(self, prog: ParallelProgram, n_threads: int, plan: PrefetchPlan) -> None:
        prog.int_array("keys", _N_KEYS, self.keys)
        stride = _N_BINS + _BIN_PAD
        prog.int_array("bins", stride * n_threads)
        bins = prog.arrays["bins"]

        c_fn = prog.kernel(self.compute, plan)
        chunks = static_chunks(_N_KEYS, n_threads)
        prog.region([prog.make_call(c_fn, 0, _COMPUTE_ITERS) for _ in range(n_threads)])
        t_fn = prog.kernel(self.tally, plan)
        prog.region(
            [
                prog.make_call(
                    t_fn, start, count, raw={"bins": bins.addr(stride * tid)}
                )
                if count
                else None
                for tid, (start, count) in enumerate(chunks)
            ]
        )


EP = register(EpBenchmark())
