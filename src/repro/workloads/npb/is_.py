"""IS — integer sort kernel (structural analogue).

Bucket counting of integer keys: each thread histograms its key chunk
into a *private* count array (the standard optimized OpenMP IS), then
the per-thread histograms are merged with an integer sum loop.  Because
the histograms are private and the key stream is read-only, IS
generates almost no long-latency coherent misses — the paper excludes
IS (like EP) from its final results for exactly this reason, and this
analogue reproduces the property.
"""

from __future__ import annotations

import numpy as np

from ...compiler.kernels import HistogramLoop, IntSumLoop
from ...compiler.prefetch import PrefetchPlan
from ...errors import WorkloadError
from ...runtime.team import ParallelProgram, static_chunks
from .common import NpbBenchmark, register

__all__ = ["IS"]

_N_KEYS = 8192
_N_BINS = 256


class IsBenchmark(NpbBenchmark):
    name = "is"
    default_reps = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(43)
        self.keys = rng.integers(0, _N_BINS, _N_KEYS).astype(np.int64)
        self.count = HistogramLoop("is_count", key="keys", cnt="hist")

    def populate(self, prog: ParallelProgram, n_threads: int, plan: PrefetchPlan) -> None:
        if n_threads > 8:
            raise WorkloadError("is: merge kernel supports at most 8 threads")
        prog.int_array("keys", _N_KEYS, self.keys)
        prog.int_array("hist", _N_BINS * n_threads)
        prog.int_array("total", _N_BINS)
        hist = prog.arrays["hist"]

        h_fn = prog.kernel(self.count, plan)
        chunks = static_chunks(_N_KEYS, n_threads)
        prog.region(
            [
                prog.make_call(
                    h_fn, start, count, raw={"hist": hist.addr(_N_BINS * tid)}
                )
                if count
                else None
                for tid, (start, count) in enumerate(chunks)
            ]
        )
        merge = IntSumLoop(
            "is_merge",
            dest="total",
            sources=tuple(("hist", _N_BINS * t) for t in range(n_threads)),
        )
        m_fn = prog.kernel(merge, plan)
        prog.region(
            [
                prog.make_call(m_fn, start, count) if count else None
                for start, count in static_chunks(_N_BINS, n_threads)
            ]
        )


IS = register(IsBenchmark())
