"""CG — conjugate gradient kernel (structural analogue).

The CG iteration over a random sparse matrix: a CSR sparse
matrix-vector product (the gather with its non-counted inner loop), two
dot-product reductions whose per-thread partial sums land in *adjacent
slots of one result vector* — NPB CG's classic false-sharing site —
and three vector updates.  The gathered ``p`` vector is read by every
thread while being rewritten each iteration, so CG has the strongest
read-sharing of the suite (matching its top ranking in the paper's
Figures 5-6).
"""

from __future__ import annotations

import numpy as np

from ...compiler.kernels import GatherLoop, ReduceLoop, StreamLoop, Term
from ...compiler.prefetch import PrefetchPlan
from ...runtime.team import ParallelProgram, static_chunks
from .common import NpbBenchmark, register

__all__ = ["CG"]

_N = 512
_NNZ_PER_ROW = 4

#: False sharing is intentional: partial dot products go to *adjacent*
#: 8-byte slots (stride 1), several threads per 128-byte line.
_RES_STRIDE = 1


class CgBenchmark(NpbBenchmark):
    name = "cg"
    default_reps = 5

    def __init__(self) -> None:
        rng = np.random.default_rng(31)
        self.n = _N
        cols = np.empty((_N, _NNZ_PER_ROW), dtype=np.int64)
        for i in range(_N):
            cols[i] = rng.choice(_N, _NNZ_PER_ROW, replace=False)
            cols[i].sort()
        self.ptr = np.arange(_N + 1, dtype=np.int64) * _NNZ_PER_ROW
        self.col = cols.reshape(-1)
        self.val = rng.uniform(0.01, 0.05, _N * _NNZ_PER_ROW)
        self.init = {
            "x": np.zeros(_N),
            "r": rng.uniform(0.5, 1.5, _N),
            "p": rng.uniform(0.5, 1.5, _N),
            "q": np.zeros(_N),
        }
        self.zero_q = StreamLoop("cg_zeroq", dest="q", terms=(Term("q", 0.0, 0),))
        self.spmv = GatherLoop("cg_spmv", ptr="ptr", col="colv", val="aval", x="p", y="q")
        self.dot_rr = ReduceLoop("cg_rho", src_a="r", src_b="r")
        self.dot_pq = ReduceLoop("cg_pq", src_a="p", src_b="q")
        self.update_x = StreamLoop(
            "cg_updx", dest="x", terms=(Term("x", 1.0, 0), Term("p", 0.1, 0))
        )
        self.update_r = StreamLoop(
            "cg_updr", dest="r", terms=(Term("r", 1.0, 0), Term("q", -0.05, 0))
        )
        self.update_p = StreamLoop(
            "cg_updp", dest="p", terms=(Term("p", 0.5, 0), Term("r", 1.0, 0))
        )

    def populate(self, prog: ParallelProgram, n_threads: int, plan: PrefetchPlan) -> None:
        for name, data in self.init.items():
            prog.array(name, _N, data)
        prog.int_array("ptr", _N + 1, self.ptr)
        prog.int_array("colv", _N * _NNZ_PER_ROW, self.col)
        prog.array("aval", _N * _NNZ_PER_ROW, self.val)
        prog.array("__res", 2 * _RES_STRIDE * max(n_threads, 16) + 16)
        res = prog.arrays["__res"]

        chunks = static_chunks(_N, n_threads)
        z_fn = prog.kernel(self.zero_q, plan)
        g_fn = prog.kernel(self.spmv, plan)
        rr_fn = prog.kernel(self.dot_rr, plan)
        pq_fn = prog.kernel(self.dot_pq, plan)
        x_fn = prog.kernel(self.update_x, plan)
        r_fn = prog.kernel(self.update_r, plan)
        p_fn = prog.kernel(self.update_p, plan)

        prog.parallel_for(z_fn, _N, n_threads)
        prog.parallel_for(g_fn, _N, n_threads)
        prog.region(
            [
                prog.make_call(
                    rr_fn, start, count, raw={"result": res.addr(_RES_STRIDE * tid)}
                )
                if count
                else None
                for tid, (start, count) in enumerate(chunks)
            ]
        )
        prog.region(
            [
                prog.make_call(
                    pq_fn, start, count,
                    raw={"result": res.addr(_RES_STRIDE * (n_threads + tid))},
                )
                if count
                else None
                for tid, (start, count) in enumerate(chunks)
            ]
        )
        prog.parallel_for(x_fn, _N, n_threads)
        prog.parallel_for(r_fn, _N, n_threads)
        prog.parallel_for(p_fn, _N, n_threads)


CG = register(CgBenchmark())
