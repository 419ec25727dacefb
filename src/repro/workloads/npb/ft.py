"""FT — 3-D FFT kernel (structural analogue).

Per iteration: an *evolve* pointwise multiply by the twiddle array,
two butterfly stages (linear combinations of elements ``stride`` apart,
scaled by per-element twiddles — real-valued analogue of the complex
butterflies), a bit-reversal-like permutation implemented as a gather
(this is FT's non-counted loop, giving it its ``br.wtop`` entries in
Table 1), and a checksum reduction.

The small stride of stage one keeps its sharing intra-chunk; stage two's
large stride reads across thread chunks, which is where FT's coherent
misses come from.
"""

from __future__ import annotations

import numpy as np

from ...compiler.kernels import GatherLoop, ReduceLoop, StreamLoop, Term
from ...compiler.prefetch import AGGRESSIVE, PrefetchPlan
from ...cpu.machine import Machine
from ...runtime.team import Call, ParallelProgram, static_chunks
from .common import NpbBenchmark, apply_stream, register

__all__ = ["FT"]

_SIDE = 32
_N = _SIDE * _SIDE
_HALO = _SIDE + 16


class FtBenchmark(NpbBenchmark):
    name = "ft"
    default_reps = 4

    def __init__(self) -> None:
        rng = np.random.default_rng(11)
        self.n = _N
        self.halo = _HALO
        padded = _N + 2 * _HALO
        self.init = {
            "re": rng.uniform(0.5, 1.5, padded),
            "tw1": rng.uniform(0.9, 1.1, padded),
            "tw2": rng.uniform(0.9, 1.1, padded),
            "work": np.zeros(padded),
            "st1": np.zeros(padded),
            "st2": np.zeros(padded),
            "out": np.zeros(padded),
        }
        # bit-reversal-like permutation as a 1-nnz-per-row CSR gather
        perm = rng.permutation(_N)
        self.ptr = np.arange(_N + 1, dtype=np.int64)
        self.col = (perm + _HALO).astype(np.int64)  # halo-adjusted source index
        self.val = np.ones(_N)

        self.evolve = StreamLoop("ft_evolve", dest="work", terms=(Term("re", 1.0, 0),), scale="tw1")
        self.stage1 = StreamLoop(
            "ft_fftx",
            dest="st1",
            terms=(Term("work", 0.5, 0), Term("work", 0.5, 8)),
            scale="tw2",
        )
        self.stage2 = StreamLoop(
            "ft_ffty",
            dest="st2",
            terms=(Term("st1", 0.5, 0), Term("st1", 0.5, _SIDE)),
            scale="tw1",
        )
        self.bitrev = GatherLoop("ft_bitrev", ptr="ptr", col="col", val="aval", x="st2", y="out")
        self.checksum = ReduceLoop("ft_checksum", src_a="out")

    def build(
        self,
        machine: Machine,
        n_threads: int,
        plan: PrefetchPlan = AGGRESSIVE,
        reps: int | None = None,
    ) -> ParallelProgram:
        reps = reps or self.default_reps
        prog = ParallelProgram(machine, self.name)
        for name, data in self.init.items():
            prog.array(name, len(data), data)
        prog.int_array("ptr", _N + 1, self.ptr)
        prog.int_array("col", _N, self.col)
        prog.array("aval", _N, self.val)
        prog.array("__res", 16 * n_threads)
        res = prog.arrays["__res"]

        chunks = static_chunks(_N, n_threads)
        for template in (self.evolve, self.stage1, self.stage2):
            fn = prog.kernel(template, plan)
            prog.region(
                [
                    prog.make_call(fn, _HALO + start, count) if count else None
                    for start, count in chunks
                ]
            )
        gfn = prog.kernel(self.bitrev, plan)
        calls = []
        for start, count in chunks:
            if count:
                # rows are un-haloed; y=out is halo-indexed via its own addr
                call = prog.make_call(gfn, start, count)
                args = list(call.args)
                # patch the y address to the halo origin (gather rows use
                # absolute row ids; out rows live at halo offset)
                for i, spec in enumerate(gfn.params):
                    if spec.kind == "addr" and spec.array == "out":
                        args[i] = prog.arrays["out"].addr(_HALO + start)
                calls.append(Call(gfn, tuple(args)))
            else:
                calls.append(None)
        prog.region(calls)
        rfn = prog.kernel(self.checksum, plan)
        prog.region(
            [
                prog.make_call(
                    rfn, _HALO + start, count, raw={"result": res.addr(16 * tid)}
                )
                if count
                else None
                for tid, (start, count) in enumerate(chunks)
            ]
        )
        prog.build(outer_reps=reps)
        return prog

    def reference(self, reps: int) -> dict[str, np.ndarray]:
        arrays = {k: v.copy() for k, v in self.init.items()}
        for _ in range(reps):
            apply_stream(arrays, self.evolve, _HALO, _N)
            apply_stream(arrays, self.stage1, _HALO, _N)
            apply_stream(arrays, self.stage2, _HALO, _N)
            out_rows = arrays["out"][_HALO : _HALO + _N]
            src = arrays["st2"]
            out_rows += self.val * src[self.col]
        return arrays

    def verify(self, prog: ParallelProgram, reps: int | None = None) -> bool:
        reps = reps or self.default_reps
        expect = self.reference(reps)
        for name in ("work", "st1", "st2", "out"):
            got = prog.f64(name)[: len(expect[name])]
            if not np.allclose(got, expect[name], rtol=self.rtol):
                return False
        whole = expect["out"][_HALO : _HALO + _N].sum()
        return bool(np.isclose(prog.f64("__res")[::16].sum(), whole, rtol=1e-9))


FT = register(FtBenchmark())
