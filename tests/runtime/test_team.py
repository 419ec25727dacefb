"""Parallel program builder: chunking, regions, barriers, results."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.compiler import ReduceLoop, StreamLoop, Term
from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.errors import RuntimeError_
from repro.runtime import ParallelProgram, static_chunks


class TestStaticChunks:
    @given(st.integers(0, 10_000), st.integers(1, 16))
    def test_partition_covers_range_exactly(self, n, t):
        chunks = static_chunks(n, t)
        assert len(chunks) == t
        covered = []
        for start, count in chunks:
            assert count >= 0
            covered.extend(range(start, start + count))
        assert covered == list(range(n))

    @given(st.integers(1, 10_000), st.integers(1, 16))
    def test_chunks_are_balanced(self, n, t):
        counts = [c for _, c in static_chunks(n, t) if c]
        assert max(counts) - min(counts) <= -(-n // t)

    def test_bad_args(self):
        with pytest.raises(RuntimeError_):
            static_chunks(-1, 2)
        with pytest.raises(RuntimeError_):
            static_chunks(4, 0)


def _daxpy_prog(machine, n=256, threads=2, reps=3):
    prog = ParallelProgram(machine, "t")
    prog.array("x", n, np.arange(n, dtype=float))
    prog.array("y", n, 1.0)
    fn = prog.kernel(StreamLoop("k", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0))))
    prog.parallel_for(fn, n, threads)
    prog.build(outer_reps=reps)
    return prog


class TestBuildAndRun:
    def test_parallel_for_correctness(self, smp4):
        prog = _daxpy_prog(smp4, threads=4, reps=5)
        result = prog.run()
        assert np.allclose(prog.f64("y")[:256], 1.0 + 10.0 * np.arange(256))
        assert result.cycles > 0 and result.retired > 0
        assert len(result.per_cpu_cycles) == 4

    def test_single_thread_no_barrier(self, smp4):
        prog = _daxpy_prog(smp4, threads=1, reps=2)
        assert "__barrier_t" not in prog.image.labels
        prog.run()
        assert np.allclose(prog.f64("y")[:256], 1.0 + 4.0 * np.arange(256))

    def test_barrier_synchronizes_regions(self, smp4):
        """Region 2 reads what region 1 wrote across chunk boundaries."""
        n = 256
        prog = ParallelProgram(smp4, "b")
        prog.array("a", n + 64, 1.0)
        prog.array("b", n + 64, 0.0)
        prog.array("c", n + 64, 0.0)
        f1 = prog.kernel(StreamLoop("w", dest="b", terms=(Term("a", 3.0, 0),)))
        # shifted read crosses chunk boundaries: needs the barrier
        f2 = prog.kernel(StreamLoop("r", dest="c", terms=(Term("b", 1.0, 16),)))
        from repro.runtime.team import static_chunks as chunks

        for fn in (f1, f2):
            prog.region(
                [prog.make_call(fn, s, c) if c else None for s, c in chunks(n, 4)]
            )
        prog.build(outer_reps=2)
        prog.run()
        assert np.allclose(prog.f64("c")[: n - 16], 3.0)

    def test_run_result_is_delta(self, smp4):
        prog = _daxpy_prog(smp4, threads=2, reps=1)
        first = prog.run()
        # a second identical build on the same machine measures only itself
        prog2 = ParallelProgram(smp4, "t2")
        prog2.array("x2", 64, 1.0)
        fn = prog2.kernel(StreamLoop("k2", dest="x2", terms=(Term("x2", 1.0, 0),)))
        prog2.parallel_for(fn, 64, 2)
        prog2.build()
        second = prog2.run()
        assert second.cycles < first.cycles

    def test_region_thread_count_must_match(self, smp4):
        prog = ParallelProgram(smp4, "m")
        prog.array("x", 64, 1.0)
        fn = prog.kernel(StreamLoop("k", dest="x", terms=(Term("x", 1.0, 0),)))
        prog.parallel_for(fn, 64, 2)
        with pytest.raises(RuntimeError_):
            prog.parallel_for(fn, 64, 3)

    def test_build_validation(self, smp4):
        prog = ParallelProgram(smp4, "v")
        with pytest.raises(RuntimeError_):
            prog.build()  # no regions
        prog2 = _daxpy_prog(smp4)
        with pytest.raises(RuntimeError_):
            prog2.build()  # already built
        with pytest.raises(RuntimeError_):
            ParallelProgram(smp4, "w").build(outer_reps=0)

    def test_run_requires_build(self, smp4):
        prog = ParallelProgram(smp4, "u")
        with pytest.raises(RuntimeError_):
            prog.run()

    def test_make_call_raw_required(self, smp4):
        prog = ParallelProgram(smp4, "raw")
        prog.array("a", 64, 1.0)
        fn = prog.kernel(ReduceLoop("red", src_a="a"))
        with pytest.raises(RuntimeError_):
            prog.make_call(fn, 0, 64)  # missing the result address
        call = prog.make_call(fn, 0, 64, raw={"result": prog.arrays["a"].addr(0)})
        assert len(call.args) == len(fn.params)

    def test_call_arity_checked(self, smp4):
        from repro.runtime.team import Call

        prog = ParallelProgram(smp4, "ar")
        prog.array("a", 64, 1.0)
        template = StreamLoop("k", dest="a", terms=(Term("a", 1.0, 0),))
        fn = prog.kernel(template)
        with pytest.raises(RuntimeError_):
            Call(fn, (1, 2), template, 0, 64, {})
