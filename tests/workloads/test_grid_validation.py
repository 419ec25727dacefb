"""GridBenchmark safety rails and the templates' NumPy meaning."""

import numpy as np
import pytest

from repro.compiler.kernels import StreamLoop, Term
from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.errors import WorkloadError
from repro.workloads.npb.grid import GridBenchmark


class TestValidation:
    def test_in_place_shifted_stencil_rejected(self):
        """u[i] = u[i-1] would race across chunk boundaries."""
        with pytest.raises(WorkloadError):
            GridBenchmark(
                "bad", 16,
                [StreamLoop("s", dest="u", terms=(Term("u", 1.0, -1),))],
            )

    def test_in_place_pointwise_allowed(self):
        GridBenchmark(
            "ok", 16, [StreamLoop("s", dest="u", terms=(Term("u", 0.5, 0),))]
        )

    def test_shift_beyond_halo_rejected(self):
        with pytest.raises(WorkloadError):
            GridBenchmark(
                "far", 16,
                [StreamLoop("s", dest="d", terms=(Term("u", 1.0, 10_000),))],
            )


class TestStreamMeaning:
    def test_stream_evaluator_matches_manual(self):
        arrays = {"a": np.arange(40.0), "d": np.zeros(40)}
        template = StreamLoop(
            "t", dest="d", terms=(Term("a", 2.0, 0), Term("a", 1.0, 1))
        )
        template.apply(arrays, start=4, n=16, origin={})
        expect = 2.0 * np.arange(4, 20) + np.arange(5, 21)
        assert np.allclose(arrays["d"][4:20], expect)
        assert np.all(arrays["d"][:4] == 0) and np.all(arrays["d"][20:] == 0)

    def test_stream_evaluator_with_scale(self):
        arrays = {"a": np.full(16, 3.0), "w": np.arange(16.0), "d": np.zeros(16)}
        template = StreamLoop("t", dest="d", terms=(Term("a", 1.0, 0),), scale="w")
        template.apply(arrays, start=0, n=16, origin={})
        assert np.allclose(arrays["d"], 3.0 * np.arange(16))


class TestCustomGrid:
    def test_small_custom_benchmark_end_to_end(self):
        bench = GridBenchmark(
            "mini", 8,
            [
                StreamLoop(
                    "mini_sweep",
                    dest="v",
                    terms=(Term("u", 0.5, 0), Term("u", 0.25, -8), Term("u", 0.25, 8)),
                ),
                StreamLoop("mini_back", dest="u", terms=(Term("v", 1.0, 0),)),
            ],
            default_reps=2,
        )
        machine = Machine(itanium2_smp(2))
        prog = bench.build(machine, 2)
        prog.run(max_bundles=50_000_000)
        assert bench.verify(prog)
