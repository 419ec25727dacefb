"""Kernel template validation rules."""

import pytest

from repro.compiler import (
    ComputeLoop,
    GatherLoop,
    IntSumLoop,
    StreamLoop,
)
from repro.errors import CompilerError


class TestStreamLoop:
    def test_needs_terms(self):
        with pytest.raises(CompilerError):
            StreamLoop("x", dest="d", terms=())


class TestOthers:
    def test_intsum_validation(self):
        with pytest.raises(CompilerError):
            IntSumLoop("m", dest="d", sources=())
        with pytest.raises(CompilerError):
            IntSumLoop("m", dest="d", sources=tuple(("s", i) for i in range(11)))
        IntSumLoop("m", dest="d", sources=(("a", 0), ("a", 8)))

    def test_compute_validation(self):
        with pytest.raises(CompilerError):
            ComputeLoop("c", flops_per_iter=0)
        with pytest.raises(CompilerError):
            ComputeLoop("c", flops_per_iter=17)

    def test_gather_defaults(self):
        loop = GatherLoop("g")
        assert (loop.ptr, loop.col, loop.val, loop.x, loop.y) == (
            "ptr", "col", "a", "x", "y",
        )
