"""Simulated threading / OpenMP-like runtime."""

from .barrier import emit_barrier
from .team import Call, ParallelProgram, RunResult, static_chunks
from .thread import SimThread

__all__ = [
    "emit_barrier",
    "Call",
    "ParallelProgram",
    "RunResult",
    "static_chunks",
    "SimThread",
]
