"""NPB-like benchmark suite (OpenMP NAS Parallel Benchmarks analogues).

:data:`BENCHMARKS` names all eight — the simulated CFD applications
(BT, SP, LU) and the five kernels (FT, MG, CG, EP, IS) — and imports a
benchmark's module when its name is first looked up; importing this
package loads none of them.  The instances ``BT`` ... ``IS`` resolve the
same way.
"""

from .common import BENCHMARKS, NpbBenchmark

#: The six benchmarks the paper reports final results for (EP and IS are
#: excluded: no long-latency coherent misses, §5.2).
REPORTED = ("bt", "sp", "lu", "ft", "mg", "cg")

__all__ = [
    "BENCHMARKS",
    "NpbBenchmark",
    "REPORTED",
    "BT",
    "SP",
    "LU",
    "FT",
    "MG",
    "CG",
    "EP",
    "IS",
]


def __getattr__(name: str):
    if name in __all__:  # BT ... IS; the others are plain globals
        return BENCHMARKS[name.lower()]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
