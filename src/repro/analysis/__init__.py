"""Analysis: the paper's figures and tables, rendered from the fidelity
matrix document (``BENCH_perf.json``, :mod:`repro.bench`) and the built
images."""

from .report import *  # noqa: F403 -- the package is its one module
from .report import __all__  # noqa: F401
