"""Workloads: the OpenMP DAXPY example and the NPB-like suite.

A name is imported from its submodule on first access, so a run loads
the one workload it executes (DESIGN.md §2 "Import layering").
"""

from importlib import import_module

_EXPORTS = {
    "build_daxpy": "daxpy",
    "verify_daxpy": "daxpy",
    "working_set_elems": "daxpy",
    "DAXPY_CLASSES": "daxpy",
    "BENCHMARKS": "npb.common",
    "REPORTED": "npb",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
