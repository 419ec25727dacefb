"""Kernel templates — the compiler's input language.

The NPB-like workloads and DAXPY are built from five loop templates
that cover the loop shapes the paper's Table 1 exhibits:

* :class:`StreamLoop` — elementwise linear combination over contiguous
  streams (DAXPY, stencil sweeps, smoothers).  Lowered to a modulo-
  scheduled ``br.ctop`` loop with rotating registers and an icc-style
  rotating prefetch queue (the paper's Figure 2 shape).
* :class:`ReduceLoop` — sum / dot-product reduction, lowered to a
  ``br.cloop`` counted loop.
* :class:`GatherLoop` — CSR sparse matrix-vector product row sweep;
  the inner non-counted loop uses ``br.wtop``.
* :class:`HistogramLoop` — indexed read-modify-write increments
  (bucket counting, IS).
* :class:`ComputeLoop` — register-only FP work (EP).

Each template instance compiles to one shared *function* that all
threads call with per-chunk parameters in registers, so one binary is
executed by every thread — which is what makes COBRA's single patch
visible to all of them.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field

from ..errors import CompilerError

__all__ = [
    "Term",
    "StreamLoop",
    "ReduceLoop",
    "GatherLoop",
    "HistogramLoop",
    "ComputeLoop",
    "IntSumLoop",
    "KernelTemplate",
    "MAX_SHIFT",
]

#: Largest element offset a template may encode.  Shifts become part of
#: the register calling convention (``addr`` params are precomputed as
#: ``base + 8*(chunk_start+shift)``), so a bound here is what lets a
#: generator reason about halo allocation instead of chasing wild
#: addresses into unrelated arrays.
MAX_SHIFT = 1 << 20


def _check_name(owner: str, what: str, name: object) -> None:
    """Template names and array names become labels and allocation keys;
    reject anything that cannot round-trip through the assembler text."""
    if not isinstance(name, str) or not name:
        raise CompilerError(f"{owner}: {what} must be a non-empty string, got {name!r}")
    if any(ch.isspace() for ch in name):
        raise CompilerError(f"{owner}: {what} {name!r} contains whitespace")


def _check_shift(owner: str, shift: object) -> None:
    if not isinstance(shift, int) or isinstance(shift, bool):
        raise CompilerError(f"{owner}: shift must be an integer, got {shift!r}")
    if abs(shift) > MAX_SHIFT:
        raise CompilerError(f"{owner}: shift {shift} out of range (|shift| <= {MAX_SHIFT})")


@dataclass(frozen=True)
class Term:
    """One linear term ``coef * array[i + shift]``."""

    array: str
    coef: float = 1.0
    shift: int = 0  # element offset relative to the loop index

    def __post_init__(self) -> None:
        _check_name("Term", "array", self.array)
        if not isinstance(self.coef, (int, float)) or not math.isfinite(self.coef):
            raise CompilerError(f"Term({self.array}): coef must be finite, got {self.coef!r}")
        _check_shift(f"Term({self.array})", self.shift)


@dataclass(frozen=True)
class StreamLoop:
    """``dest[i] = sum_j coef_j * src_j[i + shift_j]`` for i in a chunk.

    ``scale`` optionally multiplies the sum by ``scale[i]`` (elementwise
    product — used by FT's butterfly analogue).
    """

    name: str
    dest: str
    terms: tuple[Term, ...]

    scale: str | None = None

    def __post_init__(self) -> None:
        _check_name("StreamLoop", "name", self.name)
        _check_name(self.name, "dest", self.dest)
        if self.scale is not None:
            _check_name(self.name, "scale", self.scale)
        if not self.terms:
            raise CompilerError(f"{self.name}: StreamLoop needs at least one term")
        if len(self.terms) > 8:
            raise CompilerError(f"{self.name}: too many terms (max 8)")


@dataclass(frozen=True)
class ReduceLoop:
    """``result = sum_i src_a[i] * src_b[i]`` (dot) or ``sum_i src_a[i]``."""

    name: str
    src_a: str
    src_b: str | None = None

    def __post_init__(self) -> None:
        _check_name("ReduceLoop", "name", self.name)
        _check_name(self.name, "src_a", self.src_a)
        if self.src_b is not None:
            _check_name(self.name, "src_b", self.src_b)


@dataclass(frozen=True)
class GatherLoop:
    """CSR SpMV rows: ``y[i] += sum_{k in row i} a[k] * x[col[k]]``.

    The inner per-row loop is non-counted (``br.wtop``); ``col`` and
    ``a`` are streamed (prefetchable), ``x`` is gathered (not
    prefetchable — as a real compiler would conclude).
    """

    name: str
    ptr: str = "ptr"
    col: str = "col"
    val: str = "a"
    x: str = "x"
    y: str = "y"

    def __post_init__(self) -> None:
        _check_name("GatherLoop", "name", self.name)
        roles = {"ptr": self.ptr, "col": self.col, "val": self.val, "x": self.x, "y": self.y}
        for role, arr in roles.items():
            _check_name(self.name, role, arr)
        if len(set(roles.values())) != len(roles):
            raise CompilerError(
                f"{self.name}: GatherLoop roles must name five distinct arrays, "
                f"got {tuple(roles.values())!r}"
            )


@dataclass(frozen=True)
class IntSumLoop:
    """``dest[i] = sum_j src_j[i + shift_j]`` over 64-bit integers.

    Used for integer merges (IS's histogram reduction).  Sources are
    (array, shift) pairs; coefficients are implicitly one.
    """

    name: str
    dest: str
    sources: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        _check_name("IntSumLoop", "name", self.name)
        _check_name(self.name, "dest", self.dest)
        if not self.sources:
            raise CompilerError(f"{self.name}: IntSumLoop needs at least one source")
        if len(self.sources) > 10:
            raise CompilerError(f"{self.name}: too many sources (max 10)")
        for arr, shift in self.sources:
            _check_name(self.name, "source array", arr)
            _check_shift(f"{self.name}[{arr}]", shift)


@dataclass(frozen=True)
class HistogramLoop:
    """``cnt[key[i]] += 1`` — indexed RMW on a (possibly shared) array."""

    name: str
    key: str = "key"
    cnt: str = "cnt"

    def __post_init__(self) -> None:
        _check_name("HistogramLoop", "name", self.name)
        _check_name(self.name, "key", self.key)
        _check_name(self.name, "cnt", self.cnt)
        if self.key == self.cnt:
            raise CompilerError(f"{self.name}: key and cnt must be distinct arrays")


@dataclass(frozen=True)
class ComputeLoop:
    """Register-only FP work: ``flops_per_iter`` chained fmas per
    iteration (EP's arithmetic core)."""

    name: str
    flops_per_iter: int = 4

    def __post_init__(self) -> None:
        _check_name("ComputeLoop", "name", self.name)
        if not isinstance(self.flops_per_iter, int) or isinstance(self.flops_per_iter, bool):
            raise CompilerError(f"{self.name}: flops_per_iter must be an integer")
        if not 1 <= self.flops_per_iter <= 16:
            raise CompilerError(f"{self.name}: flops_per_iter out of range")


KernelTemplate = (
    StreamLoop | ReduceLoop | GatherLoop | HistogramLoop | ComputeLoop | IntSumLoop
)
