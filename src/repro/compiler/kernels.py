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

Each template also carries its executable meaning, ``apply(mem, start,
n, origin)``: one call over ``n`` elements as NumPy operations on
``mem`` (array name -> contents, updated in place).  ``origin`` maps an
array name (or ``"result"``, a reduction's slot) to ``(array, element)``
— the element the template's index 0 refers to; an array it omits is
indexed from ``start`` when the loop index walks it, and from element 0
when data indexes it (CSR positions, gathered columns, histogram bins).
``ParallelProgram.evaluate`` replays a program's recorded schedule
through these methods to verify the simulated arrays; they read no
register, no binary and no calling convention, so a code-generation bug
cannot hide in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CompilerError, WorkloadError

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


def _window(mem: dict, origin: dict, name: str, start: int, shift: int, n: int) -> np.ndarray:
    """The ``n`` elements of ``name`` from loop index 0 plus ``shift``."""
    array, at = origin.get(name, (name, start))
    view, lo = mem[array], at + shift
    if lo < 0 or lo + n > len(view):
        raise WorkloadError(f"{name}: [{lo}, {lo + n}) is outside {array!r}")
    return view[lo : lo + n]


def _pick(mem: dict, origin: dict, name: str, index: np.ndarray) -> tuple:
    """``(array, positions)`` of the elements of ``name`` that data
    indexes (counted from element 0 unless overridden) — bounds-checked,
    never wrapped around."""
    array, at = origin.get(name, (name, 0))
    view, pos = mem[array], at + index
    if len(pos) and (pos.min() < 0 or pos.max() >= len(view)):
        raise WorkloadError(f"{name}: an index is outside {array!r}")
    return view, pos


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

    def apply(self, mem: dict, start: int, n: int, origin: dict) -> None:
        """Terms accumulate in order, then the optional scale multiplies."""
        acc = None
        for t in self.terms:
            term = t.coef * _window(mem, origin, t.array, start, t.shift, n)
            acc = term if acc is None else term + acc
        if self.scale is not None:
            acc = acc * _window(mem, origin, self.scale, start, 0, n)
        _window(mem, origin, self.dest, start, 0, n)[:] = acc


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

    def apply(self, mem: dict, start: int, n: int, origin: dict) -> None:
        """The sum, accumulated in loop order, overwrites the result slot."""
        terms = _window(mem, origin, self.src_a, start, 0, n)
        if self.src_b is not None:
            terms = terms * _window(mem, origin, self.src_b, start, 0, n)
        array, slot = origin["result"]
        mem[array][slot] = np.add.accumulate(terms)[-1]


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

    def apply(self, mem: dict, start: int, n: int, origin: dict) -> None:
        """Rows from ``start``; ``ptr`` holds absolute positions in
        ``col``/``val``, ``col`` absolute indices into ``x``.  Each row's
        products sum in order from zero, then add into ``y``."""
        ptr = _window(mem, origin, self.ptr, start, 0, n + 1)
        k = np.arange(ptr[0], ptr[-1])
        rows = np.repeat(np.arange(n), np.diff(ptr))
        col, pos = _pick(mem, origin, self.col, k)
        x, xpos = _pick(mem, origin, self.x, col[pos])
        val, vpos = _pick(mem, origin, self.val, k)
        sums = np.bincount(rows, weights=x[xpos] * val[vpos], minlength=n)
        _window(mem, origin, self.y, start, 0, n)[:] += sums


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

    def apply(self, mem: dict, start: int, n: int, origin: dict) -> None:
        total = 0
        for arr, shift in self.sources:
            total = total + _window(mem, origin, arr, start, shift, n)
        _window(mem, origin, self.dest, start, 0, n)[:] = total


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

    def apply(self, mem: dict, start: int, n: int, origin: dict) -> None:
        """Keys from ``start`` are absolute bin indices into ``cnt``."""
        key = _window(mem, origin, self.key, start, 0, n)
        cnt, bins = _pick(mem, origin, self.cnt, key)
        np.add.at(cnt, bins, 1)


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

    def apply(self, mem: dict, start: int, n: int, origin: dict) -> None:
        """Registers only: no memory effect."""


KernelTemplate = (
    StreamLoop | ReduceLoop | GatherLoop | HistogramLoop | ComputeLoop | IntSumLoop
)
