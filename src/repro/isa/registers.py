"""Register files with IA-64-style register rotation.

The simulated CPU exposes the register resources COBRA-generated code
relies on:

* 128 general registers ``r0..r127`` (``r0`` is hardwired to zero); the
  region ``r32..r32+sor-1`` rotates, with the rotating-region size
  (``sor``) set by ``alloc``;
* 128 floating-point registers ``f0..f127`` (``f0`` = 0.0 and ``f1`` =
  1.0 hardwired); ``f32..f127`` always rotate;
* 64 predicate registers ``p0..p63`` (``p0`` hardwired true);
  ``p16..p63`` always rotate;
* the application registers ``LC`` (loop count) and ``EC`` (epilog
  count) used by the modulo-scheduled loop branches.

Rotation is implemented with rename bases (``rrb.gr``, ``rrb.fr``,
``rrb.pr``) exactly as on IA-64: a rotate decrements each base modulo
its region size, so a value written to logical ``r32`` in one software-
pipeline stage is visible as ``r33`` in the next.
"""

from __future__ import annotations

import functools

from ..errors import RegisterError

__all__ = [
    "RegisterFile", "rename_table",
    "GR_ROT_START", "FR_ROT_START", "FR_ROT_SIZE", "PR_ROT_START", "PR_ROT_SIZE",
]

GR_ROT_START = 32
FR_ROT_START = 32
FR_ROT_SIZE = 96
PR_ROT_START = 16
PR_ROT_SIZE = 48

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=None)
def rename_table(n_regs: int, first: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Logical -> physical register numbers, one row per rename base.

    For a file of ``n_regs`` registers whose ``size`` registers from
    ``first`` rotate, ``table[rrb % len(table)][idx]`` is the physical
    register behind logical ``idx`` under rename base ``rrb`` — the
    rule :class:`RegisterFile` applies one access at a time, tabulated
    for the interpreter.  Built on first use, once per geometry (the
    GR file has one per rotating-region size), and shared by every core.
    """
    last = first + size
    return tuple(
        tuple(
            first + (idx - first + rrb) % size if first <= idx < last else idx
            for idx in range(n_regs)
        )
        for rrb in range(size or 1)
    )


class RegisterFile:
    """All architectural register state of one simulated core."""

    __slots__ = ("gr", "fr", "pr", "lc", "ec", "sor", "rrb_gr", "rrb_fr", "rrb_pr")

    def __init__(self) -> None:
        self.gr: list[int] = [0] * 128
        self.fr: list[float] = [0.0] * 128
        self.fr[1] = 1.0
        self.pr: list[bool] = [False] * 64
        self.pr[0] = True
        self.lc = 0
        self.ec = 0
        self.sor = 0          # size of rotating GR region (set by alloc)
        self.rrb_gr = 0
        self.rrb_fr = 0
        self.rrb_pr = 0

    # -- renaming -------------------------------------------------------

    def _phys_gr(self, idx: int) -> int:
        sor = self.sor
        if sor and GR_ROT_START <= idx < GR_ROT_START + sor:
            return GR_ROT_START + (idx - GR_ROT_START + self.rrb_gr) % sor
        return idx

    def _phys_fr(self, idx: int) -> int:
        if idx >= FR_ROT_START:
            return FR_ROT_START + (idx - FR_ROT_START + self.rrb_fr) % FR_ROT_SIZE
        return idx

    def _phys_pr(self, idx: int) -> int:
        if idx >= PR_ROT_START:
            return PR_ROT_START + (idx - PR_ROT_START + self.rrb_pr) % PR_ROT_SIZE
        return idx

    # -- general registers ---------------------------------------------

    def read_gr(self, idx: int) -> int:
        if not 0 <= idx < 128:
            raise RegisterError(f"r{idx} out of range")
        return self.gr[self._phys_gr(idx)]

    def write_gr(self, idx: int, value: int) -> None:
        if not 0 <= idx < 128:
            raise RegisterError(f"r{idx} out of range")
        if idx == 0:
            raise RegisterError("r0 is read-only")
        # wrap to signed 64-bit two's complement (matches memory storage)
        self.gr[self._phys_gr(idx)] = ((value + (1 << 63)) & _MASK64) - (1 << 63)

    # -- floating-point registers ----------------------------------------

    def read_fr(self, idx: int) -> float:
        if not 0 <= idx < 128:
            raise RegisterError(f"f{idx} out of range")
        return self.fr[self._phys_fr(idx)]

    def write_fr(self, idx: int, value: float) -> None:
        if not 0 <= idx < 128:
            raise RegisterError(f"f{idx} out of range")
        if idx in (0, 1):
            raise RegisterError(f"f{idx} is read-only")
        self.fr[self._phys_fr(idx)] = value

    # -- predicate registers ---------------------------------------------

    def read_pr(self, idx: int) -> bool:
        if not 0 <= idx < 64:
            raise RegisterError(f"p{idx} out of range")
        return self.pr[self._phys_pr(idx)]

    def write_pr(self, idx: int, value: bool) -> None:
        if not 0 <= idx < 64:
            raise RegisterError(f"p{idx} out of range")
        if idx == 0:
            raise RegisterError("p0 is read-only")
        self.pr[self._phys_pr(idx)] = bool(value)

    # -- rotation ---------------------------------------------------------

    def alloc_rotating(self, sor: int) -> None:
        """Set the size of the rotating GR region (``alloc``)."""
        if sor < 0 or GR_ROT_START + sor > 128:
            raise RegisterError(f"illegal rotating region size {sor}")
        self.sor = sor

    def rotate(self) -> None:
        """One register rotation (performed by ``br.ctop``/``br.wtop``)."""
        if self.sor:
            self.rrb_gr = (self.rrb_gr - 1) % self.sor
        self.rrb_fr = (self.rrb_fr - 1) % FR_ROT_SIZE
        self.rrb_pr = (self.rrb_pr - 1) % PR_ROT_SIZE

    def clear_rrb(self) -> None:
        """Reset all rename bases (``clrrrb``)."""
        self.rrb_gr = self.rrb_fr = self.rrb_pr = 0
