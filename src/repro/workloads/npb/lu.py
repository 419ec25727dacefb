"""LU — SSOR CFD application (structural analogue).

LU's SSOR step sweeps a lower-triangular system (reads -1 and -side
neighbours) and an upper-triangular system (+1 and +side), around a
Jacobian-like pointwise stage and the rhs.  The directional sweeps are
the cross-chunk sharers.  Double buffering replaces the wavefront
dependence (a documented structural substitution — the sharing pattern
at chunk boundaries is what matters for coherent traffic).
"""

from __future__ import annotations

from ...compiler.kernels import StreamLoop, Term
from .common import register
from .grid import GridBenchmark

__all__ = ["LU"]

_SIDE = 32


def _specs(side: int) -> list[StreamLoop]:
    return [
        StreamLoop(
            "lu_rhs",
            dest="rsd",
            terms=(
                Term("u", -4.0, 0),
                Term("u", 1.0, -1),
                Term("u", 1.0, 1),
                Term("u", 1.0, -side),
                Term("u", 1.0, side),
            ),
        ),
        StreamLoop(
            "lu_jacld",
            dest="jac",
            terms=(Term("rsd", 0.8, 0), Term("u", 0.2, 0)),
        ),
        StreamLoop(
            "lu_blts",
            dest="lo",
            terms=(Term("jac", 0.6, 0), Term("jac", 0.2, -1), Term("jac", 0.2, -side)),
        ),
        StreamLoop(
            "lu_buts",
            dest="hi",
            terms=(Term("lo", 0.6, 0), Term("lo", 0.2, 1), Term("lo", 0.2, side)),
        ),
        StreamLoop(
            "lu_update",
            dest="u",
            terms=(Term("u", 1.0, 0), Term("hi", 0.01, 0)),
        ),
    ]


LU = register(GridBenchmark("lu", _SIDE, _specs(_SIDE), default_reps=6))
