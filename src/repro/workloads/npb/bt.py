"""BT — block tridiagonal CFD application (structural analogue).

One time step: compute the right-hand side from the 5-point stencil of
``u``, sweep the x direction (i-contiguous shifts), sweep the y
direction (stride-``side`` shifts — the sweep that shares rows across
thread chunks), and add the update back.  Four sweeps per step echoes
BT's lower loop count relative to SP (paper Table 1: BT 140 lfetch /
34 br.ctop vs SP 276 / 67).
"""

from __future__ import annotations

from ...compiler.kernels import StreamLoop, Term
from .common import register
from .grid import GridBenchmark

__all__ = ["BT"]

_SIDE = 32


def _specs(side: int) -> list[StreamLoop]:
    return [
        StreamLoop(
            "bt_rhs",
            dest="rhs",
            terms=(
                Term("u", -4.0, 0),
                Term("u", 1.0, -1),
                Term("u", 1.0, 1),
                Term("u", 1.0, -side),
                Term("u", 1.0, side),
            ),
        ),
        StreamLoop(
            "bt_xsolve",
            dest="lhsx",
            terms=(Term("rhs", 0.5, 0), Term("rhs", 0.25, -1), Term("rhs", 0.25, 1)),
        ),
        StreamLoop(
            "bt_ysolve",
            dest="lhsy",
            terms=(
                Term("lhsx", 0.5, 0),
                Term("lhsx", 0.25, -side),
                Term("lhsx", 0.25, side),
            ),
        ),
        StreamLoop(
            "bt_add",
            dest="u",
            terms=(Term("u", 1.0, 0), Term("lhsy", 0.01, 0)),
        ),
    ]


BT = register(GridBenchmark("bt", _SIDE, _specs(_SIDE), default_reps=6))
