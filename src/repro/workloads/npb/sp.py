"""SP — scalar pentadiagonal CFD application (structural analogue).

SP factors its solves into more, smaller sweeps than BT (paper Table 1
gives SP roughly twice BT's loop and prefetch counts): per time step we
run seven sweeps — rhs, two x-direction factor sweeps, two y-direction
factor sweeps (stride-``side``, the cross-chunk sharers), a pinvr-like
pointwise transform, and the add-back.
"""

from __future__ import annotations

from ...compiler.kernels import StreamLoop, Term
from .common import register
from .grid import GridBenchmark

__all__ = ["SP"]

_SIDE = 32


def _specs(side: int) -> list[StreamLoop]:
    return [
        StreamLoop(
            "sp_rhs",
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
            "sp_txinvr",
            dest="rs2",
            terms=(Term("rhs", 0.9, 0), Term("speed", 0.1, 0)),
        ),
        StreamLoop(
            "sp_xsolve1",
            dest="rsx",
            terms=(Term("rs2", 0.5, 0), Term("rs2", 0.25, -1), Term("rs2", 0.25, 1)),
        ),
        StreamLoop(
            "sp_xsolve2",
            dest="rsx2",
            terms=(Term("rsx", 0.6, 0), Term("rsx", 0.2, -2), Term("rsx", 0.2, 2)),
        ),
        StreamLoop(
            "sp_ysolve1",
            dest="rsy",
            terms=(
                Term("rsx2", 0.5, 0),
                Term("rsx2", 0.25, -side),
                Term("rsx2", 0.25, side),
            ),
        ),
        StreamLoop(
            "sp_ysolve2",
            dest="rsy2",
            terms=(
                Term("rsy", 0.6, 0),
                Term("rsy", 0.2, -2 * side),
                Term("rsy", 0.2, 2 * side),
            ),
        ),
        StreamLoop(
            "sp_add",
            dest="u",
            terms=(Term("u", 1.0, 0), Term("rsy2", 0.01, 0)),
        ),
    ]


SP = register(GridBenchmark("sp", _SIDE, _specs(_SIDE), default_reps=6))
