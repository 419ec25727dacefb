"""MG — multigrid V-cycle kernel (structural analogue).

Three grid levels.  Going down: smooth (5-point stencil), residual,
restrict to the next coarser grid (a 3-point weighted gather — inter-
grid transfers are sparse matvecs, so they carry MG's ``br.wtop``
entries in Table 1).  At the bottom: smooth.  Going up: prolongate
(gather) and post-smooth.  The many per-level kernels give MG its
near-top static prefetch count in Table 1 (419 lfetch).

Coarse grids are small enough that several threads' chunks share cache
lines — MG mixes true stencil sharing with false sharing on the coarse
levels.
"""

from __future__ import annotations

import numpy as np

from ...compiler.kernels import GatherLoop, ReduceLoop, StreamLoop, Term
from ...compiler.prefetch import PrefetchPlan
from ...runtime.team import ParallelProgram, static_chunks
from .common import NpbBenchmark, register

__all__ = ["MG"]

_SIDES = (32, 16, 8)


def _restriction_csr(n_fine: int, n_coarse: int, halo_fine: int):
    """coarse[i] += 0.25 f[2i-1] + 0.5 f[2i] + 0.25 f[2i+1] (halo-adjusted)."""
    ptr = np.arange(n_coarse + 1, dtype=np.int64) * 3
    col = np.empty(3 * n_coarse, dtype=np.int64)
    val = np.tile([0.25, 0.5, 0.25], n_coarse)
    for i in range(n_coarse):
        base = min(2 * i, n_fine - 2)
        col[3 * i : 3 * i + 3] = halo_fine + np.array([base - 1, base, base + 1])
    return ptr, col, val


def _prolongation_csr(n_coarse: int, n_fine: int, halo_coarse: int):
    """fine[i] += 0.5 c[i//2] + 0.5 c[i//2 + (i odd)] (halo-adjusted)."""
    ptr = np.arange(n_fine + 1, dtype=np.int64) * 2
    col = np.empty(2 * n_fine, dtype=np.int64)
    val = np.full(2 * n_fine, 0.05)  # small weight keeps values bounded
    for i in range(n_fine):
        a = min(i // 2, n_coarse - 1)
        b = min(a + (i & 1), n_coarse - 1)
        col[2 * i] = halo_coarse + a
        col[2 * i + 1] = halo_coarse + b
    return ptr, col, val


class MgBenchmark(NpbBenchmark):
    name = "mg"
    default_reps = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(23)
        self.sides = _SIDES
        self.ns = [s * s for s in self.sides]
        self.halos = [s + 16 for s in self.sides]
        self.init: dict[str, np.ndarray] = {}
        for lvl, (n, h) in enumerate(zip(self.ns, self.halos)):
            self.init[f"u{lvl}"] = rng.uniform(0.5, 1.5, n + 2 * h)
            self.init[f"s{lvl}"] = np.zeros(n + 2 * h)
            self.init[f"r{lvl}"] = np.zeros(n + 2 * h)
        self.csr: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for lvl in (0, 1):
            self.csr[f"restrict{lvl}"] = _restriction_csr(
                self.ns[lvl], self.ns[lvl + 1], self.halos[lvl]
            )
            self.csr[f"prolong{lvl}"] = _prolongation_csr(
                self.ns[lvl + 1], self.ns[lvl], self.halos[lvl + 1]
            )

        self.smooth: list[StreamLoop] = []
        self.resid: list[StreamLoop] = []
        self.post: list[StreamLoop] = []
        for lvl, side in enumerate(self.sides):
            self.smooth.append(
                StreamLoop(
                    f"mg_smooth{lvl}",
                    dest=f"s{lvl}",
                    terms=(
                        Term(f"u{lvl}", 0.5, 0),
                        Term(f"u{lvl}", 0.125, -1),
                        Term(f"u{lvl}", 0.125, 1),
                        Term(f"u{lvl}", 0.125, -side),
                        Term(f"u{lvl}", 0.125, side),
                    ),
                )
            )
            self.resid.append(
                StreamLoop(
                    f"mg_resid{lvl}",
                    dest=f"r{lvl}",
                    terms=(Term(f"u{lvl}", 1.0, 0), Term(f"s{lvl}", -0.9, 0)),
                )
            )
            self.post.append(
                StreamLoop(
                    f"mg_psinv{lvl}",
                    dest=f"u{lvl}",
                    terms=(Term(f"u{lvl}", 0.9, 0), Term(f"r{lvl}", 0.1, 0)),
                )
            )
        self.gathers = {
            "restrict0": GatherLoop("mg_rprj0", ptr="rp0", col="rc0", val="rv0", x="r0", y="r1"),
            "restrict1": GatherLoop("mg_rprj1", ptr="rp1", col="rc1", val="rv1", x="r1", y="r2"),
            "prolong1": GatherLoop("mg_interp1", ptr="pp1", col="pc1", val="pv1", x="r2", y="r1"),
            "prolong0": GatherLoop("mg_interp0", ptr="pp0", col="pc0", val="pv0", x="r1", y="r0"),
        }
        self.norm = ReduceLoop("mg_norm", src_a="r0")

    # -- schedule: (kernel kind, level) per rep ------------------------------

    def _schedule(self):
        return [
            ("smooth", 0), ("resid", 0), ("gather", "restrict0"),
            ("smooth", 1), ("resid", 1), ("gather", "restrict1"),
            ("smooth", 2), ("resid", 2),
            ("gather", "prolong1"), ("post", 1),
            ("gather", "prolong0"), ("post", 0),
        ]

    def populate(self, prog: ParallelProgram, n_threads: int, plan: PrefetchPlan) -> None:
        for name, data in self.init.items():
            prog.array(name, len(data), data)
        for key, gather in self.gathers.items():
            ptr, col, val = self.csr[key]
            prog.int_array(gather.ptr, len(ptr), ptr)
            prog.int_array(gather.col, len(col), col)
            prog.array(gather.val, len(val), val)
        prog.array("__res", 16 * n_threads)
        res = prog.arrays["__res"]

        fns = {
            ("smooth", lvl): prog.kernel(t, plan) for lvl, t in enumerate(self.smooth)
        }
        fns.update(
            {("resid", lvl): prog.kernel(t, plan) for lvl, t in enumerate(self.resid)}
        )
        fns.update(
            {("post", lvl): prog.kernel(t, plan) for lvl, t in enumerate(self.post)}
        )
        gfns = {key: prog.kernel(t, plan) for key, t in self.gathers.items()}
        norm_fn = prog.kernel(self.norm, plan)

        for kind, arg in self._schedule():
            if kind == "gather":
                gather = self.gathers[str(arg)]
                gfn = gfns[str(arg)]
                y_lvl = int(gather.y[1])
                y = prog.arrays[gather.y]
                prog.region(
                    [
                        prog.make_call(
                            gfn, start, count,
                            raw={gather.y: y.addr(self.halos[y_lvl] + start)},
                        )
                        if count
                        else None
                        for start, count in static_chunks(self.ns[y_lvl], n_threads)
                    ]
                )
            else:
                lvl = int(arg)
                fn = fns[(kind, lvl)]
                n, halo = self.ns[lvl], self.halos[lvl]
                prog.region(
                    [
                        prog.make_call(fn, halo + start, count) if count else None
                        for start, count in static_chunks(n, n_threads)
                    ]
                )
        prog.region(
            [
                prog.make_call(
                    norm_fn, self.halos[0] + start, count,
                    raw={"result": res.addr(16 * tid)},
                )
                if count
                else None
                for tid, (start, count) in enumerate(static_chunks(self.ns[0], n_threads))
            ]
        )


MG = register(MgBenchmark())
