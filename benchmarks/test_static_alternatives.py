"""§2's static alternatives vs COBRA's runtime adaptation.

The paper argues a static compiler *could* avoid prefetch-induced
coherent misses with conditional prefetches or multi-version code, but
doesn't, because both cost extra instructions and need accurate
profiles.  This bench quantifies the trade-off on DAXPY:

* at the cache-resident 128K working set, conditional prefetch
  recovers most of noprefetch's win (it nullifies the overshoot);
* at the streaming 2M working set, conditional prefetch keeps most of
  aggressive prefetching's win (unlike blanket noprefetch);
* both pay a per-iteration instruction tax that COBRA's profile-guided
  rewrite does not.
"""

from __future__ import annotations

from conftest import emit

from repro.compiler import AGGRESSIVE, PrefetchPlan
from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.scenario import nop_prefetches
from repro.workloads import build_daxpy, working_set_elems

SCALE = 4
PLANS = {
    "prefetch": AGGRESSIVE,
    "noprefetch": None,  # lfetch -> NOP patches
    "conditional": PrefetchPlan(conditional=True),
    "multiversion": PrefetchPlan(multiversion=True),
}


def _steady(ws: str, threads: int, plan_name: str) -> int:
    n = working_set_elems(ws, SCALE)
    reps = max(4, 16384 // n)
    plan = PLANS[plan_name] or AGGRESSIVE
    cycles = []
    for factor in (1, 2):
        machine = Machine(itanium2_smp(4, scale=SCALE))
        prog = build_daxpy(machine, n, threads, outer_reps=reps * factor, plan=plan)
        if plan_name == "noprefetch":
            nop_prefetches(prog)
        cycles.append(prog.run(max_bundles=400_000_000).cycles)
    return cycles[1] - cycles[0]


def _experiment():
    out = {}
    for ws, threads in (("128K", 4), ("2M", 4)):
        for plan_name in PLANS:
            out[(ws, plan_name)] = _steady(ws, threads, plan_name)
    return out


def test_static_alternatives(benchmark):
    results = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    emit()
    emit("Static prefetch policies, DAXPY, 4 threads (steady-state cycles)")
    for ws in ("128K", "2M"):
        base = results[(ws, "prefetch")]
        row = "  ".join(
            f"{name}={results[(ws, name)]} ({base / results[(ws, name)]:.2f}x)"
            for name in PLANS
        )
        emit(f"  {ws}: {row}")

    # 128K: conditional recovers a meaningful share of noprefetch's win
    base, nopf = results[("128K", "prefetch")], results[("128K", "noprefetch")]
    cond = results[("128K", "conditional")]
    assert nopf < base, "sanity: noprefetch wins at 128K/4T"
    assert cond < base, "conditional prefetch must also beat aggressive here"
    # 2M: conditional must NOT collapse to noprefetch's loss
    base2, nopf2 = results[("2M", "prefetch")], results[("2M", "noprefetch")]
    cond2 = results[("2M", "conditional")]
    assert nopf2 > base2 * 1.5, "sanity: noprefetch loses at 2M"
    assert cond2 < nopf2 * 0.75, "conditional keeps most of the prefetch benefit"
    # multiversion behaves like prefetch at 2M (large chunks)
    mv2 = results[("2M", "multiversion")]
    assert mv2 < nopf2 * 0.75
