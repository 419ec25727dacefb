#!/usr/bin/env python
"""COBRA on the NPB-like suite: the paper's headline experiment (Fig. 5-7).

Runs the six reported benchmarks (BT, SP, LU, FT, MG, CG) on both
simulated platforms, raw and under COBRA's noprefetch and excl
strategies -- the fidelity matrix's cells (``repro.bench``), the same
runs ``BENCH_perf.json`` pins -- and prints Figures 5, 6 and 7:
speedup, normalized L3 misses, normalized bus transactions.  EP and IS
are also run once to confirm why the paper excludes them (no
long-latency coherent misses worth optimizing).

Run:  python examples/npb_cobra.py           (~30 s on two cores)
"""

from __future__ import annotations

from repro.analysis import format_figure
from repro.bench import run_bench
from repro.scenario import MACHINES, npb_spec, run_cell
from repro.workloads import REPORTED


def main() -> None:
    doc = run_bench(REPORTED, strategies=("none", "noprefetch", "excl"), jobs=2)
    # every strategy computes the raw run's output, on both machines
    outputs = {(c["machine"], c["benchmark"], c["digest"]) for c in doc["cases"]}
    assert len(outputs) == len(doc["cases"]) // 3, "a rewrite changed an output"
    for figure in "567":
        print(f"\n{format_figure(doc, figure)}")

    print("\n===== why EP and IS are excluded (paper §5.2) =====")
    for name in ("ep", "is"):
        events = run_cell(MACHINES["smp4"], npb_spec(name)).mem_events()
        print(
            f"{name}: coherent bus events = {events.coherent_bus_events()}, "
            f"hitm = {events.bus_rd_hitm} — no long-latency coherent misses to remove"
        )


if __name__ == "__main__":
    main()
