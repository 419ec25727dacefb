#!/usr/bin/env python
"""The paper's motivation study (Figures 1-3): one binary is not enough.

Sweeps the OpenMP DAXPY kernel over the paper's three working-set
classes and 1/2/4 threads, as the three static binaries (prefetch /
noprefetch / prefetch.excl) -- the fidelity matrix's Fig. 3 cases
(``repro.bench``), the same runs ``BENCH_perf.json`` pins -- and prints
the Figure-3 normalized execution times.  The punchline is the
paper's: no single statically-compiled binary wins everywhere, which
is why the binary must be re-adapted at runtime.

Run:  python examples/daxpy_working_sets.py        (~10 s on two cores)
"""

from __future__ import annotations

from repro.analysis import format_fig3
from repro.bench import FIG3_BENCHMARKS, run_bench


def main() -> None:
    print(format_fig3(run_bench(FIG3_BENCHMARKS, ("smp4",), jobs=2)))
    print(
        "\nNote how noprefetch wins at 128K with 2-4 threads but loses badly at"
        "\n2M, while prefetch.excl helps in between — the adaptation COBRA does"
        "\nat runtime (see examples/quickstart.py)."
    )


if __name__ == "__main__":
    main()
