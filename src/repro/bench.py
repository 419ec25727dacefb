"""The fidelity matrix: what every simulated run must keep producing.

``repro bench`` runs a fixed machine/benchmark/strategy matrix once
and records, per case, only what the simulator determines: the sha256
digest of the output arrays, simulated cycles, retired instructions,
HPM samples, the memory-event counters, the trace-JIT ``fastpath``
block and what the optimizer did (its ``OptEvent`` rows and the
deployments live at run end).  The report is therefore byte-identical
across runs, hosts, ``--jobs`` and ``PYTHONHASHSEED``, and
``--compare`` against the committed ``BENCH_perf.json`` is exact
equality: a change that moves any field changed what the simulator
*does*, not how fast it does it.

The matrix is also the paper's evaluation: its NPB cases run at the
figures' size, so the ``none``/``noprefetch``/``excl`` cases *are* the
Fig. 5/6/7 cells, and the ``daxpy-<working set>`` cases are Fig. 3's
bars.  :mod:`repro.analysis` renders every figure from this document.

Nothing here reads a clock.  Host-speed claims go through
``benchmarks/e2e/compare.py --ab``.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Iterable, Iterator

from .cpu.tracejit import WORK_COUNTERS
from .scenario import (
    ALL_STRATEGIES,
    MACHINES,
    MATRIX_BENCHMARKS,
    MachineRecipe,
    Observables,
    daxpy_spec,
    npb_spec,
    run_cell,
)
from .workloads import BENCHMARKS as NPB, working_set_elems

__all__ = [
    "BENCH_SCHEMA",
    "BENCHMARKS",
    "MATRIX_BENCHMARKS",
    "run_case",
    "run_fig3_case",
    "run_bench",
    "format_report",
    "check_baseline",
    "compare_reports",
]

#: Schema tag written into BENCH_perf.json (bump on layout changes).
#: /4 dropped every host-dependent field (wall seconds, rates, host,
#: creation time); /5 added ``opt_events`` and ``deployments`` per case
#: and the four remaining reported kernels; /6 runs the NPB cases at the
#: figures' size and adds Fig. 3's 27 bars.  An older file is not a
#: baseline for ``--compare``.
BENCH_SCHEMA = "repro-bench-perf/6"

#: Fixed cache scale for all bench runs (matches the validate default).
BENCH_SCALE = 16

#: Fig. 3: DAXPY at the paper's three working-set classes (one bench
#: benchmark each) x 1/2/4 threads on ``smp4`` at cache scale 4, as the
#: static binary each matrix strategy stands in for -- no COBRA runs.
FIG3_SCALE = 4
FIG3_BENCHMARKS = ("daxpy-128K", "daxpy-512K", "daxpy-2M")
FIG3_THREADS = (1, 2, 4)
FIG3_BINARIES = {"none": "prefetch", "noprefetch": "noprefetch", "excl": "prefetch.excl"}

#: every ``--benchmarks`` name
BENCHMARKS = (*MATRIX_BENCHMARKS, *FIG3_BENCHMARKS)


def _case(obs: Observables, recipe: MachineRecipe, machine: str, benchmark: str,
          strategy: str, threads: int) -> dict:
    """The BENCH_perf.json case dict of one run."""
    report = obs.report
    return {
        "id": f"{machine}/{benchmark}/{strategy}",
        "benchmark": benchmark,
        "machine": machine,
        "strategy": strategy,
        "threads": threads,
        "scale": recipe.scale,
        "sim_cycles": obs.cycles,
        "retired": obs.retired,
        "pmu_samples": report.samples if report is not None else 0,
        "digest": obs.digest,
        "events": dict(obs.events),
        "fastpath": obs.fastpath,
        "opt_events": [e.row() for e in (report.events if report is not None else ())],
        "deployments": [
            [d.loop.head, d.optimization, d.n_rewrites]
            for d in (report.deployments if report is not None else ())
        ],
    }


def run_case(benchmark: str, machine_name: str, strategy: str) -> dict:
    """Run one (benchmark, machine, strategy) case on a fresh machine.

    Sizes are fixed here so reports stay comparable across PRs; every
    workload runs one thread per CPU, an NPB kernel at the figures' size
    (three times its default repetitions).
    """
    recipe = replace(MACHINES[machine_name], scale=BENCH_SCALE)
    workload = (daxpy_spec(4096, recipe.n_cpus, 4) if benchmark == "daxpy" else
                npb_spec(benchmark, recipe.n_cpus, 3 * NPB[benchmark].default_reps))
    obs = run_cell(recipe, workload, strategy)
    return _case(obs, recipe, machine_name, benchmark, strategy, recipe.n_cpus)


def run_fig3_case(benchmark: str, threads: int, strategy: str) -> dict:
    """One Fig. 3 bar: the static DAXPY binary ``strategy`` stands in for,
    at the working set ``benchmark`` names (``daxpy-<WS>``), ``threads``.

    The case, benchmark ``<benchmark>-t<threads>``, records the run at
    ``2 * reps`` outer repetitions, plus ``steady_cycles``: its cycles
    minus those of the run at ``reps``, the warm-up the paper's
    million-iteration loop amortizes away.
    """
    recipe = MachineRecipe("smp", 4, FIG3_SCALE)
    n_elems = working_set_elems(benchmark.split("-")[1], FIG3_SCALE)
    reps = max(4, 16384 // n_elems)
    binary = FIG3_BINARIES[strategy]
    warm_up, steady = (run_cell(recipe, daxpy_spec(n_elems, threads, r, binary))
                       for r in (reps, 2 * reps))
    case = _case(steady, recipe, "smp4", f"{benchmark}-t{threads}", strategy, threads)
    case["steady_cycles"] = steady.cycles - warm_up.cycles
    return case


def run_bench(
    benchmarks: Iterable[str] | None = None,
    machines: Iterable[str] | None = None,
    strategies: Iterable[str] | None = None,
    jobs: int = 1,
) -> dict:
    """Run the matrix (default: all of it); return the BENCH_perf.json document.

    A Fig. 3 benchmark runs on ``smp4`` only, and only under the
    strategies :data:`FIG3_BINARIES` maps to a static binary.
    """
    from .parallel import run_tasks

    benchmarks, machines, strategies = (
        benchmarks or BENCHMARKS, machines or MACHINES, strategies or ALL_STRATEGIES)
    cases = run_tasks([
        (run_case, (b, m, s))
        for m in machines for b in benchmarks if b in MATRIX_BENCHMARKS for s in strategies
    ] + [
        (run_fig3_case, (b, t, s))
        for b in benchmarks if b in FIG3_BENCHMARKS and "smp4" in machines
        for t in FIG3_THREADS for s in strategies if s in FIG3_BINARIES
    ], jobs=jobs)
    return {
        "schema": BENCH_SCHEMA,
        "cases": cases,
        "totals": {
            "sim_cycles": sum(c["sim_cycles"] for c in cases),
            "retired": sum(c["retired"] for c in cases),
        },
    }


def format_report(report: dict) -> str:
    """Human-readable table of a bench report."""
    header = (
        f"{'case':<30} {'sim cycles':>11} {'retired':>9} {'samples':>8} "
        f"{'trace%':>7} {'digest':>10}"
    )
    lines = [header, "-" * len(header)]
    for case in report["cases"]:
        lines.append(
            f"{case['id']:<30} {case['sim_cycles']:>11} {case['retired']:>9} "
            f"{case['pmu_samples']:>8} {case['fastpath']['coverage_pct']:>7.1f} "
            f"{case['digest'][:10]:>10}"
        )
    lines.append(f"{len(report['cases'])} case(s)")
    return "\n".join(lines)


def _diff(path: str, base, cur) -> Iterator[str]:
    """One ``path: old -> new`` line per leaf that differs."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(base.keys() | cur.keys()):
            yield from _diff(f"{path}.{key}" if path else key, base.get(key), cur.get(key))
    elif isinstance(base, list) and isinstance(cur, list) and len(base) == len(cur):
        for i, (b, c) in enumerate(zip(base, cur)):
            yield from _diff(f"{path}[{i}]", b, c)
    elif base != cur:
        yield f"{path}: {base} -> {cur}"


#: a :func:`_diff` line of a work counter, machine-wide or per core
_WORK_LEAF = re.compile(
    rf"fastpath\.(?:per_core\[\d+\]\.)?(?:{'|'.join(map(re.escape, WORK_COUNTERS))}): ")


def check_baseline(doc: dict) -> dict:
    """A loaded BENCH_perf.json, checked for what :func:`compare_reports` reads."""
    if doc["schema"] != BENCH_SCHEMA:
        raise ValueError(f"schema is {doc['schema']!r}, not {BENCH_SCHEMA!r}")
    for case in doc["cases"]:
        case["id"], case["digest"], case["sim_cycles"]
    return doc


def compare_reports(baseline: dict, current: dict) -> tuple[list[str], bool]:
    """Diff ``current`` against a committed ``baseline`` report.

    Returns ``(lines, ok)``.  ``ok`` is False when any field of a case
    present in both reports differs; every differing field is named.
    A ``fastpath`` leaf named in ``tracejit.WORK_COUNTERS`` counts how
    the host got through the run, not what the simulated machine did: a
    case in which only those moved reads ``moved (work)`` and passes.
    Cases present in only one report are noted but don't fail the
    comparison — a sub-matrix run can be judged against the full file.
    """
    lines: list[str] = []
    ok = True
    base_cases = {c["id"]: c for c in baseline["cases"]}
    cur_cases = {c["id"]: c for c in current["cases"]}
    for cid in sorted(base_cases):
        if cid not in cur_cases:
            lines.append(f"{cid:<30} not run")
            continue
        changed = list(_diff("", base_cases[cid], cur_cases[cid]))
        work = [_WORK_LEAF.match(line) is not None for line in changed]
        ok = ok and all(work)
        verdict = "identical" if not changed else "moved (work)" if all(work) else "DIFFERS"
        lines.append(f"{cid:<30} {verdict}")
        lines.extend(f"  {line}{'  (work)' if w else ''}" for line, w in zip(changed, work))
    for cid in sorted(set(cur_cases) - set(base_cases)):
        lines.append(f"{cid:<30} new case (not in baseline)")
    return lines, ok
