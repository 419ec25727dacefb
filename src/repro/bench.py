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
    WorkloadSpec,
    daxpy_spec,
    npb_spec,
    run_cell,
)

__all__ = [
    "BENCH_SCHEMA",
    "MATRIX_BENCHMARKS",
    "matrix_case",
    "run_case",
    "run_bench",
    "format_report",
    "check_baseline",
    "compare_reports",
]

#: Schema tag written into BENCH_perf.json (bump on layout changes).
#: /4 dropped every host-dependent field (wall seconds, rates, host,
#: creation time); /5 added ``opt_events`` and ``deployments`` per case
#: and the four remaining reported kernels.  An older file is not a
#: baseline for ``--compare``.
BENCH_SCHEMA = "repro-bench-perf/5"

#: Fixed cache scale for all bench runs (matches the validate default).
BENCH_SCALE = 16


def matrix_case(benchmark: str, machine_name: str) -> tuple[MachineRecipe, WorkloadSpec]:
    """The machine and workload of one case.

    Sizes are fixed here so reports stay comparable across PRs; every
    workload runs one thread per CPU.
    """
    recipe = replace(MACHINES[machine_name], scale=BENCH_SCALE)
    if benchmark == "daxpy":
        return recipe, daxpy_spec(4096, recipe.n_cpus, 4)
    return recipe, npb_spec(benchmark, recipe.n_cpus, 1)


def run_case(benchmark: str, machine_name: str, strategy: str) -> dict:
    """Run one (benchmark, machine, strategy) case on a fresh machine.

    Returns the case dict of the BENCH_perf.json schema.
    """
    recipe, workload = matrix_case(benchmark, machine_name)
    obs = run_cell(recipe, workload, strategy)
    report = obs.report
    return {
        "id": f"{machine_name}/{benchmark}/{strategy}",
        "benchmark": benchmark,
        "machine": machine_name,
        "strategy": strategy,
        "threads": recipe.n_cpus,
        "scale": BENCH_SCALE,
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


def run_bench(
    benchmarks: Iterable[str] | None = None,
    machines: Iterable[str] | None = None,
    strategies: Iterable[str] | None = None,
    jobs: int = 1,
) -> dict:
    """Run the matrix (default: all of it); return the BENCH_perf.json document."""
    from .parallel import run_tasks

    cases = run_tasks(
        [
            (run_case, (b, m, s))
            for m in machines or MACHINES
            for b in benchmarks or MATRIX_BENCHMARKS
            for s in strategies or ALL_STRATEGIES
        ],
        jobs=jobs,
    )
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
        f"{'case':<28} {'sim cycles':>11} {'retired':>9} {'samples':>8} "
        f"{'trace%':>7} {'digest':>10}"
    )
    lines = [header, "-" * len(header)]
    for case in report["cases"]:
        lines.append(
            f"{case['id']:<28} {case['sim_cycles']:>11} {case['retired']:>9} "
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
            lines.append(f"{cid:<28} not run")
            continue
        changed = list(_diff("", base_cases[cid], cur_cases[cid]))
        work = [_WORK_LEAF.match(line) is not None for line in changed]
        ok = ok and all(work)
        verdict = "identical" if not changed else "moved (work)" if all(work) else "DIFFERS"
        lines.append(f"{cid:<28} {verdict}")
        lines.extend(f"  {line}{'  (work)' if w else ''}" for line, w in zip(changed, work))
    for cid in sorted(set(cur_cases) - set(base_cases)):
        lines.append(f"{cid:<28} new case (not in baseline)")
    return lines, ok
