"""Repeatable performance harness for the simulator hot path.

Times the simulate-execute loop on fixed workload/strategy/machine
matrices and emits a machine-readable ``BENCH_perf.json``.  Two things
matter and the harness reports both:

* **speed** — wall seconds per case, simulated cycles per wall second,
  retired instructions per wall second, PMU samples per wall second;
* **fidelity** — the sha256 digest of the workload's output arrays and
  the full memory-event counter snapshot per case.  The simulator is
  deterministic, so these must be byte-identical between two builds of
  the simulator; a hot-path "optimization" that changes them is a
  semantics change, not a speedup.

Cross-PR comparison: run ``repro bench --quick --out before.json`` on
the old tree and the same command on the new tree, then compare
``wall_s`` (speed) and ``digest``/``events`` (fidelity) per case id.

Scale note: wall time is host-dependent; cycles/sec and digests are the
portable parts of the report.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import replace
from typing import Iterable

from .config import ProfileDBConfig
from .cpu import Machine
from .scenario import (
    ALL_STRATEGIES,
    MACHINES,
    MachineRecipe,
    WorkloadSpec,
    daxpy_spec,
    npb_spec,
    run_cell,
)

__all__ = [
    "BENCH_SCHEMA",
    "QUICK_BENCHMARKS",
    "FULL_BENCHMARKS",
    "REGRESSION_THRESHOLD",
    "run_case",
    "run_bench",
    "run_warm_case",
    "run_fleet_case",
    "format_report",
    "compare_reports",
]

#: Schema tag written into BENCH_perf.json (bump on layout changes).
#: /2 added the per-case ``fastpath`` block (trace-compile counters);
#: /3 added the OSR/trace-tree counters to it (osr_entries, tree_links,
#: resume_hits, promotions, exit_sites); spin_forwards and
#: spin_iters_skipped joined it later without a bump (additive keys).
BENCH_SCHEMA = "repro-bench-perf/3"

#: ``--compare`` fails on wall-clock regressions beyond this fraction.
REGRESSION_THRESHOLD = 0.15

QUICK_BENCHMARKS = ("daxpy", "cg")
FULL_BENCHMARKS = ("daxpy", "cg", "mg")

#: Fixed cache scale for all bench runs (matches the validate default).
BENCH_SCALE = 16


def _case(benchmark: str, machine_name: str) -> tuple[MachineRecipe, WorkloadSpec]:
    """The timed machine and workload of one case.

    Sizes are fixed here so reports stay comparable across PRs; every
    workload runs one thread per CPU.
    """
    recipe = replace(MACHINES[machine_name], scale=BENCH_SCALE)
    if benchmark == "daxpy":
        return recipe, daxpy_spec(4096, recipe.n_cpus, 4)
    return recipe, npb_spec(benchmark, recipe.n_cpus, 1)


def run_case(
    benchmark: str,
    machine_name: str,
    strategy: str,
    samples: int = 3,
) -> dict:
    """Time one (benchmark, machine, strategy) case.

    Each sample is a fresh machine and a fresh program build (builds are
    not timed); the median wall time is the headline number.  Returns the
    case dict of the BENCH_perf.json schema.
    """
    recipe, workload = _case(benchmark, machine_name)
    first = None
    sample_rows = []
    for _ in range(max(1, samples)):
        obs = run_cell(recipe, workload, strategy)
        if first is None:
            first = obs
        elif (first.digest, first.events, first.fastpath) != (
            obs.digest, obs.events, obs.fastpath
        ):
            raise AssertionError(
                f"non-deterministic run: {benchmark}/{machine_name}/{strategy}"
            )
        sample_rows.append(round(obs.wall_s, 6))
    wall_median = sorted(sample_rows)[len(sample_rows) // 2]
    cycles, retired = first.cycles, first.retired
    pmu_samples = first.report.samples if first.report is not None else 0
    return {
        "id": f"{machine_name}/{benchmark}/{strategy}",
        "benchmark": benchmark,
        "machine": machine_name,
        "strategy": strategy,
        "threads": recipe.n_cpus,
        "scale": BENCH_SCALE,
        "wall_s": sample_rows,
        "wall_s_median": wall_median,
        "sim_cycles": cycles,
        "retired": retired,
        "pmu_samples": pmu_samples,
        "cycles_per_sec": round(cycles / wall_median) if wall_median else 0,
        "retired_per_sec": round(retired / wall_median) if wall_median else 0,
        "samples_per_sec": round(pmu_samples / wall_median, 2) if wall_median else 0,
        "digest": first.digest,
        "events": dict(first.events),
        "fastpath": first.fastpath,
    }


def fastpath_stats(machine: Machine) -> dict:
    """Aggregate trace-compile observability over a machine's cores.

    Everything here is a deterministic function of the simulated run —
    ``run_case`` asserts it is identical across samples, the same way it
    does for digests and memory-event counters.
    """
    per_core = []
    summed = (
        "compiles", "invalidations", "entries", "iterations",
        "compiled_bundles", "osr_entries", "tree_links", "resume_hits",
        "promotions", "evicted", "spin_forwards", "spin_iters_skipped",
    )
    totals = dict.fromkeys(summed + ("exit_sites", "bundles", "decodes"), 0)
    deopts: dict[str, int] = {}
    for core in machine.cores:
        stats = core.trace_jit.stats()
        bundles = core.bundles_executed
        decodes = core.decode_cache.decodes
        per_core.append(
            {
                "cpu": core.cpu_id,
                "compiles": stats["compiles"],
                "compiled_bundles": stats["compiled_bundles"],
                "osr_entries": stats["osr_entries"],
                "tree_links": stats["tree_links"],
                "resume_hits": stats["resume_hits"],
                "bundles": bundles,
                "decodes": decodes,
            }
        )
        for key in summed:
            totals[key] += stats[key]
        totals["exit_sites"] += len(stats["exit_sites"])
        totals["bundles"] += bundles
        totals["decodes"] += decodes
        for reason, count in stats["deopts"].items():
            deopts[reason] = deopts.get(reason, 0) + count
    bundles = totals.pop("bundles")
    decodes = totals.pop("decodes")
    totals["coverage_pct"] = (
        round(100.0 * totals["compiled_bundles"] / bundles, 2) if bundles else 0.0
    )
    totals["decode_cache_hit_pct"] = (
        round(100.0 * (1.0 - decodes / bundles), 2) if bundles else 0.0
    )
    totals["deopts"] = {k: deopts[k] for k in sorted(deopts)}
    totals["per_core"] = per_core
    return totals


def run_warm_case(
    benchmark: str,
    machine_name: str,
    strategy: str = "adaptive",
    optimize_interval: int = 10_000,
) -> dict:
    """Run one case twice against a shared in-memory profile database.

    The first (cold) run starts from an empty database and records its
    profile; the second (warm) run seeds from it.  The headline number
    is ``ramp_reduction_pct`` — how much of the cold profiling ramp
    (retired instructions until the optimizer reaches steady-state CPI)
    the warm start eliminated.  Fidelity is checked the same way
    :func:`run_case` does: the two runs must produce identical output
    digests, or the profile database changed semantics, not ramp time.
    """
    from .persist import MemoryDisk

    recipe, workload = _case(benchmark, machine_name)
    delta = {
        "optimize_interval": optimize_interval,
        "profile_db": ProfileDBConfig(disk=MemoryDisk()),
    }
    rows = {}
    for label in ("cold", "warm"):
        obs = run_cell(recipe, workload, strategy, delta)
        report = obs.report
        db = report.profile_db or {}
        ramp = (
            report.ramp_retired
            if report.ramp_retired is not None
            else obs.retired
        )
        rows[label] = {
            "wall_s": round(obs.wall_s, 6),
            "retired": obs.retired,
            "ramp_retired": ramp,
            "digest": obs.digest,
            "source": db.get("source", "off"),
            "seeded_loops": db.get("seeded_loops", 0),
            "deployments": len(report.deployments),
        }
    cold_ramp = rows["cold"]["ramp_retired"]
    warm_ramp = rows["warm"]["ramp_retired"]
    reduction = (
        100.0 * (1.0 - warm_ramp / cold_ramp) if cold_ramp else 100.0
    )
    return {
        "id": f"{machine_name}/{benchmark}/{strategy}",
        "benchmark": benchmark,
        "machine": machine_name,
        "strategy": strategy,
        "threads": recipe.n_cpus,
        "scale": BENCH_SCALE,
        "optimize_interval": optimize_interval,
        "cold": rows["cold"],
        "warm": rows["warm"],
        "ramp_reduction_pct": round(reduction, 2),
        "digests_match": rows["cold"]["digest"] == rows["warm"]["digest"],
        # a warm start must consume the cold run's entry, and when the
        # cold run proved deployments, re-deploy at least one of them
        "warm_seeded": (
            rows["warm"]["source"] == "hit"
            and (
                rows["cold"]["deployments"] == 0
                or rows["warm"]["seeded_loops"] > 0
            )
        ),
    }


def run_fleet_case(
    instances: int = 6,
    quorum: int | None = None,
    strategy: str = "adaptive",
    optimize_interval: int = 10_000,
    jobs: int = 1,
) -> dict:
    """Run one clean-transport fleet and measure the warm-start payoff.

    The fleet analogue of :func:`run_warm_case`: the cold half profiles
    from scratch, the daemon publishes the quorum-backed decisions, and
    the warm half is dispatched with them.  The headline number is the
    same ``ramp_reduction_pct`` (max cold ramp vs max seeded warm ramp),
    with the fidelity gate widened to the whole fleet: every instance's
    digest must equal the solo reference.
    """
    from .fleet import FleetHarness

    t0 = time.perf_counter()
    report = FleetHarness(
        instances=instances,
        quorum=quorum,
        strategy=strategy,
        optimize_interval=optimize_interval,
    ).run(jobs=jobs)
    wall = time.perf_counter() - t0
    cold_ramps = [
        r.ramp_retired for r in report.records
        if r.round == "cold" and r.ramp_retired is not None
    ]
    warm_ramps = [
        r.ramp_retired for r in report.records
        if r.round == "warm" and r.seeded and r.ramp_retired is not None
    ]
    cold_ramp = max(cold_ramps) if cold_ramps else 0
    warm_ramp = max(warm_ramps) if warm_ramps else cold_ramp
    reduction = (
        100.0 * (1.0 - warm_ramp / cold_ramp) if cold_ramp else 100.0
    )
    seeded = sum(1 for r in report.records if r.round == "warm" and r.seeded)
    return {
        "id": f"fleet{instances}/{report.workload}/{strategy}",
        "workload": report.workload,
        "instances": instances,
        "quorum": report.quorum,
        "optimize_interval": optimize_interval,
        "wall_s": round(wall, 6),
        "published": report.published,
        "warm_seeded": report.warm > 0 and seeded == report.warm,
        "cold_ramp_retired": cold_ramp,
        "warm_ramp_retired": warm_ramp,
        "ramp_reduction_pct": round(reduction, 2),
        "digests_match": all(
            r.digest == report.reference_digest for r in report.records
        ),
        "ok": report.ok,
    }


def run_bench(
    benchmarks: Iterable[str] | None = None,
    machines: Iterable[str] | None = None,
    strategies: Iterable[str] | None = None,
    samples: int = 3,
    quick: bool = False,
    jobs: int = 1,
) -> dict:
    """Run the full matrix; return the BENCH_perf.json document.

    ``jobs > 1`` times cases in parallel worker processes.  Digests,
    counters and fastpath stats stay byte-identical (each case is an
    isolated fresh machine); wall timings of co-scheduled cases will
    contend for the host, so commit baselines from ``jobs=1`` runs.
    """
    from .parallel import run_tasks

    if quick:
        benchmarks = benchmarks or QUICK_BENCHMARKS
        machines = machines or ("smp4",)
        samples = min(samples, 2)
    else:
        benchmarks = benchmarks or FULL_BENCHMARKS
        machines = machines or tuple(MACHINES)
    strategies = strategies or ALL_STRATEGIES
    t0 = time.perf_counter()
    cases = run_tasks(
        [
            (run_case, (b, m, s, samples))
            for m in machines
            for b in benchmarks
            for s in strategies
        ],
        jobs=jobs,
    )
    return {
        "schema": BENCH_SCHEMA,
        "created_unix": int(time.time()),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "quick": quick,
        "samples_per_case": samples,
        "cases": cases,
        "totals": {
            "wall_s": round(time.perf_counter() - t0, 3),
            "sim_cycles": sum(c["sim_cycles"] for c in cases),
            "retired": sum(c["retired"] for c in cases),
        },
    }


def format_report(report: dict) -> str:
    """Human-readable table of a bench report."""
    header = (
        f"{'case':<28} {'wall(s)':>9} {'Mcyc/s':>8} {'Minstr/s':>9} "
        f"{'trace%':>7} {'digest':>10}"
    )
    lines = [header, "-" * len(header)]
    for case in report["cases"]:
        fastpath = case.get("fastpath") or {}
        lines.append(
            f"{case['id']:<28} {case['wall_s_median']:>9.3f} "
            f"{case['cycles_per_sec'] / 1e6:>8.2f} "
            f"{case['retired_per_sec'] / 1e6:>9.2f} "
            f"{fastpath.get('coverage_pct', 0.0):>7.1f} "
            f"{case['digest'][:10]:>10}"
        )
    totals = report["totals"]
    lines.append(
        f"total wall {totals['wall_s']:.3f}s over "
        f"{len(report['cases'])} case(s), {report['samples_per_case']} sample(s) each"
    )
    return "\n".join(lines)


def compare_reports(
    baseline: dict, current: dict, threshold: float = REGRESSION_THRESHOLD
) -> tuple[list[str], bool]:
    """Diff ``current`` against a committed ``baseline`` report.

    Returns ``(lines, ok)`` — one line per case shared by both reports.
    ``ok`` is False on any wall-clock regression beyond ``threshold``
    (fractional, vs. the baseline median) or any digest change (a digest
    change is a semantics change, never a perf delta).  Cases present in
    only one report are noted but don't fail the comparison — the matrix
    is allowed to grow.
    """
    lines: list[str] = []
    ok = True
    base_cases = {c["id"]: c for c in baseline.get("cases", [])}
    cur_cases = {c["id"]: c for c in current.get("cases", [])}
    for cid in sorted(base_cases):
        base = base_cases[cid]
        cur = cur_cases.get(cid)
        if cur is None:
            lines.append(f"{cid:<28} MISSING from current report")
            continue
        base_wall = base["wall_s_median"]
        cur_wall = cur["wall_s_median"]
        ratio = cur_wall / base_wall if base_wall else float("inf")
        delta_pct = (ratio - 1.0) * 100.0
        if base["digest"] != cur["digest"]:
            ok = False
            verdict = "DIGEST-MISMATCH"
        elif base_wall and ratio > 1.0 + threshold:
            ok = False
            verdict = f"REGRESSION(+{delta_pct:.1f}%)"
        else:
            verdict = f"ok({delta_pct:+.1f}%)"
        lines.append(
            f"{cid:<28} {base_wall:>8.3f}s -> {cur_wall:>8.3f}s  {verdict}"
        )
    for cid in sorted(set(cur_cases) - set(base_cases)):
        lines.append(f"{cid:<28} new case (not in baseline)")
    return lines, ok
