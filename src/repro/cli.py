"""Command-line interface: run workloads and paper experiments.

Examples::

    python -m repro daxpy --threads 4 --working-set 128K --strategy adaptive
    python -m repro npb cg --machine altix8 --strategy noprefetch
    python -m repro table1
    python -m repro disasm daxpy
    python -m repro validate --workloads daxpy cg mg
    python -m repro chaos --workloads daxpy cg --seed 7 --runs 3
    python -m repro daxpy --checkpoint-dir ckpt --strategy noprefetch
    python -m repro resume --checkpoint-dir ckpt
    python -m repro recovery --workloads daxpy --stride 4
    python -m repro npb cg --profile-db cg.profile.db
    python -m repro warm --workloads daxpy cg
    python -m repro overload --workloads daxpy --seed 3 --runs 2
    python -m repro daxpy --trace-cache-budget 96 --overload-seed 7

Every malformed input — a flag out of its range, an unknown name, a
junk ``REPRO_*`` value, an unreadable file — ends in one
``repro: error: ...`` line on stderr and exit code 2.  Numeric ranges
live beside their ``add_argument`` (:meth:`_Parser.ranged`) and are
checked in one place; everything else raises :class:`UsageError`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Callable, Iterable

from .config import (
    ENV_VARS,
    FaultConfig,
    FleetFaultConfig,
    GovernorConfig,
    OverloadConfig,
    PersistConfig,
    ProfileDBConfig,
    default_blas_threads,
    env_value,
)
from .errors import CobraError, FleetError, WorkloadError

# This module is the front door of both entry points (``python -m repro``
# and the ``repro`` console script) and nothing above imports numpy, so
# this is the one place that runs before numpy in every command.
default_blas_threads()

# Each handler imports its own harness (analysis, bench, faults, fleet,
# fuzz, governor, persist, validate): a command loads what it runs
# (DESIGN.md §2 "Import layering").
from .isa import Op, disassemble  # noqa: E402
from .scenario import (  # noqa: E402
    ALL_STRATEGIES,
    MACHINES,
    MATRIX_BENCHMARKS,
    MachineRecipe,
    WorkloadSpec,
    daxpy_spec,
    default_machines,
    npb_spec,
    run_cell,
)
from .workloads.npb.common import BENCHMARKS  # noqa: E402

__all__ = ["main"]

# Strategy names accepted by daxpy/npb.  "baseline" runs the raw
# simulator (the engine's "none"); the rest are the COBRA policy's
# (``core.policy.STRATEGIES``, which only a command that runs COBRA loads).
STRATEGIES = ALL_STRATEGIES[1:]
CLI_STRATEGIES = ("baseline",) + STRATEGIES


class UsageError(Exception):
    """Bad command-line input: one ``repro: error:`` line, exit code 2."""


def _choose(kind: str, name: str, valid: Iterable[str]) -> None:
    """Reject a name outside ``valid`` at the CLI boundary.

    Letting e.g. an unknown strategy reach ``decide()`` surfaces a raw
    ValueError traceback instead of a diagnostic.
    """
    valid = tuple(valid)
    if name not in valid:
        raise UsageError(f"unknown {kind} {name!r} (choose from: {', '.join(valid)})")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that records the legal range of its numeric flags."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ranges: list[tuple[str, str, float, float | None]] = []

    def ranged(self, flag: str, lo: float, hi: float | None = None, **kwargs) -> None:
        """``add_argument`` for a numeric flag legal in ``[lo, hi]``."""
        action = self.add_argument(flag, **kwargs)
        self.ranges.append((flag, action.dest, lo, hi))

    def check_ranges(self, args: argparse.Namespace) -> None:
        for flag, dest, lo, hi in self.ranges:
            value = getattr(args, dest)
            if value is None or (lo <= value and (hi is None or value <= hi)):
                continue
            want = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise UsageError(f"{flag} must be {want}, got {value}")


def _writable(path: str | None, directory: bool = False) -> None:
    """Create an output file or store directory up front, so a path
    that cannot be written is a usage error before the run, not a
    traceback after it."""
    try:
        if directory:
            os.makedirs(path, exist_ok=True)
        elif path is not None:
            open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _load_json(path: str, what: str, extract: Callable[[dict], object]):
    """``extract(json document at path)``; any malformation is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return extract(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad {what} {path!r}: {exc!r}") from None


def _verdict(name: str, failures: int) -> int:
    print(f"{name}:", "OK" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# -- single runs: daxpy, npb, resume ------------------------------------------
#
# All three go through one workload descriptor — the dict `daxpy`/`npb`
# journal into the checkpoint store so that `resume` can rebuild the same
# machine and program without any side-channel file.


def _workload(meta: dict) -> tuple[MachineRecipe, WorkloadSpec]:
    """Machine recipe and workload of one descriptor."""
    mname = meta.get("machine", "smp4")
    _choose("machine", mname, MACHINES)
    recipe = replace(MACHINES[mname], scale=int(meta.get("scale", 16)))
    threads = int(meta.get("threads") or recipe.n_cpus)
    if meta.get("cmd") == "daxpy":
        from .workloads.daxpy import working_set_elems

        n = working_set_elems(meta.get("working_set", "128K"), recipe.scale)
        return recipe, daxpy_spec(n, threads, int(meta.get("reps", 20)))
    if meta.get("cmd") == "npb" and meta.get("benchmark") in BENCHMARKS:
        return recipe, npb_spec(meta["benchmark"], threads, int(meta.get("reps") or 0))
    raise UsageError(f"descriptor names unknown workload {meta.get('cmd')!r}")


def _run(meta: dict, delta: dict) -> int:
    """Run one descriptor under its strategy and print the result."""
    recipe, workload = _workload(meta)
    strategy = meta.get("strategy", "adaptive")
    obs = run_cell(
        recipe, workload, "none" if strategy == "baseline" else strategy, delta
    )
    events = obs.mem_events()
    print(f"cycles:          {obs.cycles}")
    print(f"retired:         {obs.retired}")
    print(f"L3 misses:       {events.l3_misses}")
    print(f"bus txns:        {events.bus_memory}")
    print(f"coherent ratio:  {events.coherent_ratio():.2f}")
    print(f"verified:        {obs.verified}")
    if obs.report is not None:
        print(obs.report.summary())
    return 0 if obs.verified else 1


def _attachments(args, meta: dict) -> dict:
    """CobraConfig delta for the store/governor flags of daxpy and npb."""
    _choose("strategy", args.strategy, CLI_STRATEGIES)
    governed = args.trace_cache_budget is not None or args.overload_seed is not None
    if args.strategy == "baseline":
        for flag, given, why in (
            ("--checkpoint-dir requires", args.checkpoint_dir,
             "has no runtime state to checkpoint"),
            ("--profile-db requires", args.profile_db, "collects no profile"),
            ("--trace-cache-budget/--overload-seed require", governed,
             "has no runtime to govern"),
        ):
            if given:
                raise UsageError(f"{flag} a COBRA strategy (the baseline {why})")
    delta: dict = {}
    if args.checkpoint_dir:
        _writable(args.checkpoint_dir, directory=True)
        delta["persist"] = PersistConfig(directory=args.checkpoint_dir, meta=meta)
    if args.profile_db:
        # unlike the checkpoint store the database survives across runs,
        # so the second invocation of the same workload warm-starts
        if os.path.isdir(args.profile_db):
            raise UsageError(
                f"--profile-db must name a database file, "
                f"got directory {args.profile_db!r}"
            )
        _writable(os.path.dirname(args.profile_db) or ".", directory=True)
        delta["profile_db"] = ProfileDBConfig(path=args.profile_db)
    if governed:
        # --overload-seed arms the full mixed schedule (cf. the fleet
        # --fault-seed flag): every overload category at a moderate
        # rate, capped so the run can demonstrate recovery
        from .governor import OVERLOAD_SCHEDULES

        overload = None
        if args.overload_seed is not None:
            overload = OverloadConfig(
                seed=args.overload_seed, **OVERLOAD_SCHEDULES["everything"]
            )
        delta["governor"] = GovernorConfig(
            trace_cache_budget=args.trace_cache_budget, overload=overload
        )
    return delta


def _cmd_single(args) -> int:
    """``daxpy`` and ``npb``: the flags become a workload descriptor."""
    meta = {
        "cmd": args.command, "machine": args.machine, "scale": args.scale,
        "threads": args.threads or MACHINES[args.machine].n_cpus,
        "strategy": args.strategy,
    }
    if args.command == "daxpy":
        meta.update(working_set=args.working_set, reps=args.reps)
    else:
        meta.update(
            benchmark=args.benchmark,
            reps=args.reps or BENCHMARKS[args.benchmark].default_reps,
        )
    return _run(meta, _attachments(args, meta))


def _cmd_resume(args) -> int:
    """Warm-restart a checkpointed run from its workload descriptor."""
    from .persist import FileDisk, recover

    if not os.path.isdir(args.checkpoint_dir):
        raise UsageError(f"no checkpoint directory {args.checkpoint_dir!r}")
    meta = recover(FileDisk(args.checkpoint_dir)).meta
    if not meta:
        raise UsageError(
            f"no resumable checkpoint in {args.checkpoint_dir!r} "
            "(no workload descriptor recovered)"
        )
    _choose("strategy", meta.get("strategy", "adaptive"), STRATEGIES)
    return _run(
        meta, {"persist": PersistConfig(directory=args.checkpoint_dir, meta=meta)}
    )


def _cmd_table1(args) -> int:
    from .analysis import format_table1

    counts = {}
    for name, bench in BENCHMARKS.items():
        prog = bench.build(MachineRecipe("smp", 4, args.scale)(), 4, reps=1)
        counts[name] = tuple(
            prog.image.count_ops(op)
            for op in (Op.LFETCH, Op.BR_CTOP, Op.BR_CLOOP, Op.BR_WTOP)
        )
    print(format_table1(counts))
    return 0


def _cmd_disasm(args) -> int:
    _choose("kernel", args.kernel, ("daxpy", *BENCHMARKS))
    machine = MachineRecipe("smp", 4, args.scale)()
    if args.kernel == "daxpy":
        prog = daxpy_spec(2048, 4, 1).build(machine)
        print(disassemble(prog.image, *prog.image.regions["daxpy"]))
    else:
        print(disassemble(BENCHMARKS[args.kernel].build(machine, 4, reps=1).image))
    return 0


# -- sweeps: validate, chaos, overload, recovery ------------------------------


def _spec(name: str, threads: int, reps: int, n_elems: int = 512) -> WorkloadSpec:
    """Workload name -> spec, for every subcommand that takes one."""
    _choose("workload", name, ("daxpy", *BENCHMARKS))
    if name == "daxpy":
        return daxpy_spec(n_elems, threads, reps)
    return npb_spec(name, threads, reps)


def _sweep(args, harness_for, after=None, n_elems: int = 512) -> int:
    """Per-workload sweep -> summary; returns the failure count.

    Every workload name is resolved before anything runs, so a typo in
    the last one costs nothing.
    """
    specs = [_spec(name, args.threads, args.reps, n_elems) for name in args.workloads]
    failures = 0
    for name, spec in zip(args.workloads, specs):
        report = harness_for(spec).run(jobs=args.jobs)
        print(report.summary())
        failures += not report.ok
        if after is not None:
            failures += after(name, report)
    return failures


def _cmd_validate(args) -> int:
    from .validate import DifferentialHarness, check_image

    for name in args.strategies or ():
        _choose("strategy", name, ALL_STRATEGIES)
    # the harness needs the "none" reference run to diff against
    strategies = ("none",) + tuple(
        s for s in args.strategies or STRATEGIES if s != "none"
    )
    machines = default_machines(args.threads, scale=args.scale)

    def isa_checks(name: str, _report) -> int:
        """ISA checks on the compiled image of this workload."""
        machine = MachineRecipe("smp", max(4, args.threads), args.scale)()
        prog = _spec(name, args.threads, 1, n_elems=256).build(machine)
        violations = check_image(prog.image, mode="record")
        status = "OK" if not violations else "FAIL"
        print(f"isa[{name}]: round-trip + patch/rollback over "
              f"{len(prog.image)} bundle(s), {status}")
        for violation in violations:
            print(f"  VIOLATION: {violation}")
        return len(violations)

    return _verdict("validate", _sweep(
        args,
        lambda spec: DifferentialHarness(spec, machines, strategies, args.mode),
        after=isa_checks,
    ))


def _cmd_chaos(args) -> int:
    from .faults import CHAOS_STRATEGIES, ChaosHarness

    for name in args.strategies or ():
        _choose("strategy", name, STRATEGIES)
    fault_config = FaultConfig(
        sample_rate=args.sample_rate,
        patch_rate=args.patch_rate,
        loop_rate=args.loop_rate,
    )
    seeds = tuple(range(args.seed, args.seed + args.runs))
    machines = default_machines(args.threads, scale=args.scale)
    return _verdict("chaos", _sweep(args, lambda spec: ChaosHarness(
        spec, machines, tuple(args.strategies or CHAOS_STRATEGIES), seeds,
        fault_config,
    )))


def _cmd_overload(args) -> int:
    from .governor import OVERLOAD_SCHEDULES, OverloadHarness

    for name in args.schedules or ():
        _choose("schedule", name, sorted(OVERLOAD_SCHEDULES))
    schedules = {
        name: OVERLOAD_SCHEDULES[name] for name in args.schedules or OVERLOAD_SCHEDULES
    }
    seeds = tuple(range(args.seed, args.seed + args.runs))
    machines = default_machines(args.threads, scale=args.scale)
    return _verdict("overload", _sweep(
        args, lambda spec: OverloadHarness(spec, machines, schedules, seeds)
    ))


def _cmd_recovery(args) -> int:
    from .validate import RecoveryHarness

    _choose("strategy", args.strategy, STRATEGIES)
    torn_modes = (None, args.torn_bytes) if args.torn_bytes else (None,)
    # small-scale machines: the sweep workloads must actually cross the
    # deployment threshold, or the sweep never replays a transaction
    machines = default_machines(args.threads, scale=4)
    _writable(args.ledger_out)
    ledgers = []
    failures = _sweep(
        args,
        lambda spec: RecoveryHarness(
            spec, machines, args.strategy, args.stride, torn_modes
        ),
        after=lambda _name, report: ledgers.append(report.to_json()) or 0,
        n_elems=2048,
    )
    if args.ledger_out:
        _write_json(args.ledger_out, {"reports": ledgers})
    return _verdict("recovery", failures)


# -- fuzz, bench, warm, fleet -------------------------------------------------


def _cmd_fuzz(args) -> int:
    from .fuzz import DifferentialFuzzer, shrink
    from .fuzz.report import repro_command

    if args.fault_seed is not None and args.replay is None:
        raise UsageError(
            "--fault-seed requires --replay "
            "(outside a replay the generator draws the fault seed)"
        )
    if args.replay is not None:
        fuzzer = DifferentialFuzzer(
            seeds=[args.replay], fault_seed=args.fault_seed
        )
    elif args.corpus:
        fuzzer = DifferentialFuzzer(pairs=_load_json(
            args.corpus, "corpus",
            lambda doc: [
                (int(entry["seed"]), int(entry["fault_seed"]))
                for entry in doc["entries"]
            ],
        ))
    else:
        fuzzer = DifferentialFuzzer(seeds=range(args.start, args.start + args.seeds))

    _writable(args.out)
    report = fuzzer.run(jobs=args.jobs)
    print(report.summary(verbose=args.verbose))

    if not report.ok:
        failed = [result for result in report.results if not result.ok]
        for result in failed[: args.max_shrinks]:
            outcome = shrink(result.params)
            print(f"shrink[seed={result.params.seed}]: {outcome.summary()}")
            print(
                "  replay: "
                + repro_command(outcome.params.seed, outcome.params.fault_seed)
            )
    if args.out:
        _write_json(args.out, report.to_json())
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    from .bench import (
        check_baseline,
        compare_reports,
        format_report,
        run_bench,
    )

    for name in args.strategies or ():
        _choose("strategy", name, ALL_STRATEGIES)
    for name in args.benchmarks or ():
        _choose("benchmark", name, MATRIX_BENCHMARKS)
    baseline = (
        _load_json(args.compare, "baseline report", check_baseline)
        if args.compare
        else None
    )
    _writable(args.out)
    report = run_bench(
        args.benchmarks, args.machines, args.strategies, jobs=args.jobs
    )
    print(format_report(report))
    if args.out:
        _write_json(args.out, report)
    if baseline is not None:
        lines, ok = compare_reports(baseline, report)
        print(f"compare vs {args.compare}:")
        for line in lines:
            print(f"  {line}")
        print("bench compare:", "OK" if ok else "FAIL")
        return 0 if ok else 1
    return 0


def _cmd_warm(args) -> int:
    from .bench import matrix_case
    from .persist import MemoryDisk

    _choose("strategy", args.strategy, STRATEGIES)
    for name in args.workloads:
        _choose("benchmark", name, MATRIX_BENCHMARKS)
    header = (
        f"{'case':<28} {'cold ramp':>10} {'warm ramp':>10} "
        f"{'saved':>7} {'digests':>8} {'seeded':>7}"
    )
    print(header)
    print("-" * len(header))

    def ramp(obs) -> int:
        """Retired instructions until the optimizer reached steady-state CPI."""
        done = obs.report.ramp_retired
        return done if done is not None else obs.retired

    failures = 0
    for name in args.workloads:
        recipe, workload = matrix_case(name, args.machine)
        # the cold run starts from an empty in-memory database and
        # records its profile; the warm run seeds from it
        delta = {
            "optimize_interval": 10_000,
            "profile_db": ProfileDBConfig(disk=MemoryDisk()),
        }
        cold = run_cell(recipe, workload, args.strategy, delta)
        warm = run_cell(recipe, workload, args.strategy, delta)
        cold_ramp, warm_ramp = ramp(cold), ramp(warm)
        saved = round(100.0 * (1.0 - warm_ramp / cold_ramp) if cold_ramp else 100.0, 2)
        match = cold.digest == warm.digest
        db = warm.report.profile_db or {}
        # a warm start must consume the cold run's entry, and when the
        # cold run proved deployments, re-deploy at least one of them
        seeded = db.get("source") == "hit" and (
            not cold.report.deployments or db.get("seeded_loops", 0) > 0
        )
        failures += not (match and seeded and saved >= args.min_reduction)
        print(
            f"{f'{args.machine}/{name}/{args.strategy}':<28} {cold_ramp:>10} "
            f"{warm_ramp:>10} {saved:>6.1f}% "
            f"{'match' if match else 'DIFFER':>8} {'yes' if seeded else 'NO':>7}"
        )
    return _verdict("warm", failures)


def _cmd_fleet(args) -> int:
    from .fleet import FleetHarness

    quorum = args.quorum or env_value("REPRO_FLEET_QUORUM")
    if quorum is not None and quorum > args.instances:
        raise UsageError(f"quorum {quorum} exceeds --instances {args.instances}")
    faults = None
    if args.fault_seed is not None:
        # the full hostile schedule: frame faults of every kind, network
        # partitions, and one daemon crash mid-ingest
        faults = FleetFaultConfig(
            seed=args.fault_seed,
            frame_rate=0.2,
            partition_rate=0.15,
            daemon_crash_batch=5,
        )
    workload = _spec(args.workload, args.threads, args.reps, n_elems=2048)
    _writable(args.out)
    report = FleetHarness(
        workload=workload,
        # small-scale machine so instances cross the deployment
        # threshold (cf. the recovery sweep)
        machine=MachineRecipe("smp", max(4, args.threads), 4),
        instances=args.instances,
        quorum=quorum,
        faults=faults,
        flush_interval=args.flush_interval,
    ).run(jobs=args.jobs)
    print(report.summary())
    if args.out:
        _write_json(args.out, report.to_json())
    return 0 if report.ok else 1


# -- the parser ---------------------------------------------------------------


def _sweep_flags(parser: _Parser, workloads: list[str], reps: int, reps_help: str) -> None:
    """``--workloads --threads --reps --jobs`` of a sweep subcommand."""
    parser.add_argument(
        "--workloads", nargs="+", default=workloads,
        help="'daxpy' and/or NPB benchmark names",
    )
    parser.ranged("--threads", 1, type=int, default=4)
    parser.ranged("--reps", 1, type=int, default=reps, help=reps_help)
    _jobs_flag(parser)


def _jobs_flag(parser: _Parser) -> None:
    parser.ranged(
        "--jobs", 1, type=int, default=1, metavar="N",
        help="fan cells over N worker processes "
        "(reports are byte-identical at any N)",
    )


def _seed_flags(parser: _Parser, what: str, cell: str) -> None:
    """``--seed --runs`` of a seeded-schedule sweep."""
    parser.ranged("--seed", 0, type=int, default=0, help="first PRNG seed")
    parser.ranged(
        "--runs", 1, type=int, default=2,
        help=f"{what} schedules per {cell} cell: seeds seed..seed+runs-1",
    )


def _single_flags(parser: _Parser) -> None:
    """Machine, strategy and store/governor flags of ``daxpy`` and ``npb``."""
    parser.add_argument("--machine", choices=sorted(MACHINES), default="smp4")
    parser.ranged("--threads", 0, type=int, default=0, help="0 = machine default")
    # validated in the command handler (one-line error, exit code 2)
    # rather than by argparse, so library strategy additions and the
    # error format stay in one place
    parser.add_argument(
        "--strategy",
        metavar="{" + ",".join(CLI_STRATEGIES) + "}",
        default="adaptive",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist a crash-consistent checkpoint store (journal + "
        "snapshots) in DIR; continue it later with 'repro resume'",
    )
    parser.add_argument(
        "--profile-db", default=None, metavar="PATH",
        help="accumulate miss profiles and proven patch decisions in a "
        "cross-run database file at PATH; a later run of the same binary "
        "on the same machine config warm-starts from it",
    )
    parser.ranged(
        "--trace-cache-budget", 1, type=int, default=None, metavar="N",
        help="arm the resource governor with a hard cap of N trace-cache "
        "bundles; cold inactive traces are evicted first, then further "
        "deployments are refused (accounted, never fatal)",
    )
    parser.ranged(
        "--overload-seed", 0, type=int, default=None, metavar="SEED",
        help="attack the run with a seeded overload schedule (budget "
        "shrinks, sample floods, slow disk, ingest storms); outputs must "
        "stay bit-identical while the degradation ladder sheds load",
    )
    parser.set_defaults(func=_cmd_single)


def _parser() -> _Parser:
    parser = _Parser(
        prog="repro",
        description="COBRA reproduction: run workloads under the runtime optimizer",
    )
    parser.ranged("--scale", 1, type=int, default=16, help="cache scale factor")
    sub = parser.add_subparsers(dest="command", required=True)

    daxpy = sub.add_parser("daxpy", help="run the OpenMP DAXPY kernel")
    _single_flags(daxpy)
    daxpy.add_argument("--working-set", choices=("128K", "512K", "2M"), default="128K")
    daxpy.ranged("--reps", 1, type=int, default=20)

    npb = sub.add_parser("npb", help="run one NPB-like benchmark")
    _single_flags(npb)
    npb.add_argument("benchmark", choices=sorted(BENCHMARKS))
    npb.ranged("--reps", 0, type=int, default=0, help="0 = benchmark default")

    table1 = sub.add_parser("table1", help="print Table 1 (static counts)")
    table1.set_defaults(func=_cmd_table1)

    disasm = sub.add_parser("disasm", help="disassemble a compiled kernel")
    disasm.add_argument("kernel", help="'daxpy' or an NPB benchmark name")
    disasm.set_defaults(func=_cmd_disasm)

    validate = sub.add_parser(
        "validate",
        help="run the correctness suite: coherence invariants, "
        "differential (optimized vs baseline) bit-equality, ISA round-trips",
    )
    _sweep_flags(validate, ["daxpy", "cg", "mg"], 2, "outer repetitions per run")
    validate.add_argument(
        "--mode", choices=("strict", "record"), default="record",
        help="strict raises on the first violation; record reports all",
    )
    validate.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        help="strategy matrix for the differential harness "
        "(default: none + all policies; 'none' is added if omitted)",
    )
    validate.set_defaults(func=_cmd_validate)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection sweeps: under any fault schedule, "
        "program outputs must stay bit-identical to the fault-free run "
        "and every injected fault must be accounted in the ledger",
    )
    _sweep_flags(chaos, ["daxpy", "cg"], 4, "outer repetitions per run")
    _seed_flags(chaos, "fault", "(machine, strategy)")
    chaos.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        help=f"COBRA strategies to fault (default: {' '.join(STRATEGIES)})",
    )
    # the rates' [0, 1] range is FaultConfig's to enforce
    for flag, default, unit, surface in (
        ("--sample-rate", 0.1, "sample", "HPM"),
        ("--patch-rate", 0.5, "deployment", "trace-cache"),
        ("--loop-rate", 0.2, "wake", "monitor/optimizer"),
    ):
        chaos.add_argument(
            flag, type=float, default=default,
            help=f"per-{unit} fault probability at the {surface} surface",
        )
    chaos.set_defaults(func=_cmd_chaos)

    overload = sub.add_parser(
        "overload",
        help="run seeded overload sweeps: under shrinking budgets, sample "
        "floods, slow disks, and ingest storms the degradation ladder may "
        "only shed optimization work — outputs must stay bit-identical to "
        "the clean run and every shed item must be accounted",
    )
    _sweep_flags(overload, ["daxpy", "cg"], 4, "outer repetitions per run")
    _seed_flags(overload, "overload", "(machine, schedule)")
    overload.add_argument(
        "--schedules", nargs="+", default=None, metavar="SCHEDULE",
        help="named overload presets to sweep "
        "(default: shrink flood storm everything)",
    )
    overload.set_defaults(func=_cmd_overload)

    resume = sub.add_parser(
        "resume",
        help="warm-restart a checkpointed run: recover the store, re-deploy "
        "previously proven optimizations, and continue the workload",
    )
    resume.add_argument(
        "--checkpoint-dir", required=True, metavar="DIR",
        help="directory written by a previous run's --checkpoint-dir",
    )
    resume.set_defaults(func=_cmd_resume)

    recovery = sub.add_parser(
        "recovery",
        help="crash-recovery sweep: kill the run at durable checkpoint "
        "writes (incl. mid-write tears), restart from the surviving store, "
        "and require outputs bit-identical to an uninterrupted run",
    )
    _sweep_flags(
        recovery, ["daxpy"], 14,
        "outer repetitions per run (enough for a deployment)",
    )
    recovery.ranged(
        "--stride", 1, type=int, default=4,
        help="crash at every stride-th durable write (1 = every write)",
    )
    recovery.ranged(
        "--torn-bytes", 0, type=int, default=7,
        help="also crash mid-write leaving this many durable bytes "
        "(0 = clean boundary kills only)",
    )
    recovery.add_argument(
        "--strategy", default="noprefetch", metavar="STRATEGY",
        help="COBRA strategy to run under the sweep",
    )
    recovery.add_argument(
        "--ledger-out", default=None, metavar="PATH",
        help="write the sweep's JSON ledger (cells, digests, failures) here",
    )
    recovery.set_defaults(func=_cmd_recovery)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: run seeded generated kernels across "
        "every must-agree axis (adaptive vs none, jit-off vs jit-on, "
        "osr-off vs osr-on, faulted vs clean, checkpoint vs none, crash, "
        "resume vs straight-through, db-cold vs adaptive, db-warm vs none, "
        "db-corrupt vs adaptive, overloaded vs clean, fleet-faulted vs none) "
        "and report bit-equality divergences",
    )
    fuzz.ranged(
        "--seeds", 1, type=int, default=25, metavar="N",
        help="number of generator seeds to sweep (seeds start..start+N-1)",
    )
    fuzz.ranged(
        "--start", 0, type=int, default=0, metavar="SEED",
        help="first generator seed of the sweep",
    )
    fuzz.ranged(
        "--replay", 0, type=int, default=None, metavar="SEED",
        help="re-run exactly one generator seed (pair with --fault-seed "
        "to replay a reported divergence)",
    )
    fuzz.ranged(
        "--fault-seed", 0, type=int, default=None, metavar="SEED",
        help="override the fault schedule seed (only with --replay)",
    )
    fuzz.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="run the (seed, fault_seed) pairs of a corpus JSON file "
        "instead of a seed range",
    )
    fuzz.ranged(
        "--max-shrinks", 0, type=int, default=3, metavar="N",
        help="minimize at most N diverging scenarios toward the smallest "
        "failing kernel (each shrink re-runs the axis sweep many times)",
    )
    fuzz.add_argument(
        "--verbose", action=argparse.BooleanOptionalAction, default=True,
        help="print one line per scenario (divergences always print)",
    )
    fuzz.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the full JSON report here",
    )
    _jobs_flag(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    bench = sub.add_parser(
        "bench",
        help="run the fidelity matrix: per case the output digest and every "
        "simulated counter, no host timing (byte-identical across runs)",
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report JSON here (the committed one is BENCH_perf.json)",
    )
    bench.add_argument(
        "--benchmarks", nargs="+", default=None, metavar="BENCH",
        help=f"subset of {'/'.join(MATRIX_BENCHMARKS)}",
    )
    bench.add_argument(
        "--machines", nargs="+", default=None, metavar="MACHINE",
        choices=sorted(MACHINES), help="subset of machine models",
    )
    bench.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        help="subset of none/noprefetch/excl/adaptive",
    )
    _jobs_flag(bench)
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="require every case shared with the BASELINE report to be "
        "equal field for field; exit 1 naming each field that differs",
    )
    bench.set_defaults(func=_cmd_bench)

    warm = sub.add_parser(
        "warm",
        help="profile-database smoke: run each workload twice against a "
        "fresh in-memory database and require the warm run to cut the "
        "profiling ramp with bit-identical outputs",
    )
    warm.add_argument(
        "--workloads", nargs="+", default=["daxpy", "cg"],
        help=f"benchmark names ({'/'.join(MATRIX_BENCHMARKS)})",
    )
    warm.add_argument("--machine", choices=sorted(MACHINES), default="smp4")
    warm.add_argument(
        "--strategy", default="adaptive", metavar="STRATEGY",
        help="COBRA strategy for both runs",
    )
    warm.ranged(
        "--min-reduction", 0, 100, type=float, default=90.0, metavar="PCT",
        help="fail unless the warm run cuts the profiling ramp by at "
        "least PCT percent",
    )
    warm.set_defaults(func=_cmd_warm)

    fleet = sub.add_parser(
        "fleet",
        help="fleet control plane: run N instances against one "
        "optimization daemon over a fault-injectable transport and "
        "require solo-identical outputs, quorum-gated decision reuse, "
        "and a fully accounted fault ledger",
    )
    fleet.ranged(
        "--instances", 1, type=int, default=8, metavar="N",
        help="fleet size: first half runs cold, second half is "
        "dispatched warm with the daemon's published decisions",
    )
    fleet.ranged(
        "--quorum", 0, type=int, default=0, metavar="Q",
        help="independent instances required before a decision is "
        "published (0 = REPRO_FLEET_QUORUM or min(2, cold count))",
    )
    fleet.ranged(
        "--fault-seed", 0, type=int, default=None, metavar="SEED",
        help="attack the transport with this seed (frame drop/dup/"
        "reorder/delay/corrupt/poison, partitions, one daemon crash); "
        "omit for a clean transport",
    )
    fleet.add_argument(
        "--workload", default="daxpy",
        help="'daxpy' or an NPB benchmark name",
    )
    fleet.ranged("--threads", 1, type=int, default=4)
    fleet.ranged(
        "--reps", 1, type=int, default=12,
        help="outer repetitions per instance (enough for a deployment)",
    )
    fleet.ranged(
        "--flush-interval", 1, type=int, default=1, metavar="K",
        help="queue one telemetry batch every K optimizer wakes",
    )
    fleet.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the fleet report JSON here",
    )
    _jobs_flag(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    for command in sub.choices.values():
        command.set_defaults(check_ranges=command.check_ranges)
    return parser


def _check_env() -> None:
    """Reject malformed REPRO_* overrides before any work starts.

    The framework raises :class:`~repro.errors.CobraError` for these
    too, but mid-run and per construction.  The two that name a place
    to write get the same up-front check as their flag forms.
    """
    try:
        for name in ENV_VARS:
            env_value(name)
    except CobraError as exc:
        raise UsageError(str(exc)) from None
    if path := env_value("REPRO_CHECKPOINT"):
        _writable(path, directory=True)
    if path := env_value("REPRO_PROFILE_DB"):
        _writable(os.path.dirname(path) or ".", directory=True)


def main(argv: list[str] | None = None) -> int:
    try:
        _check_env()
        parser = _parser()
        args = parser.parse_args(argv)
        parser.check_ranges(args)
        args.check_ranges(args)
        code = args.func(args)
        # a closed or full stdout fails here, not in the interpreter's
        # own flush at shutdown, where nothing can catch it
        sys.stdout.flush()
        return code
    except OSError as exc:
        try:
            sys.stdout.flush()
        except OSError:
            # stdout itself is gone: what is still buffered goes to
            # devnull, or shutdown would fail on it a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            # the reader left (`repro table1 | head -1`): not an error to report
            return 1
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, WorkloadError, FleetError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
