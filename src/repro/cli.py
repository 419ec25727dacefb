"""Command-line interface: run workloads and paper experiments.

Examples::

    python -m repro daxpy --threads 4 --working-set 128K --strategy adaptive
    python -m repro npb cg --machine altix8 --strategy noprefetch
    python -m repro table1
    python -m repro disasm daxpy
    python -m repro fuzz --workloads daxpy cg mg --axes noprefetch excl adaptive
    python -m repro fuzz --workloads daxpy cg --axes faulted --start 7 --seeds 3
    python -m repro daxpy --checkpoint-dir ckpt --strategy noprefetch
    python -m repro resume --checkpoint-dir ckpt
    python -m repro fuzz --workloads daxpy --reps 5 --axes crash --stride 4
    python -m repro npb cg --profile-db cg.profile.db
    python -m repro fuzz --workloads daxpy cg --axes db-warm
    python -m repro fuzz --workloads cg --axes fleet-faulted --seeds 4
    python -m repro fuzz --workloads daxpy --axes overloaded --start 3 --seeds 2
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
from typing import Iterable

from .config import (
    ENV_VARS,
    GovernorConfig,
    OverloadConfig,
    PersistConfig,
    ProfileDBConfig,
    default_blas_threads,
    env_value,
)
from .errors import CobraError, PersistError, WorkloadError

# This module is the front door of both entry points (``python -m repro``
# and the ``repro`` console script) and nothing above imports numpy, so
# this is the one place that runs before numpy in every command.
default_blas_threads()

# Each handler imports its own harness (analysis, bench, fuzz, governor,
# persist): a command loads what it runs
# (DESIGN.md §2 "Import layering").
from .isa import disassemble  # noqa: E402
from .scenario import (  # noqa: E402
    ALL_STRATEGIES,
    MACHINES,
    MATRIX_BENCHMARKS,
    MachineRecipe,
    WorkloadSpec,
    daxpy_spec,
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

    def error(self, message: str):
        # an unknown subcommand is an unknown name like any other
        if message.startswith("argument command: invalid choice"):
            raise UsageError(message.removeprefix("argument command: "))
        super().error(message)

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


def _load_json(path: str, what: str, tree) -> dict:
    """The JSON document at ``path``, once it loads as ``tree`` (a
    :mod:`repro.shape` tree); any malformation is a usage error."""
    from .errors import ProfileStateError

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        tree.load(doc)
    except (OSError, ValueError, ProfileStateError) as exc:
        raise UsageError(f"bad {what} {path!r}: {exc}") from None
    return doc


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
        # --overload-seed arms the full mixed schedule: every overload
        # category at a moderate rate, capped so the run can demonstrate
        # recovery
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
    from .analysis import format_table1, table1_counts

    print(format_table1(table1_counts(args.scale)))
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


# -- sweeps: fuzz ---------------------------------------------------------------


def _spec(name: str, reps: int) -> WorkloadSpec:
    """A ``--workloads`` name -> its 4-thread spec."""
    _choose("workload", name, ("daxpy", *BENCHMARKS))
    if name == "daxpy":
        return daxpy_spec(512, 4, reps)
    return npb_spec(name, 4, reps)


def _cmd_fuzz(args) -> int:
    from .fuzz import AXES, DifferentialFuzzer, named_cases, shrink
    from .fuzz.report import repro_command

    for name in args.axes or ():
        _choose("axis", name, [axis.name for axis in AXES])
    if args.fault_seed is not None and args.replay is None:
        raise UsageError(
            "--fault-seed requires --replay "
            "(outside a replay the generator draws the fault seed)"
        )
    seeds = range(args.start, args.start + args.seeds)
    if args.workloads:
        if args.replay is not None or args.corpus:
            raise UsageError("--workloads cannot be combined with --replay or --corpus")
        fuzzer = DifferentialFuzzer(cases=named_cases(
            [_spec(name, args.reps) for name in args.workloads], seeds, args.scale
        ), axes=args.axes, stride=args.stride)
    elif args.replay is not None:
        fuzzer = DifferentialFuzzer(
            seeds=[args.replay], fault_seed=args.fault_seed, axes=args.axes,
            stride=args.stride,
        )
    elif args.corpus:
        from .shape import COUNT, List, Record

        corpus = _load_json(args.corpus, "corpus", Record(
            entries=List(Record(seed=COUNT, fault_seed=COUNT))
        ))
        fuzzer = DifferentialFuzzer(pairs=[
            (entry["seed"], entry["fault_seed"]) for entry in corpus["entries"]
        ], axes=args.axes, stride=args.stride)
    else:
        fuzzer = DifferentialFuzzer(seeds=seeds, axes=args.axes, stride=args.stride)

    _writable(args.out)
    report = fuzzer.run(jobs=args.jobs)
    print(report.summary(verbose=args.verbose))

    if not report.ok:
        # a named workload has no generator draw to shrink
        failed = [r for r in report.results if not r.ok and r.params is not None]
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
    from .bench import BASELINE, BENCHMARKS, compare_reports, format_report, run_bench

    for name in args.strategies or ():
        _choose("strategy", name, ALL_STRATEGIES)
    for name in args.benchmarks or ():
        _choose("benchmark", name, BENCHMARKS)
    baseline = (
        _load_json(args.compare, "baseline report", BASELINE)
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


# -- the parser ---------------------------------------------------------------


def _jobs_flag(parser: _Parser) -> None:
    parser.ranged(
        "--jobs", 1, type=int, default=1, metavar="N",
        help="fan cells over N worker processes "
        "(reports are byte-identical at any N)",
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

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: run seeded generated kernels, or named "
        "workloads on both machine models, across every must-agree axis "
        "(noprefetch vs none, excl vs none, adaptive vs none, jit-on vs "
        "checked, jit-off vs jit-on, osr-off vs osr-on, faulted vs clean, "
        "checkpoint vs none, crash vs straight-through, db-cold vs "
        "jit-on, db-warm vs none, db-corrupt vs jit-on, overloaded vs clean, "
        "fleet-faulted vs none) and report bit-equality divergences and "
        "broken invariants",
    )
    fuzz.ranged(
        "--seeds", 1, type=int, default=25, metavar="N",
        help="number of seeds to sweep (start..start+N-1): generator seeds, "
        "or with --workloads the fault seeds of each case",
    )
    fuzz.ranged(
        "--start", 0, type=int, default=0, metavar="SEED",
        help="first seed of the sweep",
    )
    fuzz.add_argument(
        "--workloads", nargs="+", default=None, metavar="WORKLOAD",
        help="run 'daxpy' and/or NPB benchmarks instead of generated "
        "kernels: one case per workload and machine model",
    )
    fuzz.ranged(
        "--reps", 1, type=int, default=4,
        help="outer repetitions of each --workloads run",
    )
    fuzz.add_argument(
        "--axes", nargs="+", default=None, metavar="AXIS",
        help="run only these axes, plus the axes they are compared "
        "against or need (default: all)",
    )
    fuzz.ranged(
        "--stride", 1, type=int, default=None, metavar="N",
        help="crash row: crash at every N-th durable write of the checkpoint "
        "store, at the clean boundary and 7 bytes torn (default: the write "
        "after the first deploy transaction commits, or the midpoint write "
        "if none does, torn)",
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
        help=f"subset of {'/'.join(MATRIX_BENCHMARKS)} and Fig. 3's "
        "daxpy-128K/-512K/-2M (each at 1/2/4 threads on smp4)",
    )
    bench.add_argument(
        "--machines", nargs="+", default=None, metavar="MACHINE",
        choices=sorted(MACHINES), help="subset of machine models (Fig. 3 runs on smp4)",
    )
    bench.add_argument(
        "--strategies", nargs="+", default=None, metavar="STRATEGY",
        help="subset of none/noprefetch/excl/adaptive (Fig. 3 runs none/noprefetch/"
        "excl as its static prefetch/noprefetch/prefetch.excl binary)",
    )
    _jobs_flag(bench)
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="require every case shared with the BASELINE report to be "
        "equal field for field; exit 1 naming each field that differs",
    )
    bench.set_defaults(func=_cmd_bench)

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
    except (UsageError, WorkloadError, PersistError, ValueError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
