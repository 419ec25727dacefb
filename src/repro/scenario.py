"""The scenario engine: one run-perturb-compare path for every sweep.

COBRA's ship criterion is that a runtime rewrite (lfetch→nop,
lfetch→lfetch.excl, trace deployment) may move cycles but never
outputs.  Every correctness sweep in the package — differential, chaos,
crash-recovery, overload, fleet, fuzz — proves that the same way, and
this module owns the two decisions they share:

* the **algorithm**, :func:`run_cell`: fresh machine → build the
  workload → apply a ``CobraConfig`` delta → run under one strategy →
  snapshot every program array → :class:`Observables`.  A cell is a pure
  function of its arguments (fresh machine, fresh program, seeded
  injectors), so it replays from its coordinates and can run in any
  process.
* the **policy**, :class:`Sweep`: fan reference cells and perturbed
  cells out over :func:`repro.parallel.run_tasks`, merge in submission
  order (the report is byte-identical at any ``jobs``), let no
  exception escape a cell, diff every cell's output bytes against its
  machine's reference, require an accounted fault ledger, and fail a
  sweep that ran no cells or injected nothing — a sweep that proved
  nothing must not print OK.

The harnesses are declarative on top: which cells (a machine × axis
matrix of config deltas), which reference, and their own invariant
checkers (ladder well-formedness, journal-prefix durability, ...).
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from .config import DEFAULT_SCALE, itanium2_smp, sgi_altix
from .cpu.machine import Machine
from .cpu.scheduler import Scheduler
from .cpu.tracejit import fastpath_stats
from .errors import ValidationError
from .memory.events import MemEvents
from .runtime.team import ParallelProgram
from .workloads.npb import REPORTED

__all__ = [
    "ALL_STRATEGIES",
    "MACHINES",
    "MATRIX_BENCHMARKS",
    "WorkloadSpec",
    "MachineRecipe",
    "Observables",
    "Cell",
    "Sweep",
    "SweepResult",
    "SweepReport",
    "seeded_sweep",
    "run_cell",
    "daxpy_spec",
    "npb_spec",
    "default_machines",
]

#: The full strategy matrix: unoptimized baseline + every COBRA mode.
ALL_STRATEGIES = ("none", "noprefetch", "excl", "adaptive")


# -- what a cell runs: workload specs and machine recipes ---------------------
#
# Builders, verifiers and machine factories are partials of module-level
# functions or frozen-dataclass callables, never lambdas, so cells pickle
# — that is what lets a sweep ship them to worker processes (`--jobs N`,
# see repro.parallel).


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload a cell can rebuild on any machine."""

    name: str
    build: Callable[[Machine], ParallelProgram]
    verify: Callable[[ParallelProgram], bool] | None = None


def daxpy_spec(n_elems: int = 512, n_threads: int = 4, reps: int = 5) -> WorkloadSpec:
    """The paper's DAXPY kernel as a sweep workload."""
    from .workloads.daxpy import build_daxpy, verify_daxpy

    return WorkloadSpec(
        name=f"daxpy-n{n_elems}-t{n_threads}-r{reps}",
        build=partial(
            build_daxpy, n_elems=n_elems, n_threads=n_threads, outer_reps=reps
        ),
        verify=partial(verify_daxpy, outer_reps=reps),
    )


def npb_spec(name: str, n_threads: int = 4, reps: int | None = None) -> WorkloadSpec:
    """One NPB-like benchmark as a sweep workload."""
    from .workloads.npb.common import BENCHMARKS

    bench = BENCHMARKS[name]
    reps = reps or bench.default_reps
    return WorkloadSpec(
        name=f"{name}-t{n_threads}-r{reps}",
        build=partial(bench.build, n_threads=n_threads, reps=reps),
        verify=partial(bench.verify, reps=reps),
    )


@dataclass(frozen=True)
class MachineRecipe:
    """Picklable machine factory (``kind`` selects the config builder)."""

    kind: str  # "smp" (bus) or "altix" (directory cc-NUMA)
    n_cpus: int
    scale: int = DEFAULT_SCALE

    def __call__(self) -> Machine:
        if self.kind == "smp":
            return Machine(itanium2_smp(self.n_cpus, scale=self.scale))
        if self.kind == "altix":
            return Machine(sgi_altix(self.n_cpus, scale=self.scale))
        raise ValidationError(f"unknown machine kind {self.kind!r}")


#: The paper's two platforms by CLI/bench name; a workload defaults to
#: one thread per CPU.
MACHINES = {"smp4": MachineRecipe("smp", 4), "altix8": MachineRecipe("altix", 8)}

#: The fidelity matrix's workloads (:mod:`repro.bench`): DAXPY plus every
#: kernel a paper figure is drawn from.
MATRIX_BENCHMARKS = ("daxpy", *REPORTED)


def default_machines(n_threads: int = 4, scale: int = 16) -> dict[str, MachineRecipe]:
    """SMP-bus vs directory cc-NUMA, sized so both can host ``n_threads``.

    Both machines run the workload with the *same* thread count so the
    floating-point reduction order is identical and bit-equality holds
    across coherence backends.
    """
    n_smp = max(4, n_threads)
    n_numa = max(8, 2 * ((n_threads + 1) // 2))
    return {
        f"smp{n_smp}": MachineRecipe("smp", n_smp, scale),
        f"altix{n_numa}": MachineRecipe("altix", n_numa, scale),
    }


# -- the algorithm: one cell --------------------------------------------------


@dataclass(frozen=True)
class Observables:
    """Everything one cell exposes for comparison."""

    digest: str
    arrays: Mapping[str, bytes]
    cycles: int
    retired: int
    events: tuple[tuple[str, int], ...]
    verified: bool | None
    #: coherence checks performed / violations recorded (``check=`` cells)
    checks: int = 0
    violations: tuple = ()
    #: the delivered HPM sample stream (``tap=`` cells)
    n_samples: int = 0
    samples_sha: str = ""
    #: trace-JIT observability aggregated over the machine's cores
    fastpath: Mapping[str, Any] = field(default_factory=dict)
    #: host seconds spent executing (machine and program builds, the
    #: output snapshot and verification are not timed)
    wall_s: float = field(default=0.0, compare=False)
    #: the run's ``CobraReport`` (``None`` under strategy "none")
    report: Any = field(default=None, compare=False)
    #: whatever the caller's ``inspect`` hook extracted from the live engine
    extra: Any = field(default=None, compare=False)

    @property
    def ledger(self):
        """The run's fault ledger, or ``None`` when nothing was armed."""
        return self.report.faults if self.report is not None else None

    def mem_events(self) -> MemEvents:
        """The event counters as a :class:`MemEvents` (for its derived ratios)."""
        events = MemEvents()
        for name, count in self.events:
            setattr(events, name, count)
        return events


def _snapshot_arrays(prog: ParallelProgram) -> dict[str, bytes]:
    """Raw bytes of every program array (bit-exact, dtype-agnostic)."""
    mem = prog.machine.mem
    return {
        name: mem.view_i64(alloc).tobytes()
        for name, alloc in sorted(prog.arrays.items())
    }


def _digest(arrays: Mapping[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(arrays[name])
    return h.hexdigest()


def _samples_sha(samples: list) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(
            f"{s.index},{s.pc},{s.pid},{s.thread_id},{s.cpu_id},{s.counters},"
            f"{s.btb},{s.miss_pc},{s.miss_latency},{s.miss_addr},{s.cycles}\n".encode()
        )
    return h.hexdigest()


class _TappedDrain:
    """Wraps ``MonitoringThread.drain`` to record every delivered sample."""

    def __init__(self, inner, sink: list) -> None:
        self._inner = inner
        self._sink = sink

    def __call__(self) -> list:
        out = self._inner()
        self._sink.extend(out)
        return out


def run_cell(
    machine: Callable[[], Machine],
    workload: WorkloadSpec,
    strategy: str = "none",
    delta: Mapping[str, Any] | None = None,
    *,
    check: str | None = None,
    jit: bool | None = None,
    osr: bool = True,
    tap: bool = False,
    max_bundles: int | None = None,
    inspect: Callable[[Any, Any], Any] | None = None,
) -> Observables:
    """One cell: fresh machine, fresh build, one execution.

    ``strategy`` "none" is the raw simulator; anything else runs under
    COBRA with ``delta`` (``CobraConfig`` field overrides) applied to the
    machine's own COBRA config.  ``check`` attaches a coherence checker
    in that mode around the whole run; ``jit``/``osr`` pin the per-core
    trace-JIT switches (``None`` keeps the ``REPRO_TRACE_JIT`` default);
    ``tap`` records the delivered HPM sample stream; ``inspect(engine,
    result)`` runs against the live COBRA engine after it stopped and
    its return value travels in :attr:`Observables.extra`.
    """
    m = machine()
    if jit is not None:
        for core in m.cores:
            core.jit_enabled = jit
            core.osr_enabled = jit and osr
    prog = workload.build(m)
    checker = None
    if check is not None:
        # deferred: an attachment (DESIGN.md §2 "Import layering"), and
        # repro.validate imports this module
        from .validate.checker import CoherenceChecker

        checker = CoherenceChecker(m, mode=check)
    captured: list = []
    engine = report = extra = None
    with checker if checker is not None else nullcontext():
        t0 = time.perf_counter()
        if strategy == "none":
            result = prog.run(max_bundles=max_bundles)
        else:
            # deferred: a build-only command (table1, disasm) never gets here
            from .core.framework import Cobra

            config = replace(m.config.cobra, **delta) if delta else m.config.cobra
            engine = Cobra(m, prog.image, strategy, config)
            if tap:
                for monitor in engine.monitors:
                    monitor.drain = _TappedDrain(monitor.drain, captured)
            scheduler = Scheduler([th.core for th in prog.threads])
            engine.install(scheduler)
            try:
                result = prog.run(max_bundles=max_bundles, scheduler=scheduler)
            finally:
                engine.stop()
            if tap:
                for monitor in engine.monitors:
                    captured.extend(monitor.usb)   # stragglers never drained
            report = engine.report()
        wall = time.perf_counter() - t0
        if inspect is not None and engine is not None:
            extra = inspect(engine, result)
    arrays = _snapshot_arrays(prog)
    return Observables(
        digest=_digest(arrays),
        arrays=arrays,
        cycles=result.cycles,
        retired=result.retired,
        events=tuple(sorted(result.events.snapshot().items())),
        verified=workload.verify(prog) if workload.verify else None,
        checks=checker.checks if checker else 0,
        violations=tuple(checker.violations) if checker else (),
        n_samples=len(captured),
        samples_sha=_samples_sha(captured),
        fastpath=report.fastpath if report is not None else fastpath_stats(m),
        wall_s=wall,
        report=report,
        extra=extra,
    )


# -- the policy: one sweep ----------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One unit of a sweep, as picklable data."""

    #: replay coordinates, e.g. ``"smp4/adaptive/seed=3"``
    label: str
    #: which reference this cell's outputs are diffed against
    machine: str
    #: zero-argument callable returning :class:`Observables` —
    #: typically ``partial(run_cell, recipe, workload, strategy, delta)``
    run: Callable[[], Observables]
    #: the cell's axis coordinates, for the harness's record
    axis: tuple = ()


@dataclass
class SweepResult:
    """Merged outcome of one sweep, in submission order."""

    references: dict[str, Observables] = field(default_factory=dict)
    runs: list[tuple[Cell, Observables]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _attempt(cell: Cell) -> tuple[Observables | None, str | None]:
    try:
        return cell.run(), None
    except Exception as exc:  # noqa: BLE001 — the invariant is *zero* escapes
        return None, f"{cell.label}: unhandled {type(exc).__name__}: {exc}"


#: A per-cell invariant checker: (cell, observables, reference) -> failures.
Check = Callable[[Cell, Observables, Observables], Iterable[str]]


@dataclass
class Sweep:
    """References + perturbed cells + the invariants they must keep."""

    #: one reference cell per machine name
    reference: Sequence[Cell]
    #: the perturbed cells — or, when their enumeration depends on what
    #: the references observed, a function from references to cells
    cells: Sequence[Cell] | Callable[[dict[str, Observables]], Sequence[Cell]]
    #: harness-specific invariant checkers, run on every completed cell
    checks: Sequence[Check] = ()
    #: injection counter + noun ("fault", "overload"): a sweep whose
    #: schedules injected nothing anywhere fails
    injected: Callable[[Observables], int] | None = None
    noun: str = "fault"

    def run(self, jobs: int = 1) -> SweepResult:
        # deferred: the process pool drags in multiprocessing, which the
        # single-run CLI commands never need
        from .parallel import run_tasks

        def attempts(cells: Sequence[Cell]):
            return zip(cells, run_tasks([(_attempt, (c,)) for c in cells], jobs=jobs))

        out = SweepResult()
        for cell, (obs, error) in attempts(self.reference):
            if error is not None:
                out.failures.append(error)
            else:
                out.references[cell.machine] = obs
        cells = self.cells(out.references) if callable(self.cells) else self.cells
        cells = [c for c in cells if c.machine in out.references]
        if not cells:
            out.failures.append(
                "empty sweep: no cell ran, so nothing was compared — "
                "this sweep proved nothing"
            )
            return out
        for cell, (obs, error) in attempts(cells):
            if error is not None:
                out.failures.append(error)
                continue
            out.runs.append((cell, obs))
            ref = out.references[cell.machine]
            if obs.digest != ref.digest:
                differing = ", ".join(
                    repr(name) for name, data in ref.arrays.items()
                    if obs.arrays.get(name) != data
                )
                out.failures.append(
                    f"{cell.label}: output digest {obs.digest[:12]} differs from "
                    f"the reference {ref.digest[:12]} in array(s) {differing} — "
                    "the perturbation reached program correctness"
                )
            if obs.ledger is not None and not obs.ledger.accounted:
                out.failures.append(
                    f"{cell.label}: {obs.ledger.outstanding} injected event(s) "
                    "unaccounted (neither detected nor tolerated)"
                )
            for check in self.checks:
                out.failures.extend(check(cell, obs, ref))
        if (
            self.injected is not None
            and out.runs
            and not sum(self.injected(obs) for _cell, obs in out.runs)
        ):
            out.failures.append(
                f"{self.noun} schedule injected nothing across the whole matrix — "
                "raise the rates or the run length; this sweep proved nothing"
            )
        return out


def seeded_sweep(
    workload: WorkloadSpec,
    machines: Mapping[str, Callable[[], Machine]],
    names: Iterable[str],
    seeds: Iterable[int],
    perturb: Callable[[str, int], tuple[str, Mapping[str, Any]]],
    jobs: int,
    **policy: Any,
) -> SweepResult:
    """Sweep machine × name × seed against each machine's plain run.

    ``perturb(name, seed)`` gives the cell's ``(strategy, delta)``; the
    reference is the raw simulator on the same machine.
    """
    matrix = sorted(machines.items())
    return Sweep(
        [
            Cell(f"{mname}/none", mname, partial(run_cell, factory, workload))
            for mname, factory in matrix
        ],
        [
            Cell(
                f"{mname}/{name}/seed={seed}", mname,
                partial(run_cell, factory, workload, *perturb(name, seed)),
                (name, seed),
            )
            for mname, factory in matrix
            for name in names
            for seed in seeds
        ],
        **policy,
    ).run(jobs)


@dataclass
class SweepReport:
    """What every sweep report shares: records, failures, one verdict.

    Subclasses supply ``headline()`` and ``line(record)``.
    """

    workload: str
    records: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return "\n".join(
            [self.headline()]
            + [f"  {self.line(record)}" for record in self.records]
            + [f"  FAIL: {failure}" for failure in self.failures]
        )
