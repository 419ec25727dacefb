"""The scenario engine: one run-perturb-compare algorithm for every sweep.

COBRA's ship criterion is that a runtime rewrite (lfetch→nop,
lfetch→lfetch.excl, trace deployment) may move cycles but never
outputs.  Every correctness sweep in the package — the fuzz axis table
(:mod:`repro.fuzz.differ`, whose rows include the crash-recovery sweep)
and the fleet — proves that the same way, through :func:`run_cell`:
fresh machine → build the workload → apply a ``CobraConfig`` delta →
run under one strategy → snapshot every program array →
:class:`Observables`.  A cell is a pure function of its arguments
(fresh machine, fresh program, seeded injectors), so it replays from
its coordinates and can run in any process.  What a sweep runs, what
each cell is diffed against and which invariants it keeps are the axis
table's rows.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Mapping

from .compiler import AGGRESSIVE, PrefetchPlan
from .config import DEFAULT_SCALE, itanium2_smp, sgi_altix
from .cpu.machine import Machine
from .cpu.tracejit import fastpath_stats
from .errors import ValidationError
from .isa import Op
from .isa.instructions import nop
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
    "run_cell",
    "daxpy_spec",
    "nop_prefetches",
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


def nop_prefetches(prog: ParallelProgram) -> ParallelProgram:
    """The paper's static noprefetch binary: the same code with every
    ``lfetch`` patched to a nop."""
    for addr, slot in prog.image.find_ops(Op.LFETCH):
        prog.image.patch_slot(addr, slot, nop("M"), "static noprefetch")
    return prog


def _built_without_prefetches(build, machine: Machine) -> ParallelProgram:
    return nop_prefetches(build(machine))


def daxpy_spec(n_elems: int = 512, n_threads: int = 4, reps: int = 5,
               binary: str = "prefetch") -> WorkloadSpec:
    """The paper's DAXPY kernel as a sweep workload.

    ``binary`` is one of Fig. 3's static binaries: ``prefetch`` (the
    compiler's aggressive plan), ``noprefetch`` (that code after
    :func:`nop_prefetches`) or ``prefetch.excl``.
    """
    from .workloads.daxpy import build_daxpy, verify_daxpy

    build = partial(
        build_daxpy, n_elems=n_elems, n_threads=n_threads, outer_reps=reps,
        plan=PrefetchPlan(excl=True) if binary == "prefetch.excl" else AGGRESSIVE,
    )
    if binary == "noprefetch":
        build = partial(_built_without_prefetches, build)
    return WorkloadSpec(
        name=f"daxpy-n{n_elems}-t{n_threads}-r{reps}"
        + ("" if binary == "prefetch" else f"-{binary}"),
        build=build,
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
            result = engine.run(prog, max_bundles)
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
