"""Parallel program assembly and execution (the OpenMP-like runtime).

:class:`ParallelProgram` owns a binary image and wires together:

* arrays in simulated memory;
* kernel functions compiled from templates (shared by all threads);
* per-thread *driver stubs* that materialize chunk parameters in
  registers, ``br.call`` the shared kernels, and hit the implicit
  barrier between regions — the moral equivalent of the outlined
  functions an OpenMP compiler emits;
* an optional in-binary outer repetition loop (the ``j`` loop of the
  paper's DAXPY example, Figure 1).

Work distribution is OpenMP static scheduling: "computations inside a
loop are distributed based on the loop index range regardless of data
locations" (paper §5.1) — which is exactly what creates boundary
sharing and, with aggressive prefetch, the coherent misses COBRA
removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiler.codegen import Emitter, Function, KernelCompiler
from ..compiler.kernels import KernelTemplate
from ..compiler.prefetch import AGGRESSIVE, PrefetchPlan
from ..cpu.machine import Machine
from ..cpu.scheduler import Scheduler
from ..errors import RuntimeError_
from ..isa.binary import BinaryImage
from ..isa.instructions import Instruction, Op
from ..memory.dram import Allocation
from ..memory.events import MemEvents
from .affinity import bind_threads
from .barrier import emit_barrier
from .thread import SimThread

__all__ = ["Call", "RunResult", "ParallelProgram", "static_chunks"]


def static_chunks(n: int, n_threads: int) -> list[tuple[int, int]]:
    """OpenMP static schedule: (start, count) per thread, block-wise."""
    if n < 0 or n_threads < 1:
        raise RuntimeError_("bad chunking request")
    size = -(-n // n_threads) if n else 0
    out = []
    for t in range(n_threads):
        start = min(t * size, n)
        out.append((start, min(size, n - start)))
    return out


@dataclass(frozen=True)
class Call:
    """One kernel invocation with fully-resolved register arguments."""

    fn: Function
    args: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.args) != len(self.fn.params):
            raise RuntimeError_(
                f"{self.fn.name}: {len(self.args)} args for {len(self.fn.params)} params"
            )


@dataclass
class RunResult:
    """Observables of one program execution."""

    cycles: int                       # wall-clock proxy: max per-core delta
    per_cpu_cycles: list[int]
    retired: int
    events: MemEvents                 # system-wide delta
    per_cpu_events: list[dict[str, int]]


class ParallelProgram:
    """Builder + executor for one multithreaded program."""

    def __init__(self, machine: Machine, name: str = "prog") -> None:
        self.machine = machine
        self.name = name
        self.image = BinaryImage(machine.next_text_base())
        self.compiler = KernelCompiler(self.image, machine.mem)
        self.arrays: dict[str, Allocation] = {}
        self._thread_calls: dict[int, list[list[Call]]] = {}
        self._phase_breaks: list[int] = []
        self._built = False
        self.threads: list[SimThread] = []
        self.n_threads = 0

    # -- data ------------------------------------------------------------------

    def array(self, name: str, n_elems: int, init: np.ndarray | float | None = None) -> Allocation:
        """Allocate an 8-byte-element array; optionally initialize it."""
        alloc = self.machine.mem.alloc(name, n_elems * 8)
        self.arrays[name] = alloc
        if init is not None:
            view = self.machine.mem.view_f64(alloc)
            view[:n_elems] = init
        return alloc

    def int_array(self, name: str, n_elems: int, init: np.ndarray | int | None = None) -> Allocation:
        alloc = self.machine.mem.alloc(name, n_elems * 8)
        self.arrays[name] = alloc
        if init is not None:
            view = self.machine.mem.view_i64(alloc)
            view[:n_elems] = init
        return alloc

    def f64(self, name: str) -> np.ndarray:
        """Float view of an array (element count, not padded size)."""
        return self.machine.mem.view_f64(self.arrays[name])

    def i64(self, name: str) -> np.ndarray:
        return self.machine.mem.view_i64(self.arrays[name])

    # -- code ---------------------------------------------------------------------

    def kernel(self, template: KernelTemplate, plan: PrefetchPlan = AGGRESSIVE) -> Function:
        return self.compiler.compile(template, plan)

    def make_call(
        self,
        fn: Function,
        start: int,
        count: int,
        raw: dict[str, int] | None = None,
    ) -> Call:
        """Resolve a chunk ``[start, start+count)`` into register args.

        ``raw`` supplies values for ``raw`` params, keyed by array name
        (``None``-array raw params use the key ``"result"``).
        """
        raw = raw or {}
        args: list[int] = []
        for spec in fn.params:
            if spec.kind == "count":
                args.append(count)
            elif spec.kind == "addr":
                alloc = self.arrays[spec.array]
                args.append(alloc.addr(start + spec.shift))
            else:  # raw
                key = spec.array if spec.array is not None else "result"
                if key in raw:
                    args.append(raw[key])
                elif spec.array is not None:
                    args.append(self.arrays[spec.array].base)
                else:
                    raise RuntimeError_(f"{fn.name}: missing raw value for {key!r}")
        return Call(fn, tuple(args))

    def region(self, calls: list[Call | None]) -> None:
        """Add one parallel region: ``calls[t]`` runs on thread ``t``
        (``None`` = this thread has no work; it only hits the barrier)."""
        n = len(calls)
        if self.n_threads == 0:
            self.n_threads = n
        elif n != self.n_threads:
            raise RuntimeError_("all regions must cover the same thread count")
        for t, call in enumerate(calls):
            self._thread_calls.setdefault(t, []).append([call] if call else [])

    def parallel_for(
        self,
        fn: Function,
        n: int,
        n_threads: int,
        raw: dict[str, int] | None = None,
    ) -> None:
        """Convenience: one statically-chunked region over ``[0, n)``."""
        calls: list[Call | None] = []
        for start, count in static_chunks(n, n_threads):
            calls.append(self.make_call(fn, start, count, raw) if count else None)
        self.region(calls)

    def phase_break(self) -> None:
        """End the current phase: regions added before and after the
        break get independent outer repetition loops (the workload
        changes behaviour between phases — COBRA's re-adaptation case).
        """
        if self.n_threads == 0:
            raise RuntimeError_("add at least one region before a phase break")
        self._phase_breaks.append(len(self._thread_calls[0]))

    # -- build ------------------------------------------------------------------------

    def _region_groups(self, t: int) -> list[list[list[Call]]]:
        regions = self._thread_calls[t]
        groups = []
        prev = 0
        for brk in self._phase_breaks:
            groups.append(regions[prev:brk])
            prev = brk
        groups.append(regions[prev:])
        return [g for g in groups if g]

    def build(
        self,
        outer_reps: int | list[int] = 1,
        affinity: str = "compact",
        barrier_between_regions: bool = True,
    ) -> None:
        """Emit per-thread drivers (+barrier), link, and load the image.

        ``outer_reps`` may be a list with one entry per phase (phases
        are delimited with :meth:`phase_break`); a scalar applies to
        every phase.
        """
        if self._built:
            raise RuntimeError_("program already built")
        if self.n_threads == 0:
            raise RuntimeError_("no regions added")
        n_phases = len(self._region_groups(0))
        if isinstance(outer_reps, int):
            reps_list = [outer_reps] * n_phases
        else:
            reps_list = list(outer_reps)
        if len(reps_list) != n_phases:
            raise RuntimeError_(
                f"{len(reps_list)} outer_reps entries for {n_phases} phase(s)"
            )
        if any(r < 1 for r in reps_list):
            raise RuntimeError_("outer_reps must be >= 1")

        em = Emitter(self.image)
        barrier_entry = None
        if self.n_threads > 1 and barrier_between_regions:
            emit_barrier(em, self.machine.mem, self.n_threads, f"__barrier_{self.name}")
            barrier_entry = f"__barrier_{self.name}"

        cpu_ids = bind_threads(self.machine.config, self.n_threads, affinity)
        for t in range(self.n_threads):
            entry_label = f"__thread{t}_{self.name}"
            em.label(entry_label)
            for phase, group in enumerate(self._region_groups(t)):
                reps = reps_list[phase]
                if reps > 1:
                    # r31: the only GR that must stay live across kernel
                    # calls.  It sits above the parameter window
                    # (r16..r27) and the barrier scratch regs (r25..r28).
                    em.emit(Instruction(Op.MOVI, r1=31, imm=reps))
                    em.label(f".outer{t}p{phase}_{self.name}")
                for region in group:
                    for call in region:
                        for spec, value in zip(call.fn.params, call.args):
                            em.emit(Instruction(Op.MOVI, r1=spec.reg, imm=value))
                        em.emit(Instruction(Op.BR_CALL, label=call.fn.name, unit="B"))
                    if barrier_entry is not None:
                        em.emit(Instruction(Op.BR_CALL, label=barrier_entry, unit="B"))
                if reps > 1:
                    em.emit(Instruction(Op.ADDI, r1=31, r2=31, imm=-1))
                    em.emit(Instruction(Op.CMPI_NE, r1=6, r2=7, r3=31, imm=0))
                    em.emit(
                        Instruction(
                            Op.BR_COND, qp=6, label=f".outer{t}p{phase}_{self.name}",
                            unit="B",
                        )
                    )
            em.emit(Instruction(Op.HALT, unit="B"))
            em.flush()

        self.compiler.link()
        self.machine.load_image(self.image)
        self.threads = [
            SimThread(t, self.machine.cores[cpu_ids[t]], self.image.labels[f"__thread{t}_{self.name}"])
            for t in range(self.n_threads)
        ]
        self._built = True

    # -- run ----------------------------------------------------------------------------

    def run(self, max_bundles: int | None = None, scheduler: Scheduler | None = None) -> RunResult:
        """Execute all threads to completion; return delta observables."""
        if not self._built:
            raise RuntimeError_("call build() first")
        cores = [th.core for th in self.threads]
        start_cycles = [c.cycles for c in cores]
        start_retired = [c.retired for c in cores]
        start_events = [c.cache.events.snapshot() for c in cores]

        for th in self.threads:
            th.start()
        sched = scheduler or Scheduler(cores)
        sched.run_until_halt(max_bundles)

        per_cpu_cycles = [c.cycles - s for c, s in zip(cores, start_cycles)]
        per_cpu_events = [
            c.cache.events.delta(s) for c, s in zip(cores, start_events)
        ]
        total = MemEvents()
        for c in cores:
            total.add(c.cache.events)
        baseline = MemEvents()
        for snap in start_events:
            for key, val in snap.items():
                setattr(baseline, key, getattr(baseline, key) + val)
        delta = MemEvents()
        for name in MemEvents.__slots__:
            setattr(delta, name, getattr(total, name) - getattr(baseline, name))

        return RunResult(
            cycles=max(per_cpu_cycles),
            per_cpu_cycles=per_cpu_cycles,
            retired=sum(c.retired - s for c, s in zip(cores, start_retired)),
            events=delta,
            per_cpu_events=per_cpu_events,
        )
