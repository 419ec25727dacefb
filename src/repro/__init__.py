"""COBRA reproduction: adaptive runtime binary optimization for
multithreaded applications (Kim, Hsu, Yew — ICPP 2007), rebuilt on a
simulated Itanium-2-like multiprocessor.

Public API tour:

>>> from repro import itanium2_smp, Machine, build_daxpy, run_with_cobra
>>> machine = Machine(itanium2_smp(4, scale=4))
>>> prog = build_daxpy(machine, n_elems=2048, n_threads=4, outer_reps=20)
>>> result, report = run_with_cobra(prog, strategy="adaptive")
>>> report.deployments  # the traces COBRA rewrote and redirected

Subpackages:

- :mod:`repro.isa` — IA-64-like ISA: bundles, predication, rotation,
  ``lfetch`` hints, patchable binaries, assembler/disassembler;
- :mod:`repro.memory` — caches, MESI snooping bus, cc-NUMA directory;
- :mod:`repro.cpu` — interpreter cores, machines, time-ordered scheduler;
- :mod:`repro.hpm` — PMU counters, BTB, DEAR, perfmon-like sampling;
- :mod:`repro.runtime` — threads, OpenMP-style parallel programs;
- :mod:`repro.compiler` — kernel templates -> prefetch-aggressive code;
- :mod:`repro.core` — COBRA itself (the paper's contribution);
- :mod:`repro.workloads` — DAXPY and the NPB-like suite;
- :mod:`repro.analysis` — normalized metrics and paper-style tables;
- :mod:`repro.validate` — coherence invariant checker, differential
  (optimized vs baseline) execution harness, ISA round-trip checks;
- :mod:`repro.scenario` — the one run-perturb-compare engine under
  every correctness sweep (``run_cell`` + ``Sweep``).
"""

from .config import (
    CobraConfig,
    MachineConfig,
    itanium2_smp,
    sgi_altix,
)
from .cpu import Machine, Scheduler
from .core import Cobra, CobraReport, run_with_cobra
from .runtime import ParallelProgram, RunResult
from .validate import CoherenceChecker, DifferentialHarness
from .workloads import BENCHMARKS, REPORTED, build_daxpy, verify_daxpy, working_set_elems

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "CobraConfig",
    "itanium2_smp",
    "sgi_altix",
    "Machine",
    "Scheduler",
    "Cobra",
    "CobraReport",
    "run_with_cobra",
    "ParallelProgram",
    "RunResult",
    "CoherenceChecker",
    "DifferentialHarness",
    "BENCHMARKS",
    "REPORTED",
    "build_daxpy",
    "verify_daxpy",
    "working_set_elems",
    "__version__",
]
