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
- :mod:`repro.memory` — caches, one MESI fabric (SMP bus = one node, cc-NUMA = several);
- :mod:`repro.cpu` — interpreter cores, machines, time-ordered scheduler;
- :mod:`repro.hpm` — PMU counters, BTB, DEAR, perfmon-like sampling;
- :mod:`repro.runtime` — threads, OpenMP-style parallel programs;
- :mod:`repro.compiler` — kernel templates -> prefetch-aggressive code;
- :mod:`repro.core` — COBRA itself (the paper's contribution);
- :mod:`repro.workloads` — DAXPY and the NPB-like suite;
- :mod:`repro.analysis` — the paper's figures and tables, rendered from
  the fidelity matrix (:mod:`repro.bench`);
- :mod:`repro.validate` — coherence invariant checker, ISA round-trip
  checks;
- :mod:`repro.scenario` — the one run-perturb-compare algorithm under
  every correctness sweep (``run_cell``);
- :mod:`repro.fuzz` — the axis table every must-agree perturbation is a
  row of, over generated kernels or named workloads.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> defining submodule.  ``import repro`` loads none of
#: them: a name is imported on first access (PEP 562) and then cached in
#: the module namespace (DESIGN.md §2 "Import layering").
_EXPORTS = {
    "MachineConfig": "config",
    "CobraConfig": "config",
    "itanium2_smp": "config",
    "sgi_altix": "config",
    "Machine": "cpu.machine",
    "Scheduler": "cpu.scheduler",
    "Cobra": "core.framework",
    "CobraReport": "core.framework",
    "run_with_cobra": "core.framework",
    "ParallelProgram": "runtime.team",
    "RunResult": "runtime.team",
    "CoherenceChecker": "validate.checker",
    "BENCHMARKS": "workloads.npb.common",
    "REPORTED": "workloads.npb",
    "build_daxpy": "workloads.daxpy",
    "verify_daxpy": "workloads.daxpy",
    "working_set_elems": "workloads.daxpy",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
