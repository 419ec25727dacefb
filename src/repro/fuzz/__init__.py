"""Seeded differential fuzzing of the compiler + runtime + optimizer stack.

``repro.fuzz`` samples the :mod:`repro.compiler.kernels` template space
into small, deterministic multithreaded scenarios and executes each one
across every axis that must agree bit-for-bit:

* every COBRA strategy vs no runtime optimization at all, under a
  coherence checker,
* trace-JIT enabled vs disabled,
* faulted (seeded ``repro.faults`` schedule) vs clean,
* checkpoint vs none, and crash-then-resume vs straight-through (every
  N-th durable write with ``--stride N``),
* overloaded (seeded governor schedule) vs clean.

The same rows run over named workloads (``repro fuzz --workloads``) on
both machine models.  Any disagreement is a *divergence*; a generated
one reproduces from two integers — the ``(generator_seed,
fault_seed)`` pair printed in the report.
"""

from .generator import ScenarioParams, generate_params
from .driver import build_scenario, scenario_machine
from .differ import AXES, Case, DifferentialFuzzer, named_cases, run_scenario
from .shrinker import shrink
from .report import Divergence, FuzzReport, ScenarioResult

__all__ = [
    "ScenarioParams",
    "generate_params",
    "build_scenario",
    "scenario_machine",
    "AXES",
    "Case",
    "DifferentialFuzzer",
    "named_cases",
    "run_scenario",
    "shrink",
    "Divergence",
    "FuzzReport",
    "ScenarioResult",
]
