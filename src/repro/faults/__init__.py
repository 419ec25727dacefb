"""Deterministic fault injection for the COBRA runtime.

COBRA's central risk is that it rewrites a *running* binary: the paper
relies on atomic bundle redirection and re-adaptation rollback to stay
transparent, and multi-version rewriters keep an unmodified fallback
precisely because live patches can go wrong.  This package exists to
*provoke* the unhappy paths and prove the runtime degrades gracefully:

* :mod:`~repro.faults.injector` — a seeded :class:`FaultInjector` with
  injection points at the three surfaces COBRA depends on (HPM
  sampling, trace-cache patching, the monitor/optimizer loop) and a
  structured ledger in which every injected fault must end up
  *detected* (actively recovered) or *tolerated* (harmless by
  construction).

The sweep that proves faults may cost performance, never correctness,
is the ``faulted`` row of :data:`repro.fuzz.differ.AXES`: each COBRA
strategy under a seeded schedule must keep the program's outputs
bit-identical to the fault-free run, account every fault and end in a
known mode.

Enable injection with :attr:`repro.config.CobraConfig.faults`, the
``REPRO_FAULTS`` environment variable (an integer seed), or run the
sweep from the CLI: ``python -m repro fuzz --workloads daxpy --axes
faulted --start N``.
"""

from .injector import (
    ALL_FAULTS,
    FLEET_FAULTS,
    FLEET_FRAME_FAULTS,
    FLEET_TOLERATED_AT_INJECTION,
    LOOP_FAULTS,
    OVERLOAD_FAULTS,
    PATCH_FAULTS,
    PERSIST_FAULTS,
    SAMPLE_FAULTS,
    TOLERATED_AT_INJECTION,
    FaultEvent,
    FaultInjector,
    FaultLedger,
    zero_rate_faults,
)

__all__ = [
    "ALL_FAULTS",
    "FLEET_FAULTS",
    "FLEET_FRAME_FAULTS",
    "FLEET_TOLERATED_AT_INJECTION",
    "LOOP_FAULTS",
    "OVERLOAD_FAULTS",
    "PATCH_FAULTS",
    "PERSIST_FAULTS",
    "SAMPLE_FAULTS",
    "TOLERATED_AT_INJECTION",
    "FaultEvent",
    "FaultInjector",
    "FaultLedger",
    "zero_rate_faults",
]
