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
  construction);
* :mod:`~repro.faults.chaos` — a :class:`ChaosHarness` mirroring
  :mod:`repro.validate.differential`: under any fault schedule, the
  program's outputs must stay bit-identical to the fault-free run —
  faults may cost performance, never correctness.

Enable injection with :attr:`repro.config.CobraConfig.faults`, the
``REPRO_FAULTS`` environment variable (an integer seed), or run the
sweep from the CLI: ``python -m repro chaos --seed N``.
"""

from .chaos import CHAOS_STRATEGIES, ChaosHarness, ChaosRecord, ChaosReport
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
    "CHAOS_STRATEGIES",
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
    "ChaosHarness",
    "ChaosRecord",
    "ChaosReport",
]
