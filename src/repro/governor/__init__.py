"""Resource governor: budgets, overload injection, graceful degradation.

See :class:`~repro.governor.core.ResourceGovernor` for the budgets and
pressure model, :class:`~repro.governor.ladder.DegradationLadder` for
the five-rung hysteresis ladder, and
:class:`~repro.governor.harness.OverloadHarness` for the sweep proving
that no overload schedule can change program outputs.
"""

from .core import OverloadInjector, ResourceGovernor
from .harness import (
    OVERLOAD_SCHEDULES,
    OverloadHarness,
    OverloadRecord,
    OverloadReport,
)
from .ladder import MAX_RECOVERY_WAKES, RUNGS, DegradationLadder

__all__ = [
    "RUNGS",
    "DegradationLadder",
    "ResourceGovernor",
    "OverloadInjector",
    "MAX_RECOVERY_WAKES",
    "OverloadHarness",
    "OverloadRecord",
    "OverloadReport",
    "OVERLOAD_SCHEDULES",
]
