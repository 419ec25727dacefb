"""Resource governor: budgets, overload injection, graceful degradation.

See :class:`~repro.governor.core.ResourceGovernor` for the budgets and
pressure model, :class:`~repro.governor.ladder.DegradationLadder` for
the five-rung hysteresis ladder, and ``OVERLOAD_SCHEDULES`` for the
named overload presets.  The sweep proving that no overload schedule
can change program outputs is the ``overloaded`` row of
:data:`repro.fuzz.differ.AXES` (``repro fuzz --axes overloaded``).
"""

from .core import OVERLOAD_SCHEDULES, OverloadInjector, ResourceGovernor
from .ladder import MAX_RECOVERY_WAKES, RUNGS, DegradationLadder

__all__ = [
    "RUNGS",
    "DegradationLadder",
    "ResourceGovernor",
    "OverloadInjector",
    "MAX_RECOVERY_WAKES",
    "OVERLOAD_SCHEDULES",
]
