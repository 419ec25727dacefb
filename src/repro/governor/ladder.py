"""The five-rung graceful-degradation ladder.

Kept free of runtime dependencies so the hysteresis contract is
directly property-testable: the ladder is a pure function of the
pressure observations fed to it.

Rungs, in escalation order:

``full``
    Everything on: profile, compile, deploy.
``no-new-compiles``
    Live traces stay live, but no new deployment is attempted.
``monitor-only``
    Every deployment is rolled back (the unmodified original is always
    correct); profiling and reporting continue.
``frozen``
    Monitors stop too — no samples, no patches, pure pass-through.
``off``
    The optimizer wake itself becomes a no-op beyond the governor.

Transitions are one rung per observation, with hysteresis: escalate
while pressure is at or above ``escalate``; recover one rung only after
``recovery_windows`` *consecutive* observations at or below
``recover``; anything in the band between the two thresholds holds the
current rung and resets the recovery streak.  Because the band is
non-empty (enforced at construction), a pressure level held at either
boundary can never oscillate — at ``escalate`` it descends monotonically
to ``off`` and stays, at ``recover`` it climbs cleanly back to ``full``.
"""

from __future__ import annotations

__all__ = [
    "RUNGS",
    "DegradationLadder",
    "ESCALATE_PRESSURE",
    "RECOVER_PRESSURE",
    "RECOVERY_WINDOWS",
    "MAX_RECOVERY_WAKES",
]

#: Service rungs in escalation order (index 0 = fully operational).
RUNGS = ("full", "no-new-compiles", "monitor-only", "frozen", "off")

#: The governor's ladder: pressure at or above this escalates one rung
#: per wake ...
ESCALATE_PRESSURE = 0.85
#: ... pressure at or below this counts toward recovery ...
RECOVER_PRESSURE = 0.60
#: ... and this many consecutive calm wakes recover one rung.
RECOVERY_WINDOWS = 3
#: Calm wakes that guarantee the governor's return to ``full`` from any rung.
MAX_RECOVERY_WAKES = (len(RUNGS) - 1) * RECOVERY_WINDOWS


class DegradationLadder:
    """Hysteresis state machine over the five service rungs."""

    def __init__(
        self,
        escalate: float = ESCALATE_PRESSURE,
        recover: float = RECOVER_PRESSURE,
        recovery_windows: int = RECOVERY_WINDOWS,
    ) -> None:
        if not 0.0 < recover < escalate <= 1.0:
            raise ValueError(
                f"need 0 < recover ({recover}) < escalate ({escalate}) <= 1"
            )
        if recovery_windows < 1:
            raise ValueError(f"recovery_windows must be >= 1, got {recovery_windows}")
        self.escalate = escalate
        self.recover = recover
        self.recovery_windows = recovery_windows
        self.rung_index = 0
        #: consecutive calm observations toward the next recovery
        self.clear_streak = 0

    @property
    def rung(self) -> str:
        return RUNGS[self.rung_index]

    def observe(self, pressure: float) -> tuple[str, str, int] | None:
        """Feed one pressure observation; returns ``(from, to, streak)``
        on a transition (``streak`` is the calm-window count that earned
        a recovery, 0 for an escalation), else ``None``."""
        if pressure >= self.escalate:
            self.clear_streak = 0
            if self.rung_index < len(RUNGS) - 1:
                self.rung_index += 1
                return (RUNGS[self.rung_index - 1], RUNGS[self.rung_index], 0)
            return None
        if pressure <= self.recover:
            self.clear_streak += 1
            if self.clear_streak >= self.recovery_windows and self.rung_index > 0:
                streak = self.clear_streak
                self.clear_streak = 0
                self.rung_index -= 1
                return (RUNGS[self.rung_index + 1], RUNGS[self.rung_index], streak)
            return None
        # hysteresis band: hold the rung, restart the recovery clock
        self.clear_streak = 0
        return None
