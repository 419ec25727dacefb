"""Agent-side telemetry outbox.

The fleet agent's half of the split is deliberately thin: the full
COBRA runtime (monitors, profiler, optimizer, trace cache) still runs
in-process exactly as in a solo run, and the outbox only *observes* it
— one :class:`~repro.hpm.batch.WindowBatch` per optimizer wake, plus
the run's final mergeable profile entry.  It never mutates runtime
state and draws no randomness, which is what keeps a fleet instance's
outputs and cycle counts bit-identical to the same run without an
outbox.
"""

from __future__ import annotations

from ..hpm.batch import WindowBatch
from .wire import batch_frame, hello_frame, profile_frame

__all__ = ["FleetOutbox"]


class FleetOutbox:
    """Collects sequence-numbered wire frames during one instance run."""

    def __init__(self, instance: str, key: str, digest: str) -> None:
        self.instance = instance
        self.key = key
        self.digest = digest
        self.windows: list[WindowBatch] = []
        # monotonic batch ordinal: equals len(windows) until the
        # governor sheds oldest batches under an outbox bound, after
        # which ordinals must keep advancing (the daemon quarantines
        # window-ordinal conflicts; gaps are fine)
        self._window_seq = 0
        self._last_samples = 0
        self._last_quarantined = 0

    def on_wake(self, retired: int, window_cpi: float, profiler) -> None:
        """Optimizer wake hook (wired like the persistence hook)."""
        batch = WindowBatch(
            window=self._window_seq,
            retired=retired,
            samples=profiler.samples_seen - self._last_samples,
            quarantined=profiler.quarantined_total - self._last_quarantined,
            cpi=round(window_cpi, 6),
        )
        self._window_seq += 1
        self._last_samples = profiler.samples_seen
        self._last_quarantined = profiler.quarantined_total
        self.windows.append(batch)

    def frames(self, entry: dict) -> list[dict]:
        """The run's full wire traffic: hello, window batches, profile.

        Sequence numbers are dense per instance: hello is 0, batches
        follow, the final profile entry is last.
        """
        frames = [hello_frame(self.instance, self.key, self.digest)]
        for batch in self.windows:
            frames.append(
                batch_frame(
                    self.instance, len(frames), self.key, batch.to_payload()
                )
            )
        frames.append(
            profile_frame(self.instance, len(frames), self.key, self.digest, entry)
        )
        return frames

    def send_times(self, final_retired: int) -> list[int]:
        """Virtual send tick per frame (hello first, profile last)."""
        times = [0]
        times.extend(batch.retired for batch in self.windows)
        times.append(max(final_retired, times[-1] + 1))
        return times
