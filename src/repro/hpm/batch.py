"""Aggregated telemetry batches shipped by fleet agents.

A fleet agent does not forward raw :class:`~repro.hpm.sample.Sample`
records — at 50+ instances that would be most of the wire traffic for
data the daemon immediately folds anyway.  Instead the agent's outbox
aggregates each optimizer window into one :class:`WindowBatch`: the
window ordinal, the retired-instruction watermark, the sample/quarantine
deltas the profiler absorbed, and the window CPI.  The daemon treats a
batch exactly like the profiler treats a sample: untrusted input that
must load as :attr:`WindowBatch.PAYLOAD` (every field's type and range
in one walk) before it can touch shared state, with cross-batch ordering
anomalies (window conflicts, retired-count time travel) checked
stream-side by the daemon.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

from ..shape import COUNT, REAL, Record

__all__ = ["WindowBatch"]


@dataclass(frozen=True)
class WindowBatch:
    """One optimizer window's aggregated HPM telemetry."""

    #: window ordinal within the instance's run (0-based, dense)
    window: int
    #: aggregate retired instructions at the wake that closed the window
    retired: int
    #: samples the profiler ingested during the window
    samples: int
    #: samples the sanitizer quarantined during the window
    quarantined: int
    #: window CPI (0.0 = empty window, no signal)
    cpi: float

    #: The wire form (:meth:`to_payload`): a batch crossed a
    #: fault-injectable transport and a possibly-compromised agent, so
    #: each field is checked before the daemon merges it; the reason a
    #: damaged one is quarantined names the field (``samples-range``).
    PAYLOAD: ClassVar[Record] = Record(
        window=COUNT, retired=COUNT, samples=COUNT, quarantined=COUNT, cpi=REAL,
    )

    def to_payload(self) -> dict:
        """Canonical JSON-ready payload for the wire frame."""
        return asdict(self)
