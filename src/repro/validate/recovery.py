"""Recovery-equivalence harness: crash anywhere, recover everywhere.

One axis set over :mod:`repro.scenario`, sweeping *crash points*
instead of fault schedules: the reference is each machine's
uninterrupted persisting run; every perturbed cell kills the process at
one durable persistence write (journal append or snapshot rename),
optionally leaving a torn byte-prefix behind, and restarts against the
surviving checkpoint store.  The crash-consistency invariant enforced
for every cell of the (machine x crash-point x tear-mode) matrix:

* **(A) output equivalence** — the resumed run's committed program
  outputs are bit-identical to the uninterrupted reference run (the
  engine's reference diff);
* **(B) prefix durability** — the crashed store's journal is a valid
  byte-prefix of the reference run's journal, and every snapshot file
  both stores share is byte-identical (a crash may lose a suffix,
  never rewrite history);
* **(C) ledger accounting** — every torn record, corrupt snapshot and
  stray temp file discarded during recovery appears in the resumed
  run's fault ledger, and the ledger is fully accounted;
* **(D) resume determinism** — resuming twice from a byte-identical
  copy of the crashed store reproduces the same outputs and the same
  persistence counters (recovery is a pure function of the store).

Each cell runs on a fresh machine with a fresh program build over a
:class:`~repro.persist.journal.MemoryDisk`, so crash debris cannot leak
between cells and every failure replays from its (crash_write,
torn_bytes) coordinates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Mapping

from ..config import FaultConfig, PersistConfig
from ..cpu.machine import Machine
from ..errors import SimulatedCrash, ValidationError
from ..persist.journal import JOURNAL_NAME, MemoryDisk, scan_journal
from ..scenario import (
    Cell,
    Observables,
    Sweep,
    SweepReport,
    WorkloadSpec,
    default_machines,
    run_cell,
)

__all__ = [
    "RecoveryHarness",
    "RecoveryRecord",
    "RecoveryReport",
    "zero_rate_faults",
]

#: Default torn-write modes: ``None`` kills *before* the write lands
#: (clean boundary), an integer k leaves a durable k-byte prefix of the
#: record (torn write) for recovery to detect and discard.
DEFAULT_TORN_MODES: tuple[int | None, ...] = (None, 7)

#: Shortened optimizer wake interval so small sweep workloads actually
#: deploy (the default interval outlives them).
OPTIMIZE_INTERVAL = 30_000


def zero_rate_faults(seed: int = 0) -> FaultConfig:
    """An armed injector that never injects.

    Resumed runs need a live :class:`~repro.faults.injector.FaultInjector`
    so recovery can *account* discarded records on the ledger, but must
    not draw any random faults of their own — at rate 0.0 the injector
    consumes no RNG, so the resumed run stays deterministic.
    """
    return FaultConfig(seed=seed, sample_rate=0.0, patch_rate=0.0, loop_rate=0.0)


@dataclass(frozen=True)
class RecoveryRecord:
    """One crash-and-recover cell of the matrix."""

    machine: str
    crash_write: int
    torn_bytes: int | None
    digest: str
    replayed: int
    discarded: int
    warm_deploys: int
    accounted: bool

    @property
    def label(self) -> str:
        return _label(self.machine, self.crash_write, self.torn_bytes)

    def to_json(self) -> dict:
        return asdict(self)


def _label(machine: str, crash_write: int, torn: int | None) -> str:
    tear = "boundary" if torn is None else f"torn[{torn}B]"
    return f"{machine}/write={crash_write}/{tear}"


@dataclass
class RecoveryReport(SweepReport):
    """Outcome of one crash-recovery sweep."""

    reference_digests: dict[str, str] = field(default_factory=dict)
    durable_writes: dict[str, int] = field(default_factory=dict)

    def total_discarded(self) -> int:
        return sum(r.discarded for r in self.records)

    def total_warm_deploys(self) -> int:
        return sum(r.warm_deploys for r in self.records)

    def headline(self) -> str:
        return (
            f"recovery[{self.workload}]: {len(self.records)} crash cell(s), "
            f"{self.total_discarded()} torn/corrupt artifact(s) discarded, "
            f"{self.total_warm_deploys()} warm redeploy(s), "
            f"{'OK' if self.ok else 'FAIL'}"
        )

    def line(self, rec: RecoveryRecord) -> str:
        return (
            f"{rec.label:34s} digest={rec.digest[:12]} "
            f"replayed={rec.replayed} discarded={rec.discarded} "
            f"warm_deploys={rec.warm_deploys}"
        )

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "ok": self.ok,
            "reference_digests": dict(self.reference_digests),
            "durable_writes": dict(self.durable_writes),
            "cells": [r.to_json() for r in self.records],
            "failures": list(self.failures),
        }


# -- cells (module-level so they pickle for --jobs) ---------------------------


def _persisting_run(
    machine: Callable[[], Machine], workload: WorkloadSpec, strategy: str,
    disk: MemoryDisk, faults: FaultConfig,
) -> Observables:
    """One COBRA run persisting to ``disk``."""
    return run_cell(machine, workload, strategy, {
        "optimize_interval": OPTIMIZE_INTERVAL,
        "persist": PersistConfig(disk=disk),
        "faults": faults,
    })


def _reference(machine, workload: WorkloadSpec, strategy: str) -> Observables:
    """Uninterrupted run; ``extra`` = (journal bytes, snapshots, op count)."""
    disk = MemoryDisk()
    obs = _persisting_run(machine, workload, strategy, disk, zero_rate_faults())
    snapshots = {
        name: bytes(data) for name, data in disk.files.items() if name != JOURNAL_NAME
    }
    journal = bytes(disk.files.get(JOURNAL_NAME, b""))
    return replace(obs, extra=(journal, snapshots, disk.durable_ops))


def _check_prefix(
    label: str, disk: MemoryDisk, ref_journal: bytes,
    ref_snapshots: dict[str, bytes], out: list[str],
) -> None:
    """(B): the crashed store never disagrees with durable history."""
    data = bytes(disk.files.get(JOURNAL_NAME, b""))
    _records, valid_len, _notes = scan_journal(data)
    if data[:valid_len] != ref_journal[:valid_len]:
        out.append(
            f"{label}: crashed journal's valid prefix diverges from the "
            "uninterrupted run's journal — durable history was rewritten"
        )
    for name, payload in disk.files.items():
        if name == JOURNAL_NAME or name.endswith(".tmp"):
            continue
        ref = ref_snapshots.get(name)
        if ref is not None and bytes(payload) != ref:
            out.append(
                f"{label}: snapshot {name} differs from the "
                "uninterrupted run's copy"
            )


def _crash_cell(
    machine, workload: WorkloadSpec, strategy: str, mname: str, crash_write: int,
    torn: int | None, ref_journal: bytes, ref_snapshots: dict[str, bytes],
) -> Observables:
    """Crash, resume, resume again; ``extra`` = (record, failures)."""
    failures: list[str] = []
    label = _label(mname, crash_write, torn)
    disk = MemoryDisk()
    crash_faults = replace(
        zero_rate_faults(), crash_write=crash_write, crash_torn_bytes=torn
    )
    try:
        _persisting_run(machine, workload, strategy, disk, crash_faults)
    except SimulatedCrash:
        pass
    else:
        raise ValidationError("crash point was never reached (run completed)")
    _check_prefix(label, disk, ref_journal, ref_snapshots, failures)

    # (D): an identical copy of the crashed store must recover to an
    # identical run before the original store gets mutated by repair
    twin = disk.clone()
    obs = _persisting_run(machine, workload, strategy, disk, zero_rate_faults())
    again = _persisting_run(machine, workload, strategy, twin, zero_rate_faults())
    stats, stats2 = obs.report.persist, again.report.persist
    if again.digest != obs.digest:
        failures.append(
            f"{label}: resuming twice from the same store produced "
            "different outputs — recovery is nondeterministic"
        )
    if (stats2.records_replayed, stats2.records_discarded) != (
        stats.records_replayed, stats.records_discarded
    ):
        failures.append(
            f"{label}: resuming twice replayed/discarded different "
            "record counts — recovery is nondeterministic"
        )

    discarded = stats.records_discarded + stats.snapshots_discarded + stats.tmp_cleaned
    observed = sum(1 for e in obs.ledger.events if e.surface == "persist")
    if observed != discarded:  # (C)
        failures.append(
            f"{label}: {discarded} discarded artifact(s) but {observed} "
            "persist event(s) on the ledger"
        )
    record = RecoveryRecord(
        machine=mname,
        crash_write=crash_write,
        torn_bytes=torn,
        digest=obs.digest,
        replayed=stats.records_replayed,
        discarded=discarded,
        warm_deploys=sum(e.is_warm_redeploy() for e in obs.report.events),
        accounted=obs.ledger.accounted,
    )
    return replace(obs, extra=(record, failures))


@dataclass
class RecoveryHarness:
    """Sweeps crash points across the machine matrix for one workload."""

    workload: WorkloadSpec
    machines: Mapping[str, Callable[[], Machine]] | None = None
    strategy: str = "noprefetch"
    stride: int = 1
    torn_modes: tuple[int | None, ...] = DEFAULT_TORN_MODES

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.machines is None:
            self.machines = default_machines(scale=4)

    def _cells(self, references: dict[str, Observables]) -> list[Cell]:
        """Every crash cell, in sweep order.

        The crash-point count of a machine's sweep is only known after
        its reference run; cells receive the reference bytes as
        arguments so they are pure functions of the task tuple.
        """
        cells = []
        for mname, ref in references.items():
            journal, snapshots, n_ops = ref.extra
            for crash_write in range(1, n_ops + 1, self.stride):
                for torn in self.torn_modes:
                    cells.append(Cell(
                        _label(mname, crash_write, torn), mname,
                        partial(
                            _crash_cell, self.machines[mname], self.workload,
                            self.strategy, mname, crash_write, torn, journal, snapshots,
                        ),
                    ))
        return cells

    def run(self, jobs: int = 1) -> RecoveryReport:
        swept = Sweep(
            [
                Cell(
                    f"{mname}/reference", mname,
                    partial(_reference, factory, self.workload, self.strategy),
                )
                for mname, factory in sorted(self.machines.items())
            ],
            self._cells,
            checks=(lambda _cell, obs, _ref: obs.extra[1],),
        ).run(jobs)
        report = RecoveryReport(
            self.workload.name,
            [obs.extra[0] for _cell, obs in swept.runs],
            swept.failures,
            {mname: ref.digest for mname, ref in swept.references.items()},
            {mname: ref.extra[2] for mname, ref in swept.references.items()},
        )
        if report.records and not any(
            d.active for ref in swept.references.values() for d in ref.report.deployments
        ):
            report.failures.append(
                "no reference run deployed anything — the sweep never "
                "exercised deploy-transaction replay; grow the workload or "
                "shorten optimize_interval"
            )
        return report
