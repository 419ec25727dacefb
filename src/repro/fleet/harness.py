"""Fleet harness: fan instances out, ingest centrally, prove invariants.

The harness is the offline-deterministic control plane driver.  It runs
a fleet in two rounds — a **cold** half that profiles from scratch and a
**warm** half dispatched with the daemon's quorum-published entry — with
every instance a pure picklable task over :func:`repro.parallel.run_tasks`
(``--jobs N`` never changes a byte of the report).  Between rounds the
parent ingests every channel's deliveries through one
:class:`~repro.fleet.daemon.FleetDaemon` in global virtual-clock order,
optionally crashing and recovering the daemon mid-ingest, then replays
every instance's *clean* frames as the rejoin/reconcile pass (degraded
instances merge in here; everyone else dedups to a no-op).

Proved per run, recorded in :class:`FleetReport`:

* every instance's output digest is bit-identical to the solo-run
  reference, under any transport fault schedule;
* decisions proven on cold instances are published once quorum-backed
  and re-deployed by warm instances (the ramp collapses);
* ingestion is idempotent — a full second reconcile replay leaves the
  daemon's canonical state byte-identical;
* a crashed daemon recovers to the same canonical state a never-crashed
  shadow daemon reaches on the same deliveries;
* every injected transport fault is detected or tolerated in the ledger.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Callable

from ..config import FleetAgentConfig, FleetFaultConfig
from ..errors import FleetError
from ..faults.injector import FaultEvent, FaultLedger
from ..parallel import run_tasks
from ..persist.journal import MemoryDisk
from ..scenario import MachineRecipe, WorkloadSpec, daxpy_spec, run_cell
from .agent import InstanceResult, InstanceSpec, run_instance
from .daemon import FLEET_JOURNAL, FleetDaemon
from .faults import build_ledger, partition_draw

__all__ = ["FleetRecord", "FleetReport", "FleetHarness"]

#: Daemon snapshot cadence (accepted batches) for harness-driven fleets.
SNAPSHOT_INTERVAL = 32


@dataclass(frozen=True)
class FleetRecord:
    """One instance's run, as the fleet report sees it."""

    instance: str
    round: str               # "cold" | "warm"
    digest: str
    cycles: int
    retired: int
    ramp_retired: int | None
    seeded: int
    deployed: int
    batches: int
    degraded: bool
    quarantined: bool
    delivered: int
    verified: bool | None


@dataclass
class FleetReport:
    """Deterministic fleet-run report (byte-identical at any ``--jobs``)."""

    workload: str
    instances: int
    cold: int
    warm: int
    quorum: int
    reference_digest: str
    key: str
    records: list[FleetRecord]
    published: int
    daemon: dict
    ledger: FaultLedger | None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fleet[{self.workload}]: {self.instances} instance(s) "
            f"({self.cold} cold + {self.warm} warm), quorum={self.quorum}, "
            f"{'OK' if self.ok else 'FAIL'}"
        ]
        d = self.daemon
        lines.append(
            f"  daemon: {d['batches_accepted']} frame(s) accepted, "
            f"{d['crc_rejects']} crc reject(s), {d['duplicates']} duplicate(s), "
            f"{d['snapshots_written']} snapshot(s), "
            f"{self.published} published decision(s)"
        )
        if d.get("recovered") is not None:
            rec = d["recovered"]
            lines.append(
                f"  recovery: crash at batch {rec['crash_batch']}; resumed from "
                f"snapshot v{rec['snapshot_version']} + {rec['replayed']} "
                f"journal record(s), {len(rec['discarded'])} torn artifact(s) "
                f"discarded"
            )
        seeded = [r for r in self.records if r.round == "warm" and r.seeded]
        if self.warm:
            cold_ramps = [
                r.ramp_retired for r in self.records
                if r.round == "cold" and r.ramp_retired is not None
            ]
            warm_ramps = [
                r.ramp_retired for r in self.records
                if r.round == "warm" and r.ramp_retired is not None
                and (not seeded or r.seeded)
            ]
            cold_ramp = max(cold_ramps) if cold_ramps else 0
            warm_ramp = max(warm_ramps) if warm_ramps else 0
            lines.append(
                f"  warm start: {len(seeded)}/{self.warm} warm instance(s) "
                f"re-deployed published decisions, ramp {cold_ramp} -> "
                f"{warm_ramp} retired"
            )
        degraded = sorted(r.instance for r in self.records if r.degraded)
        if degraded:
            lines.append(
                f"  degraded: {len(degraded)} instance(s) ran local-only and "
                f"reconciled at rejoin ({', '.join(degraded)})"
            )
        for inst, reason in sorted(d.get("quarantined", {}).items()):
            lines.append(f"  quarantined[{inst}]: {reason}")
        if self.ledger is not None:
            by_kind = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.ledger.by_kind.items())
            )
            lines.append(
                f"  faults[fleet]: {self.ledger.injected} injected, "
                f"{self.ledger.detected} detected, "
                f"{self.ledger.tolerated} tolerated"
                + (f" ({by_kind})" if by_kind else "")
            )
        mismatched = sorted(
            r.instance for r in self.records if r.digest != self.reference_digest
        )
        if mismatched:
            lines.append(f"  digests: MISMATCH vs solo on {', '.join(mismatched)}")
        else:
            lines.append(
                f"  digests: all {len(self.records)} bit-identical to solo "
                f"reference {self.reference_digest[:12]}"
            )
        for failure in self.failures:
            lines.append(f"  FAIL: {failure}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["records"] = [asdict(r) for r in self.records]
        if self.ledger is not None:
            payload["ledger"] = {
                key: getattr(self.ledger, key)
                for key in ("seed", "injected", "detected", "tolerated",
                            "accounted", "by_kind")
            }
        payload["ok"] = self.ok
        return payload


@dataclass
class FleetHarness:
    """Runs one fleet (cold round, central ingest, warm round, checks)."""

    workload: WorkloadSpec | None = None
    machine: Callable[[], object] | None = None
    instances: int = 8
    quorum: int | None = None
    strategy: str = "adaptive"
    optimize_interval: int | None = 10_000
    faults: FleetFaultConfig | None = None
    flush_interval: int = 1
    max_bundles: int | None = None
    reference_digest: str | None = None
    jit: bool | None = None

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise FleetError(f"instances must be >= 1, got {self.instances}")
        if self.workload is None:
            self.workload = daxpy_spec(2048, 4, 12)
        if self.machine is None:
            self.machine = MachineRecipe("smp", 4, 4)
        self.cold = max(1, self.instances // 2)
        self.warm = self.instances - self.cold
        if self.quorum is None:
            self.quorum = min(2, self.cold)
        if not 1 <= self.quorum <= self.instances:
            raise FleetError(
                f"quorum must be in [1, {self.instances}], got {self.quorum}"
            )

    # -- instance naming (zero-padded so sorted order == numeric order) ----

    def _names(self) -> list[str]:
        width = len(str(self.instances - 1)) if self.instances > 1 else 1
        return [f"i{idx:0{width}d}" for idx in range(self.instances)]

    def _spec(
        self, name: str, round_no: int, published: int, quarantined: int,
        entry: dict | None,
    ) -> InstanceSpec:
        degraded = bool(self.faults) and partition_draw(self.faults, name, round_no)
        fleet = FleetAgentConfig(
            instance=name,
            instances=self.instances,
            quorum=self.quorum,
            published=published,
            quarantined=quarantined,
            degraded=degraded,
            entry=None if degraded else entry,
            flush_interval=self.flush_interval,
        )
        return InstanceSpec(
            instance=name,
            round_no=round_no,
            workload=self.workload,
            machine=self.machine,
            strategy=self.strategy,
            fleet=fleet,
            faults=None if degraded else self.faults,
            optimize_interval=self.optimize_interval,
            max_bundles=self.max_bundles,
            jit=self.jit,
        )

    def _reference(self) -> str:
        """Output digest of the same workload run solo (no fleet attached)."""
        delta = {}
        if self.optimize_interval is not None:
            delta["optimize_interval"] = self.optimize_interval
        return run_cell(
            self.machine, self.workload, self.strategy, delta,
            jit=self.jit, max_bundles=self.max_bundles,
        ).digest

    # -- central ingest ------------------------------------------------------

    def _ingest(
        self,
        daemon: FleetDaemon,
        shadow: FleetDaemon,
        results: list[InstanceResult],
        state: dict,
    ) -> FleetDaemon:
        """Replay this round's deliveries in global virtual-clock order."""
        deliveries = []
        for res in results:
            for d in res.channel.delivered:
                deliveries.append((d.tick, res.instance, d.ordinal, d.data))
        deliveries.sort(key=lambda item: item[:3])
        crash_at = self.faults.daemon_crash_batch if self.faults else None
        for _tick, _inst, _ordinal, data in deliveries:
            if (
                crash_at is not None
                and not state["crashed"]
                and daemon.batches_accepted >= crash_at
            ):
                daemon = self._crash(daemon, state)
            daemon.handle(data)
            shadow.handle(data)
        return daemon

    def _crash(self, daemon: FleetDaemon, state: dict) -> FleetDaemon:
        """Kill the daemon mid-ingest and recover a fresh one from disk."""
        disk = daemon.disk
        # volatile counters die with the process; carry them at the
        # harness so fleet-wide accounting spans the crash
        state["crc_rejects"] += daemon.crc_rejects
        state["duplicates"] += daemon.duplicates
        state["snapshots_written"] += daemon.snapshots_written
        crash_batch = daemon.batches_accepted
        # a torn half-record at the journal tail: the write the crash
        # interrupted; recovery must truncate it away
        disk.append(FLEET_JOURNAL, b"\xba\xc0torn-by-daemon-crash")
        recovered = FleetDaemon.recover(
            disk,
            quorum=self.quorum,
            snapshot_interval=SNAPSHOT_INTERVAL,
            snapshots_kept=daemon.snapshots_kept,
        )
        event = FaultEvent(0, "daemon_crash", "fleet", "detected")
        event.note = (
            f"crash at batch {crash_batch}; recovered from snapshot "
            f"v{recovered.recovered['snapshot_version']} + "
            f"{recovered.recovered['replayed']} journal record(s)"
        )
        state["events"].append(event)
        state["crashed"] = True
        state["recovered"] = dict(recovered.recovered, crash_batch=crash_batch)
        return recovered

    def _reconcile(
        self, daemon: FleetDaemon, results: list[InstanceResult]
    ) -> None:
        """Rejoin replay: every instance's clean frames, in order.

        Degraded instances make first contact here (their profile merges
        in); everyone else's frames dedup to no-ops; quarantined streams
        stay refused.  Running it is also the idempotence proof's setup.
        """
        for res in sorted(results, key=lambda r: r.instance):
            for data in res.channel.clean:
                daemon.handle(data)

    # -- fault accounting ----------------------------------------------------

    def _claim(
        self,
        daemon: FleetDaemon,
        results: list[InstanceResult],
        state: dict,
        failures: list[str],
    ) -> None:
        """Settle injected (not yet tolerated) events against daemon state."""
        for res in sorted(results, key=lambda r: r.instance):
            for event in res.channel.events:
                if event.kind == "corrupt_frame":
                    event.status = "detected"
                    event.note = (
                        "CRC reject at daemon; clean retransmit accepted"
                    )
                elif event.kind == "poison_batch":
                    reason = daemon.quarantined.get(res.instance)
                    if reason is None:
                        failures.append(
                            f"{res.instance}: poisoned stream was not "
                            f"quarantined by the daemon sanitizer"
                        )
                    else:
                        event.status = "detected"
                        event.note = f"sanitizer quarantine: {reason}"
            state["events"].extend(res.channel.events)
        # every corrupt delivery — and nothing else — fails the CRC
        expected_crc = sum(
            1
            for res in results
            for event in res.channel.events
            if event.kind == "corrupt_frame"
        )
        state["expected_crc"] += expected_crc

    # -- the run -------------------------------------------------------------

    def run(self, jobs: int = 1) -> FleetReport:
        reference = (
            self.reference_digest
            if self.reference_digest is not None
            else self._reference()
        )
        names = self._names()
        failures: list[str] = []
        state = {
            "crashed": False,
            "recovered": None,
            "crc_rejects": 0,
            "duplicates": 0,
            "snapshots_written": 0,
            "expected_crc": 0,
            "events": [],
        }
        daemon = FleetDaemon(
            MemoryDisk(), quorum=self.quorum, snapshot_interval=SNAPSHOT_INTERVAL
        )
        # the shadow never crashes: recovery must be state-invisible
        shadow = FleetDaemon(
            MemoryDisk(), quorum=self.quorum, snapshot_interval=SNAPSHOT_INTERVAL
        )

        def run_round(
            round_no: int, round_names: list[str], published: int, entry: dict | None
        ) -> list[InstanceResult]:
            """Dispatch one round, ingest and reconcile it, settle its faults."""
            nonlocal daemon
            specs = [
                self._spec(name, round_no, published, len(daemon.quarantined), entry)
                for name in round_names
            ]
            results = run_tasks([(run_instance, (spec,)) for spec in specs], jobs=jobs)
            for res in sorted(results, key=lambda r: r.instance):
                if res.degraded:
                    event = FaultEvent(0, "partition", "fleet", "detected")
                    event.note = (
                        "degraded to local-only optimization; profile "
                        "merged at rejoin"
                    )
                    state["events"].append(event)
            daemon = self._ingest(daemon, shadow, results, state)
            self._reconcile(daemon, results)
            self._reconcile(shadow, results)
            self._claim(daemon, results, state, failures)
            return results

        # -- round 0: cold half ------------------------------------------
        cold_results = run_round(0, names[: self.cold], 0, None)
        key = cold_results[0].key
        entry = daemon.published_entry(key)
        published = daemon.published_count(key)
        eligible = [
            res for res in cold_results
            if res.instance not in daemon.quarantined
        ]
        if (
            len(eligible) >= self.quorum
            and any(res.deployed for res in eligible)
            and published < 1
        ):
            failures.append(
                f"{len(eligible)} eligible contributor(s) >= quorum "
                f"{self.quorum} with proven decisions, but nothing published"
            )

        # -- round 1: warm half, dispatched with the published entry ------
        warm_results = run_round(1, names[self.cold :], published, entry)

        # -- invariants ----------------------------------------------------
        all_results = cold_results + warm_results
        for res in all_results:
            if res.digest != reference:
                failures.append(
                    f"{res.instance}: output digest {res.digest[:12]} != "
                    f"solo reference {reference[:12]}"
                )
            if res.verified is False:
                failures.append(f"{res.instance}: workload verification failed")
            if res.key != key:
                failures.append(f"{res.instance}: profile key mismatch")

        if published >= 1:
            for res in warm_results:
                if not res.degraded and res.seeded < 1:
                    failures.append(
                        f"{res.instance}: warm instance failed to re-deploy "
                        f"any of {published} published decision(s)"
                    )

        before = daemon.canonical_state()
        self._reconcile(daemon, cold_results)
        self._reconcile(daemon, warm_results)
        if daemon.canonical_state() != before:
            failures.append(
                "reconcile replay is not idempotent: daemon state changed "
                "on second delivery of identical frames"
            )
        if daemon.canonical_state() != shadow.canonical_state():
            failures.append(
                "recovered daemon state diverges from the never-crashed "
                "shadow daemon on identical deliveries"
            )

        total_crc = state["crc_rejects"] + daemon.crc_rejects
        if total_crc != state["expected_crc"]:
            failures.append(
                f"CRC accounting: daemon rejected {total_crc} frame(s), "
                f"injector corrupted {state['expected_crc']}"
            )

        ledger = None
        if self.faults is not None:
            ledger = build_ledger(self.faults.seed, state["events"])
            if not ledger.accounted:
                failures.append(
                    "transport fault ledger has unaccounted injected events"
                )

        records = [
            FleetRecord(
                instance=res.instance,
                round="cold" if res.round_no == 0 else "warm",
                digest=res.digest,
                cycles=res.cycles,
                retired=res.retired,
                ramp_retired=res.ramp_retired,
                seeded=res.seeded,
                deployed=res.deployed,
                batches=res.batches,
                degraded=res.degraded,
                quarantined=res.instance in daemon.quarantined,
                delivered=len(res.channel.delivered),
                verified=res.verified,
            )
            for res in all_results
        ]
        daemon_stats = {
            "batches_accepted": daemon.batches_accepted,
            "crc_rejects": total_crc,
            "duplicates": state["duplicates"] + daemon.duplicates,
            "snapshots_written": state["snapshots_written"]
            + daemon.snapshots_written,
            "quarantined": dict(sorted(daemon.quarantined.items())),
            "recovered": state["recovered"],
        }
        return FleetReport(
            workload=self.workload.name,
            instances=self.instances,
            cold=self.cold,
            warm=self.warm,
            quorum=self.quorum,
            reference_digest=reference,
            key=key,
            records=records,
            published=published,
            daemon=daemon_stats,
            ledger=ledger,
            failures=failures,
        )
