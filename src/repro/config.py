"""Machine configurations for the simulated Itanium 2 platforms.

Two platforms from the paper are modeled:

* a 4-way Itanium 2 SMP server — private L2/L3 per CPU, one snooping
  front-side bus running a MESI (Illinois) protocol;
* an SGI Altix cc-NUMA system — 2-CPU nodes, each with a local bus and
  local memory, joined by a fat-tree interconnect with directory-based
  coherence and first-touch page placement.

Simulating full-size caches (L2 256 KB, L3 3 MB per CPU) against
class-S-scale working sets instruction-by-instruction in pure Python is
infeasible, so capacities and working sets are scaled down *together* by
``scale`` (default 16).  The cache line size is kept at the real 128
bytes so that prefetch-distance and false-sharing geometry match the
paper (e.g. 9-lines-ahead prefetch still covers 1152 bytes).

Latency constants mirror the bands measured in the paper: L3 hit is 12
cycles, memory loads 120–150 cycles, coherent misses exceed 180–200
cycles, and cc-NUMA remote/coherent accesses are substantially more
expensive than SMP ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable

from .errors import CobraError

__all__ = [
    "CacheConfig",
    "BusConfig",
    "LatencyConfig",
    "FaultConfig",
    "FleetFaultConfig",
    "FleetAgentConfig",
    "PersistConfig",
    "ProfileDBConfig",
    "OverloadConfig",
    "GovernorConfig",
    "CobraConfig",
    "MachineConfig",
    "itanium2_smp",
    "sgi_altix",
    "DEFAULT_SCALE",
    "LINE_SIZE",
    "PAGE_SIZE",
    "VALIDATE_MODES",
    "EnvVar",
    "ENV_VARS",
    "env_value",
    "default_blas_threads",
]

#: Default capacity scale factor between real Itanium 2 caches and the
#: simulated ones (working sets are scaled by the same factor).
DEFAULT_SCALE = 16

#: L2/L3 cache line size in bytes (real Itanium 2 value; never scaled).
LINE_SIZE = 128

#: Simulated page size in bytes (used by first-touch NUMA placement).
#: Real Itanium Linux uses 16 KB pages; scaled like the caches.
PAGE_SIZE = 1024

#: Legal values of ``CobraConfig.validate`` / the checker ``mode``.
VALIDATE_MODES = ("off", "record", "strict")


# -- the REPRO_* environment schema -------------------------------------------
#
# Every environment override the package honours is one row of ENV_VARS,
# and env_value() below is the only place os.environ is read for them:
# the runtime (Cobra construction, per-core JIT defaults), the CLI's
# up-front check and the README table all consult this one schema.


@dataclass(frozen=True)
class EnvVar:
    """One ``REPRO_*`` override: how to parse it, how to describe it."""

    #: raw string -> value; may raise ``ValueError``
    convert: Callable[[str], object]
    #: whether a converted value is legal
    valid: Callable[[object], bool]
    #: completes the diagnostic ``"<NAME> <expects> <raw value>"``
    expects: str
    #: accepted values, as shown in the README table
    values: str
    #: what setting it does, as shown in the README table
    effect: str
    #: the ``CobraConfig`` field a set value overrides (``None``: the
    #: variable is read where it applies, not through ``CobraConfig``) ...
    overrides: str | None = None
    #: ... with ``to_config(value)``
    to_config: Callable[[object], object] = lambda value: value


ENV_VARS: dict[str, EnvVar] = {
    "REPRO_VALIDATE": EnvVar(
        str, VALIDATE_MODES.__contains__,
        "must be 'off', 'record' or 'strict', got",
        "`off` / `record` / `strict`",
        "overrides `CobraConfig.validate`: attach the coherence invariant "
        "checker to every COBRA run",
        "validate",
    ),
    "REPRO_FAULTS": EnvVar(
        int, lambda seed: seed >= 0,
        "must be a non-negative integer seed, got",
        "integer seed >= 0",
        "overrides `CobraConfig.faults` with a default-rate fault schedule",
        "faults", lambda seed: FaultConfig(seed=seed),
    ),
    "REPRO_CHECKPOINT": EnvVar(
        str, lambda path: os.path.isdir(path) or not os.path.exists(path),
        "must name a checkpoint directory, got",
        "directory path",
        "overrides `CobraConfig.persist`: journal + snapshot store in that "
        "directory",
        "persist", lambda directory: PersistConfig(directory=directory),
    ),
    "REPRO_PROFILE_DB": EnvVar(
        str, lambda path: not os.path.isdir(path),
        "must name a profile-database file, got directory",
        "file path",
        "overrides `CobraConfig.profile_db`: cross-run profile database file",
        "profile_db", lambda path: ProfileDBConfig(path=path),
    ),
    "REPRO_GOVERNOR": EnvVar(
        str, ("0", "1").__contains__,
        "must be '0' or '1', got",
        "`0` / `1`",
        "overrides `CobraConfig.governor`: `1` arms a default-budget "
        "resource governor, `0` leaves it off",
        "governor", lambda armed: GovernorConfig() if armed == "1" else None,
    ),
    "REPRO_TRACE_JIT": EnvVar(
        str, ("0", "1", "osr-off").__contains__,
        "must be '0', '1' or 'osr-off', got",
        "`0` / `1` / `osr-off`",
        "per-core trace-JIT default: `0` interprets everything, `osr-off` "
        "keeps loop-head traces but no mid-loop entry, trace trees or "
        "spin-wait forwarding",
    ),
}


def env_value(name: str) -> object | None:
    """The parsed ``REPRO_*`` override, or ``None`` when unset or blank.

    A malformed value raises :class:`~repro.errors.CobraError` with the
    schema's one-line diagnostic.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    var = ENV_VARS[name]
    try:
        value = var.convert(raw)
    except ValueError:
        value = None
    if value is None or not var.valid(value):
        raise CobraError(f"{name} {var.expects} {raw!r}")
    return value


def default_blas_threads() -> None:
    """Keep OpenBLAS from starting a worker pool for this process.

    The CLI calls this before its first import of numpy: the pool costs
    ~70 ms of every command and the package's only BLAS calls are three
    ``np.dot``s over CSR row slices.  An explicit user value wins, a
    library ``import repro`` never gets here, and no other variable is
    set — ``OMP_NUM_THREADS`` would reach into libraries that are not
    ours.  (It lives here because this module is the only one that
    touches ``os.environ``.)
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


#: The bounds a config field can be held to; the key completes the
#: diagnostic ``"<field> must be <bound>, got <value>"``.
_BOUNDS: dict[str, Callable[[object], bool]] = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "a non-negative integer": lambda v: v >= 0,
}


def _require(config: object, bound: str, *names: str) -> None:
    """``ValueError`` unless each named field is unset (``None``) or in ``bound``."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not _BOUNDS[bound](value):
            raise ValueError(f"{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache level."""

    size_bytes: int
    line_size: int = LINE_SIZE
    associativity: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_size * self.associativity):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"line_size*associativity = {self.line_size * self.associativity}"
            )

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class BusConfig:
    """Timing of a shared bus (front-side bus or NUMA node bus).

    ``occupancy_data`` is the number of cycles a full cache-line data
    transfer holds the bus; ``occupancy_ctrl`` covers address-only
    transactions (upgrades/invalidates).  Queueing delay emerges from
    the per-node busy-until bookkeeping in
    :class:`repro.memory.fabric.CoherentFabric`.
    """

    occupancy_data: int = 8
    occupancy_ctrl: int = 2


@dataclass(frozen=True)
class LatencyConfig:
    """Access *stall* penalties in cycles, per the paper's measured bands.

    An L2 hit is treated as fully covered by the software pipeline
    (stall 0); the other values are the extra cycles a load stalls
    beyond that, which is exactly the latency the DEAR reports and the
    paper's two-level filter thresholds on (L3 hit band = 12, memory
    120-150, coherent >180-200).
    """

    l2_hit: int = 0
    #: L3 hits are 12 cycles on Itanium 2, but modulo-scheduled loops
    #: hide nearly all of it (the compiler schedules loads a pipeline
    #: stage ahead); only a small residue stalls.  The DEAR still
    #: *reports* the architectural 12-cycle band — the first-level
    #: filter drops those events regardless.
    l3_hit: int = 2
    memory: int = 140            # local memory load (SMP: the only memory)
    remote_memory: int = 290     # cc-NUMA remote-node memory load
    cache_to_cache: int = 190    # SMP HITM (dirty line supplied by peer)
    remote_cache_to_cache: int = 400   # cc-NUMA HITM across the interconnect
    upgrade: int = 190           # S->M upgrade when other caches hold the line
    #                              (full invalidate round trip; the store
    #                              buffer drains it at store_factor)
    upgrade_quiet: int = 6       # S->M upgrade with no sharers (clean snoop)
    writeback: int = 8           # extra store-path cost when a bus WB is forced
    l2_writeback: int = 16       # dirty L2 -> L3 eviction drain cost
    store_factor: float = 0.5    # store misses drain via the store buffer
    interconnect_hop: int = 35   # per-hop cost in the Altix fat tree


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection plan (:mod:`repro.faults`).

    Attached to :attr:`CobraConfig.faults` (default ``None`` = injection
    fully disabled, zero overhead).  All draws come from one seeded PRNG,
    so a (workload, strategy, machine, seed) tuple replays the exact same
    fault schedule.  Rates are per *opportunity*: ``sample_rate`` per
    delivered HPM sample, ``patch_rate`` per trace deployment attempt,
    ``loop_rate`` per optimizer wake point.  ``kinds`` restricts the
    schedule to a subset of fault kinds (``None`` = all).
    """

    seed: int = 0
    sample_rate: float = 0.02
    patch_rate: float = 0.2
    loop_rate: float = 0.05
    kinds: tuple[str, ...] | None = None
    #: kill the run at the Nth durable persistence write (1-based);
    #: ``None`` disables crash injection.  Only meaningful when a
    #: checkpoint store is attached (:attr:`CobraConfig.persist`).
    crash_write: int | None = None
    #: ``None`` = die at the boundary, before the write lands; ``k`` =
    #: make the first ``k`` bytes durable first (a torn record/temp)
    crash_torn_bytes: int | None = None

    def __post_init__(self) -> None:
        _require(self, "in [0, 1]", "sample_rate", "patch_rate", "loop_rate")
        # seeds name fault schedules in ledgers, CI matrices, and CLI
        # replays; negatives have no meaning there
        _require(self, "a non-negative integer", "seed")
        _require(self, ">= 1", "crash_write")
        _require(self, ">= 0", "crash_torn_bytes")


@dataclass(frozen=True)
class FleetFaultConfig:
    """Deterministic transport fault plan for fleet mode (:mod:`repro.fleet`).

    Every frame an agent sends to the daemon is a fault opportunity:
    with probability ``frame_rate`` one fault kind is drawn (uniformly
    from ``kinds``, default all of them) from a PRNG seeded by
    ``(seed, instance)``, so a fleet schedule replays exactly regardless
    of worker count.  ``partition_rate`` is drawn once per instance and
    round — a partitioned agent cannot reach the daemon at all and
    degrades to local-only optimization until it rejoins at the round
    boundary.  ``daemon_crash_batch`` kills the daemon after the Nth
    accepted batch (1-based); it must recover from its journal+snapshot
    store and resume mid-fleet.  A faulted frame's retransmit waits one
    seeded backoff delay (:func:`repro.fleet.faults.backoff_delays`).
    """

    seed: int = 0
    #: per-frame fault probability (drop/dup/reorder/delay/corrupt/poison)
    frame_rate: float = 0.0
    #: restrict the schedule to a subset of frame fault kinds (None = all)
    kinds: tuple[str, ...] | None = None
    #: per (instance, round) probability of a full network partition
    partition_rate: float = 0.0
    #: crash the daemon after the Nth accepted batch; None disables
    daemon_crash_batch: int | None = None

    def __post_init__(self) -> None:
        _require(self, "in [0, 1]", "frame_rate", "partition_rate")
        _require(self, "a non-negative integer", "seed")
        _require(self, ">= 1", "daemon_crash_batch")


@dataclass(frozen=True)
class FleetAgentConfig:
    """Per-instance fleet attachment (:mod:`repro.fleet`).

    Attached to :attr:`CobraConfig.fleet` (default ``None`` = solo run,
    zero overhead, bit-identical behaviour).  The agent side is
    deliberately passive: an outbox records one telemetry batch per
    optimizer wake, and a daemon-pushed ``entry`` (a profile-database
    entry whose decisions passed the quorum gate) warm-starts the run
    through the existing ``seed_from_profile`` path.  A ``degraded``
    agent is partitioned from the daemon: it queues frames locally,
    optimizes on local evidence only, and reconciles via the profile
    merge when it rejoins.
    """

    #: stable instance identifier, e.g. ``"i03"``
    instance: str
    #: fleet size, echoed into the instance report
    instances: int = 1
    #: evidence quorum the daemon applies before publishing a decision
    quorum: int = 1
    #: quorum-published decisions at dispatch time (daemon echo)
    published: int = 0
    #: quarantined streams at dispatch time (daemon echo)
    quarantined: int = 0
    #: partitioned from the daemon: local-only optimization
    degraded: bool = False
    #: daemon-pushed profile entry (None = cold start)
    entry: dict | None = None

    def __post_init__(self) -> None:
        if not self.instance:
            raise ValueError("instance id must be a non-empty string")
        _require(self, ">= 1", "instances", "quorum")
        if self.quorum > self.instances:
            raise ValueError(
                f"quorum ({self.quorum}) cannot exceed fleet size ({self.instances})"
            )


@dataclass(frozen=True)
class PersistConfig:
    """Checkpoint store attachment (:mod:`repro.persist`).

    Attached to :attr:`CobraConfig.persist` (default ``None`` =
    persistence fully disabled, zero overhead, bit-identical runs).
    Exactly one of ``directory`` (a real filesystem checkpoint
    directory) or ``disk`` (an injectable
    :class:`~repro.persist.journal.Disk`, for deterministic tests and
    the crash sweeps) must be provided.  A store that already holds
    state is recovered and warm-started from; the snapshot cadence is
    :mod:`repro.persist.manager`'s ``SNAPSHOT_INTERVAL`` and
    :mod:`repro.persist.snapshot`'s ``SNAPSHOTS_KEPT``.
    """

    #: checkpoint directory on the real filesystem
    directory: str | None = None
    #: injectable disk; overrides ``directory`` when set
    disk: object | None = None
    #: workload descriptor journaled for ``repro resume`` (None = keep
    #: whatever descriptor the store already holds)
    meta: dict | None = None

    def __post_init__(self) -> None:
        if self.directory is None and self.disk is None:
            raise ValueError("PersistConfig needs a directory or an injectable disk")


@dataclass(frozen=True)
class ProfileDBConfig:
    """Cross-run profile database attachment (:mod:`repro.persist`).

    Attached to :attr:`CobraConfig.profile_db` (default ``None`` = no
    database, zero overhead, bit-identical runs).  Exactly one of
    ``path`` (a database *file* on the real filesystem) or ``disk`` (an
    injectable :class:`~repro.persist.journal.Disk`, for deterministic
    tests and the fuzz corruption cells) must be provided.  Unlike the
    checkpoint store, the database outlives any single run and is keyed
    by binary digest + machine descriptor + strategy, so one file can
    serve many workloads and machines.  A run warm-starts from a
    matching entry and folds its own profile back in at stop.
    """

    #: database file path on the real filesystem
    path: str | None = None
    #: injectable disk; overrides ``path`` when set
    disk: object | None = None

    def __post_init__(self) -> None:
        if self.path is None and self.disk is None:
            raise ValueError("ProfileDBConfig needs a path or an injectable disk")


@dataclass(frozen=True)
class OverloadConfig:
    """Deterministic overload-injection plan (:mod:`repro.governor`).

    Attached to :attr:`GovernorConfig.overload` (default ``None`` = no
    injection).  All draws come from one PRNG seeded by ``seed`` —
    *separate* from the fault injector's PRNG, so arming overload never
    perturbs an armed fault schedule.  Rates are per optimizer wake:
    ``shrink_rate`` multiplies the trace-cache budget by the governor's
    ``SHRINK_FACTOR`` (clamped at its floor), ``flood_rate`` makes
    monitors deliver ``flood_factor`` copies of each sample for
    ``flood_windows`` wakes, ``disk_rate`` charges synthetic slow-disk
    latency pressure, and ``storm_rate`` charges synthetic daemon
    ingest-queue pressure.  ``max_events`` caps total injections (0 =
    unlimited) so a schedule quiesces and the ladder can recover.
    """

    seed: int = 0
    #: per-wake probability of a mid-run trace-cache budget shrink
    shrink_rate: float = 0.0
    #: per-wake probability of starting an HPM sample flood
    flood_rate: float = 0.0
    #: per-wake probability of a slow-disk latency spike
    disk_rate: float = 0.0
    #: per-wake probability of a daemon ingest storm
    storm_rate: float = 0.0
    #: sample multiplication during a flood (2 = every sample doubled)
    flood_factor: int = 3
    #: optimizer wakes a flood lasts
    flood_windows: int = 2
    #: total injection cap across all categories (0 = unlimited)
    max_events: int = 0

    def __post_init__(self) -> None:
        _require(self, "in [0, 1]", "shrink_rate", "flood_rate", "disk_rate", "storm_rate")
        _require(self, "a non-negative integer", "seed")
        _require(self, ">= 2", "flood_factor")
        _require(self, ">= 1", "flood_windows")
        _require(self, ">= 0", "max_events")


@dataclass(frozen=True)
class GovernorConfig:
    """Resource-governor attachment (:mod:`repro.governor`).

    Attached to :attr:`CobraConfig.governor` (default ``None`` = no
    governor, zero overhead, bit-identical runs).  The governor puts an
    explicit budget on every structure that would otherwise grow without
    bound — trace-cache bundles (cold-first eviction instead of
    permanent refusal), HPM sample-queue depth (drop-oldest with ledger
    accounting), profile-database entries (cold-key compaction at
    save), each core's compiled trace-tree footprint, and the fleet
    outbox — and drives a five-rung graceful-degradation ladder
    (``full → no-new-compiles → monitor-only → frozen → off``) with
    hysteresis.  The budgets not set below are constants of
    :mod:`repro.governor.core` (``PROFILE_DB_ENTRIES``,
    ``JIT_NODE_BUDGET``, ``OUTBOX_BATCHES``), the ladder's thresholds
    those of :mod:`repro.governor.ladder`.
    Degradation only ever forgoes optimization; output semantics never
    change.
    """

    #: trace-cache bundle budget (``None`` = the cache's own capacity;
    #: eviction-instead-of-refusal still applies)
    trace_cache_budget: int | None = None
    #: per-monitor sample-queue depth before drop-oldest backpressure
    sample_queue_depth: int = 4096
    #: overload shrink events never push the trace budget below this
    budget_floor: int = 64
    #: seeded overload-injection plan (``None`` = no injection)
    overload: OverloadConfig | None = None

    def __post_init__(self) -> None:
        _require(
            self, ">= 1", "trace_cache_budget", "sample_queue_depth", "budget_floor"
        )


@dataclass(frozen=True)
class CobraConfig:
    """COBRA runtime parameters (sampling, filtering, policy)."""

    #: Instructions between HPM samples on each monitored thread.
    sampling_interval: int = 2000
    #: Cycles charged to the monitored thread per delivered sample
    #: (models the perfmon interrupt + copy to the User Sampling Buffer).
    sample_overhead_cycles: int = 40
    #: Optimizer wake-up period, in aggregate retired instructions.
    optimize_interval: int = 40_000
    #: First-level DEAR filter: drop events at or below the L3-hit band.
    dear_latency_floor: int = 12
    #: Second-level DEAR filter: latency above this is "coherent miss".
    coherent_latency_threshold: int = 180
    #: Minimum fraction of bus transactions that must be coherent events
    #: before the coherence optimizations are considered.
    coherent_ratio_threshold: float = 0.10
    #: Minimum filtered-DEAR samples attributed to a loop before the
    #: loop's prefetches are rewritten.
    min_loop_samples: int = 4
    #: Share of a loop's filtered samples that must be coherent-latency
    #: before choosing noprefetch over prefetch.excl.
    noprefetch_coherent_share: float = 0.5
    #: Trace cache capacity, in bundles.
    trace_cache_bundles: int = 4096
    #: Re-adaptation: revert a rewrite whose observed benefit is negative.
    enable_rollback: bool = True
    #: Invariant checking (:mod:`repro.validate`): ``"off"`` (default),
    #: ``"record"`` accumulates violations on the COBRA report, and
    #: ``"strict"`` raises :class:`~repro.errors.InvariantViolation` on
    #: the first broken invariant.  The ``REPRO_VALIDATE`` environment
    #: variable overrides this at :class:`~repro.core.framework.Cobra`
    #: construction (so CI can run any example under strict checking).
    validate: str = "off"
    #: Seeded fault-injection plan (:mod:`repro.faults`); ``None``
    #: disables injection entirely.  The ``REPRO_FAULTS`` environment
    #: variable (an integer seed) overrides this at ``Cobra``
    #: construction with a default-rate plan.
    faults: FaultConfig | None = None
    #: Crash-consistent checkpoint store (:mod:`repro.persist`);
    #: ``None`` disables persistence entirely.  The ``REPRO_CHECKPOINT``
    #: environment variable (a checkpoint directory path) overrides
    #: this at ``Cobra`` construction.
    persist: PersistConfig | None = None
    #: Cross-run profile database (:mod:`repro.persist.profiledb`);
    #: ``None`` disables it entirely.  The ``REPRO_PROFILE_DB``
    #: environment variable (a database file path) overrides this at
    #: ``Cobra`` construction.
    profile_db: ProfileDBConfig | None = None
    #: Fleet-mode agent attachment (:mod:`repro.fleet`); ``None`` = solo
    #: run.  Set by the fleet harness, never from the environment: the
    #: daemon echo inside it is meaningless outside a fleet dispatch.
    fleet: FleetAgentConfig | None = None
    #: Resource governor (:mod:`repro.governor`); ``None`` disables it
    #: entirely.  The ``REPRO_GOVERNOR`` environment variable (``"1"``
    #: arms a default-budget governor, ``"0"`` leaves it off) overrides
    #: this at ``Cobra`` construction.
    governor: GovernorConfig | None = None
    #: Optimizer watchdog: after this many fault strikes (failed
    #: deployments, monitor deaths, quarantine surges, recorded
    #: invariant violations) the optimizer reverts every active
    #: deployment and drops to monitor-only degraded mode.
    fault_escalation_threshold: int = 8

    def __post_init__(self) -> None:
        _require(
            self, ">= 1", "sampling_interval", "optimize_interval",
            "trace_cache_bundles", "fault_escalation_threshold",
        )
        _require(
            self, ">= 0", "sample_overhead_cycles", "dear_latency_floor",
            "coherent_latency_threshold", "min_loop_samples",
        )
        _require(
            self, "in [0, 1]", "coherent_ratio_threshold", "noprefetch_coherent_share"
        )
        if self.validate not in VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {VALIDATE_MODES}, got {self.validate!r}"
            )

    def with_env(self) -> "CobraConfig":
        """This config with every set ``REPRO_*`` override applied."""
        fields = {
            var.overrides: var.to_config(value)
            for name, var in ENV_VARS.items()
            if var.overrides is not None and (value := env_value(name)) is not None
        }
        return replace(self, **fields) if fields else self


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of one simulated platform."""

    name: str
    n_cpus: int
    cpus_per_node: int
    l2: CacheConfig
    l3: CacheConfig
    bus: BusConfig = field(default_factory=BusConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    cobra: CobraConfig = field(default_factory=CobraConfig)
    scale: int = DEFAULT_SCALE

    def __post_init__(self) -> None:
        _require(self, ">= 1", "n_cpus", "cpus_per_node", "scale")
        if self.n_cpus % self.cpus_per_node:
            raise ValueError("n_cpus must be a multiple of cpus_per_node")

    @property
    def n_nodes(self) -> int:
        return self.n_cpus // self.cpus_per_node

    def with_cobra(self, **kwargs: object) -> "MachineConfig":
        """Return a copy with selected COBRA parameters overridden."""
        return replace(self, cobra=replace(self.cobra, **kwargs))


def _scaled_cache(real_bytes: int, scale: int, assoc: int) -> CacheConfig:
    if scale < 1:  # the presets divide before MachineConfig gets to look
        raise ValueError(f"scale must be >= 1, got {scale}")
    size = real_bytes // scale
    # keep the geometry legal after scaling
    while size % (LINE_SIZE * assoc):
        assoc //= 2
        if assoc == 0:
            raise ValueError(f"cannot scale cache of {real_bytes} B by {scale}")
    return CacheConfig(size_bytes=size, line_size=LINE_SIZE, associativity=assoc)


def itanium2_smp(n_cpus: int = 4, scale: int = DEFAULT_SCALE) -> MachineConfig:
    """The paper's 4-way Itanium 2 SMP server (6.4 GB/s FSB, MESI)."""
    return MachineConfig(
        name=f"itanium2-smp-{n_cpus}",
        n_cpus=n_cpus,
        cpus_per_node=n_cpus,  # single bus, single memory: one "node"
        l2=_scaled_cache(256 * 1024, scale, 8),
        l3=_scaled_cache(3 * 1024 * 1024, scale, 12),
        scale=scale,
    )


def sgi_altix(n_cpus: int = 8, scale: int = DEFAULT_SCALE) -> MachineConfig:
    """The paper's SGI Altix cc-NUMA system (2-CPU nodes, fat tree)."""
    return MachineConfig(
        name=f"sgi-altix-{n_cpus}",
        n_cpus=n_cpus,
        cpus_per_node=2,
        l2=_scaled_cache(256 * 1024, scale, 8),
        l3=_scaled_cache(3 * 1024 * 1024, scale, 12),
        latency=LatencyConfig(memory=150),
        scale=scale,
    )
