"""What the benchmark measures: workloads, metrics, units, directions, bounds.

The one place names are declared.  ``run.py`` refuses to emit a name
that is not declared here, ``compare.py`` takes directions and bounds
from here, and ``BENCHMARK.json`` at the repository root is
``benchmark_json()`` written out (a self-test keeps the two equal).

``END_TO_END`` declares the nine metrics a user of the reproduction
sees; ``run.py`` prints and ``compare.py`` judges all nine.  The driver
that polices later PRs reads ``BENCHMARK.json``, and its contract (README,
"What the driver registers") admits as end-to-end only a metric that is
never 0 and steady from seed to seed on *every* workload.  ``registered()``
is that rule; the metrics it turns away — five exist on some workloads
only, ``sim_cycles``/``sim_speedup`` change with ``kernel_mix``'s seed by
design, ``failed_ops_share`` is 0 on a healthy run — are listed in
``BENCHMARK.json`` under ``per_layer`` instead, under their own names, and
the traced run's result line carries them.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "REGISTERED",
    "TRACED",
    "RUN_SECONDS",
    "Metric",
    "registered",
    "benchmark_json",
]

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 15

WORKLOADS = {
    "stream_steady": (
        "one long modulo-scheduled DAXPY loop streaming past L3 over the snoop "
        "bus: compiled-trace execution and the memory miss path do the work"
    ),
    "kernel_mix": (
        "NPB cg+mg on the directory machine plus six seed-drawn kernels: short "
        "loops, side exits, trace trees, per-op trace codegen, false sharing"
    ),
    "cli_cold": (
        "four fresh `python -m repro` commands, process start to exit: "
        "interpreter start, import, build and cold trace JIT dominate"
    ),
    "state_plane": (
        "recorded journal and fleet traffic replayed through persist and fleet, "
        "writes beside reads; the other three workloads bypass both packages"
    ),
}

SIM = ("stream_steady", "kernel_mix")
ALL = tuple(WORKLOADS)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    bound: float | None         # share a metric may worsen; None = per-layer
    workloads: tuple[str, ...]  # where it is measured (elsewhere it reads 0)


#: Bound of every host-time metric.  The issue asked for 0.10; on the
#: sizing sandbox ten runs of unchanged code spread by 3-6 % in
#: spin-normalised seconds in ordinary hours and by up to 21 % in bad ones (README,
#: "Measured run-to-run spread"), and a bound has to be about three times
#: the spread to tell a regression from the weather.
HOST_TIME_BOUND = 0.25

END_TO_END = (
    Metric("setup_s", "s", "lower", HOST_TIME_BOUND, ALL),
    Metric("op_wall_s", "s", "lower", HOST_TIME_BOUND, ALL),
    Metric("sim_minstr_per_s", "Minstr/s", "higher", HOST_TIME_BOUND, SIM),
    Metric("sim_cycles", "cycles", "lower", 0.0, SIM),
    Metric("sim_speedup", "ratio", "higher", 0.0, SIM),
    Metric("ingest_frames_per_s", "1/s", "higher", HOST_TIME_BOUND, ("state_plane",)),
    Metric("recover_s", "s", "lower", HOST_TIME_BOUND, ("state_plane",)),
    Metric("peak_rss_mb", "MiB", "lower", 0.10, ALL),
    Metric("failed_ops_share", "share", "lower", 0.0, ALL),
)


def registered(metric: Metric) -> bool:
    """Whether the driver can police ``metric``: measured on every workload,
    and not an exact count or share (bound 0), which is 0 or moves with the
    seed."""
    return metric.workloads == ALL and metric.bound > 0



def _layer(workloads, *rows) -> tuple[Metric, ...]:
    return tuple(Metric(n, u, b, None, workloads) for n, u, b in rows)


PER_LAYER = (
    # cli: what one command costs before and beside the simulation
    *_layer(
        ("cli_cold",),
        ("cli.interp_startup_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("cli.cmd.table1_s", "s", "lower"),
        ("cli.cmd.daxpy_s", "s", "lower"),
        ("cli.cmd.cg_s", "s", "lower"),
        ("cli.cmd.mg_altix_s", "s", "lower"),
        ("cli.inproc_pass_s", "s", "lower"),
    ),
    # the build path: workloads -> compiler -> isa -> runtime
    *_layer(SIM, ("workloads.build_s", "s", "lower")),
    *_layer(
        ("kernel_mix",),
        ("workloads.build_all_npb_s", "s", "lower"),
        ("compiler.bundles_emitted", "count", "lower"),
        ("compiler.image_bytes", "count", "lower"),
        ("isa.decode_bundles_per_s", "1/s", "higher"),
        ("isa.encode_bundles_per_s", "1/s", "higher"),
        ("isa.disassemble_bundles_per_s", "1/s", "higher"),
        ("isa.assemble_bundles_per_s", "1/s", "higher"),
    ),
    *_layer(
        SIM,
        # cpu: interpreter, trace JIT
        ("cpu.machine_init_s", "s", "lower"),
        ("cpu.jit_minstr_per_s", "Minstr/s", "higher"),
        ("cpu.interp_minstr_per_s", "Minstr/s", "higher"),
        ("cpu.jit_speedup", "ratio", "higher"),
        ("cpu.compute_loop_minstr_per_s", "Minstr/s", "higher"),
        ("cpu.tracejit.cold_penalty_s", "s", "lower"),
        ("cpu.tracejit.compiles", "count", "lower"),
        ("cpu.tracejit.coverage_pct", "%", "higher"),
        ("cpu.tracejit.osr_entries", "count", "higher"),
        ("cpu.tracejit.tree_links", "count", "higher"),
        ("cpu.tracejit.budget_exits", "count", "lower"),
        ("cpu.tracejit.side_exits", "count", "lower"),
        ("cpu.tracejit.deopts_per_kinstr", "1/kinstr", "lower"),
        # memory: host speed of the access path, simulated traffic counts
        ("memory.l2_hit_access_per_s", "1/s", "higher"),
        ("memory.dram_stream_access_per_s", "1/s", "higher"),
        ("memory.pingpong_bus_access_per_s", "1/s", "higher"),
        ("memory.pingpong_dir_access_per_s", "1/s", "higher"),
        ("memory.prefetch_excl_access_per_s", "1/s", "higher"),
        ("memory.l3_misses", "count", "lower"),
        ("memory.bus_txns", "count", "lower"),
        ("memory.coherent_ratio", "ratio", "lower"),
        # hpm / core (COBRA) / governor / validate
        ("hpm.samples", "count", "higher"),
        ("core.host_overhead_ratio", "ratio", "lower"),
        ("core.deployments", "count", "higher"),
        ("core.rollbacks", "count", "lower"),
        ("core.opt_events", "count", "lower"),
        ("core.ramp_retired", "count", "lower"),
        ("core.noprefetch_sim_speedup", "ratio", "higher"),
        ("core.excl_sim_speedup", "ratio", "higher"),
        ("governor.host_overhead_ratio", "ratio", "lower"),
        ("validate.strict_minstr_per_s", "Minstr/s", "higher"),
        ("validate.checks", "count", "higher"),
    ),
    *_layer(
        ("state_plane",),
        # persist: journal, snapshot codec, recovery, profile database
        ("persist.journal_append_recs_per_s", "1/s", "higher"),
        ("persist.encode_record_mb_per_s", "MB/s", "higher"),
        ("persist.scan_journal_mb_per_s", "MB/s", "higher"),
        ("persist.snapshot_encode_mb_per_s", "MB/s", "higher"),
        ("persist.snapshot_decode_mb_per_s", "MB/s", "higher"),
        ("persist.recover_s", "s", "lower"),
        ("persist.profiledb_merge_per_s", "1/s", "higher"),
        ("persist.profiledb_save_s", "s", "lower"),
        ("persist.profiledb_load_s", "s", "lower"),
        ("persist.journal_bytes", "count", "lower"),
        ("persist.snapshots_written", "count", "lower"),
        ("persist.disk_writes", "count", "lower"),
        ("persist.run_overhead_ratio", "ratio", "lower"),
        ("persist.filedisk_append_recs_per_s", "1/s", "higher"),
        # fleet: wire codec, daemon ingest, quorum merge, daemon recovery
        ("fleet.handle_hello_per_s", "1/s", "higher"),
        ("fleet.handle_batch_per_s", "1/s", "higher"),
        ("fleet.handle_profile_per_s", "1/s", "higher"),
        ("fleet.dup_frames_per_s", "1/s", "higher"),
        ("fleet.decode_frame_per_s", "1/s", "higher"),
        ("fleet.encode_frame_per_s", "1/s", "higher"),
        ("fleet.published_entry_s", "s", "lower"),
        ("fleet.daemon_recover_s", "s", "lower"),
        ("fleet.snapshots_written", "count", "lower"),
        ("fleet.journal_bytes", "count", "lower"),
        ("fleet.nacks", "count", "lower"),
        ("fleet.agent_overhead_ratio", "ratio", "lower"),
        ("fleet.harness6_wall_s", "s", "lower"),
    ),
    # the traced run about itself, and the host it ran on
    *_layer(
        ALL,
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage_pct", "%", "higher"),
        ("host.calib_s", "s", "lower"),
        ("host.calib_spread_pct", "%", "lower"),
    ),
)

#: ``BENCHMARK.json``'s ``end_to_end``: the untraced run's result line.
REGISTERED = tuple(m for m in END_TO_END if registered(m))
#: ``BENCHMARK.json``'s ``per_layer``: the traced run's result line.
TRACED = tuple(m for m in END_TO_END if not registered(m)) + PER_LAYER


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json`` (exactly the driver's keys)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in REGISTERED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in TRACED
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=2))
