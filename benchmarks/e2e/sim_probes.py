"""Outside-in probes of the layers a simulating workload exercises.

Each probe times the benchmark's own calls into a package's public
functions — nothing inside ``src/`` is instrumented — and checks what it
got back.  All sizes are fixed constants.  A probe takes the workload
and its timed ops and returns ``{metric name: value}``.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

from repro import BENCHMARKS, Machine, ParallelProgram, itanium2_smp, sgi_altix
from repro.compiler.kernels import ComputeLoop
from repro.config import GovernorConfig
from repro.isa import assemble, decode_bundle, disassemble, encode_bundle
from repro.memory.hierarchy import LOAD, PREFETCH_EXCL, STORE

from base import ProbeFailure

__all__ = ["pass_probes", "cpu_probes", "memory_probes", "build_probes"]


def _rate(runs) -> float:
    """Simulated Minstr retired per host second over ``runs``."""
    return sum(r.retired for r in runs) / 1e6 / sum(r.wall for r in runs)


def pass_probes(wl, ops) -> dict[str, float]:
    """Extra passes over the workload's own programs: the other
    strategies, the governor, the generic interpreter, strict validation."""
    adaptive_wall = statistics.median(op.wall for op in ops)
    none_cycles = sum(r.cycles for r in wl.reference)
    out = {}

    # a warm `none` pass: the first one, in set-up, paid the cold trace JIT
    none = wl.probe_pass("none", wl.specs, "none")
    none_wall = sum(r.wall for r in none)
    out["cpu.jit_minstr_per_s"] = _rate(none)
    out["cpu.tracejit.cold_penalty_s"] = sum(r.wall for r in wl.reference) - none_wall
    out["core.host_overhead_ratio"] = adaptive_wall / none_wall

    for strategy in ("noprefetch", "excl"):
        runs = wl.probe_pass(strategy, wl.specs, strategy)
        out[f"core.{strategy}_sim_speedup"] = none_cycles / sum(r.cycles for r in runs)

    # default budgets bind nothing at these sizes: the cost of having a governor
    governed = wl.probe_pass(
        "governor", wl.specs, "adaptive",
        configure=lambda cobra: replace(cobra, governor=GovernorConfig()))
    out["governor.host_overhead_ratio"] = sum(r.wall for r in governed) / adaptive_wall

    small_jit = wl.probe_pass("small_jit", wl.small_specs, "none")
    interp = wl.probe_pass("interp", wl.small_specs, "none", jit=False)
    if [r.digest for r in interp] != [r.digest for r in small_jit]:
        raise ProbeFailure("generic interpreter and trace JIT disagree")
    out["cpu.interp_minstr_per_s"] = _rate(interp)
    out["cpu.jit_speedup"] = _rate(small_jit) / _rate(interp)

    strict = wl.probe_pass(
        "strict", wl.small_specs, "adaptive",
        configure=lambda cobra: replace(cobra, validate="strict"))
    out["validate.strict_minstr_per_s"] = _rate(strict)
    out["validate.checks"] = sum(r.cobra["validate_checks"] for r in strict)
    return out


COMPUTE_ITERS = 4096
COMPUTE_REPS = 60


def cpu_probes(wl, ops) -> dict[str, float]:
    """A single-core, register-only loop: the cores with no memory traffic."""
    machine = Machine(itanium2_smp(1, scale=16))
    prog = ParallelProgram(machine, "compute")
    fn = prog.kernel(ComputeLoop("compute", flops_per_iter=8))
    prog.region([prog.make_call(fn, 0, COMPUTE_ITERS)])
    prog.build(outer_reps=COMPUTE_REPS)
    with wl.tracer.span("probe.compute_loop") as s:
        result = prog.run()
    if result.retired < COMPUTE_ITERS * COMPUTE_REPS:
        raise ProbeFailure("compute loop retired too little")
    return {"cpu.compute_loop_minstr_per_s": result.retired / 1e6 / s.dur}


MEMORY_ACCESSES = 50_000
_BASE = 0x8000_0000
_LINE = 128


def _drive(wl, name: str, machine: Machine, plan) -> float:
    """Accesses per host second for ``plan``: (cpu, address, kind) triples
    fed to ``CpuCacheSystem.access`` with simulated time moving on."""
    calls = [(machine.caches[cpu].access, addr, kind) for cpu, addr, kind in plan]
    now = 0
    with wl.tracer.span(f"probe.memory.{name}") as s:
        for access, addr, kind in calls:
            now += access(now, addr, kind)
    return len(calls) / s.dur


def memory_probes(wl, ops) -> dict[str, float]:
    n = MEMORY_ACCESSES
    smp = lambda: Machine(itanium2_smp(4, scale=16))  # noqa: E731
    numa = Machine(sgi_altix(4, scale=16))
    remote = numa.config.cpus_per_node  # first CPU of the second node
    plans = {
        "l2_hit": (smp(), [(0, _BASE + (i % 32) * _LINE, LOAD) for i in range(n)]),
        "dram_stream": (smp(), [(0, _BASE + i * _LINE, LOAD) for i in range(n)]),
        "pingpong_bus": (smp(), [(i % 2, _BASE, STORE) for i in range(n)]),
        "pingpong_dir": (numa, [((i % 2) * remote, _BASE, STORE) for i in range(n)]),
        "prefetch_excl": (smp(), [(0, _BASE + i * _LINE, PREFETCH_EXCL) for i in range(n)]),
    }
    out = {}
    for name, (machine, plan) in plans.items():
        out[f"memory.{name}_access_per_s"] = _drive(wl, name, machine, plan)
        events = machine.aggregate_events()
        if events.loads + events.stores + events.prefetches != n:
            raise ProbeFailure(f"memory probe {name}: not every access was counted")
    return out


def build_probes(wl, ops) -> dict[str, float]:
    """The build path: all eight NPB builds, then the built images through
    the ISA codecs and the assembler round trip."""
    span = wl.tracer.span
    with span("probe.build_all_npb") as s_build:
        images = [
            bench.build(Machine(sgi_altix(8, scale=16)), 8).image
            for bench in BENCHMARKS.values()
        ]
    bundles = [bundle for image in images for _addr, bundle in image.iter_bundles()]
    with span("probe.isa.decode") as s_decode:
        for bundle in bundles:
            decode_bundle(bundle)
    with span("probe.isa.encode") as s_encode:
        encoded = [encode_bundle(bundle) for bundle in bundles]
    with span("probe.isa.disassemble") as s_disasm:
        texts = [disassemble(image) for image in images]
    with span("probe.isa.assemble") as s_asm:
        rebuilt = [assemble(text, base=image.base) for text, image in zip(texts, images)]
    for image, again, text in zip(images, rebuilt, texts):
        if len(again) != len(image) or disassemble(again) != text:
            raise ProbeFailure("assemble(disassemble(image)) is not a fixpoint")
    n = len(bundles)
    return {
        "workloads.build_all_npb_s": s_build.dur,
        "compiler.bundles_emitted": n,
        "compiler.image_bytes": sum(len(e) for e in encoded),
        "isa.decode_bundles_per_s": n / s_decode.dur,
        "isa.encode_bundles_per_s": n / s_encode.dur,
        "isa.disassemble_bundles_per_s": n / s_disasm.dur,
        "isa.assemble_bundles_per_s": n / s_asm.dur,
    }

