"""Build a runnable multithreaded program from :class:`ScenarioParams`.

``build_scenario`` is a *pure function* of its params (array contents,
kernel templates, chunking, prefetch plan — everything derives from
``params.seed``), which is what lets the differ rebuild the identical
program on a fresh machine for every axis and lets the shrinker re-run
reduced variants.

Every generated program is race-free by construction — threads write
disjoint elements (dest chunks, private result slots, private histogram
slabs, per-row gather outputs) and shared reads are read-only — so the
bit-equality contract holds regardless of thread interleaving.  Reads
*may* cross chunk boundaries (stencil shifts, shared cache lines), which
is exactly the sharing COBRA's rewrites act on.
"""

from __future__ import annotations

import random

import numpy as np

from ..compiler.kernels import (
    ComputeLoop,
    GatherLoop,
    HistogramLoop,
    IntSumLoop,
    ReduceLoop,
    StreamLoop,
    Term,
)
from ..compiler.prefetch import PrefetchPlan
from ..config import itanium2_smp, sgi_altix
from ..cpu.machine import Machine
from ..runtime.team import ParallelProgram, static_chunks
from .generator import ScenarioParams

__all__ = ["scenario_machine", "scenario_plan", "build_scenario", "FUZZ_SCALE", "FUZZ_COBRA"]

#: Machine scale for fuzz scenarios: small caches keep runs fast while
#: the 128-byte line (never scaled) keeps sharing geometry realistic.
FUZZ_SCALE = 4

#: COBRA runs with shortened intervals so the tiny generated programs
#: actually sample, wake the optimizer, and deploy rewrites.
FUZZ_COBRA = dict(sampling_interval=300, optimize_interval=3_000)

#: Candidate coefficients for stream terms — exactly representable in
#: binary so the NumPy cross-checks in tests stay bit-exact.
_COEFS = (1.0, 0.5, -0.25, 2.0, 0.75, -1.5, 0.125, -2.0)


def scenario_machine(params: ScenarioParams) -> Machine:
    """A fresh machine for one axis run of ``params``."""
    if params.machine_kind == "altix":
        config = sgi_altix(params.n_threads, scale=FUZZ_SCALE)
    else:
        config = itanium2_smp(params.n_threads, scale=FUZZ_SCALE)
    return Machine(config.with_cobra(**FUZZ_COBRA))


def scenario_plan(params: ScenarioParams) -> PrefetchPlan:
    return PrefetchPlan(
        distance_lines=params.prefetch_distance,
        conditional=params.conditional_prefetch,
        multiversion=params.multiversion,
        prologue_per_stream=None if params.prologue_prefetch else 0,
    )


def _knob_rng(params: ScenarioParams) -> random.Random:
    # distinct stream from generate_params' draws so shrunk params
    # (which bypass generate_params) rebuild identically
    return random.Random((params.seed << 1) ^ 0x5EED)


def _term_specs(params: ScenarioParams, count: int) -> list[tuple[float, int]]:
    """(coef, shift) pairs — prefix-stable and span-monotone so the
    shrinker's reduced params stay a sub-scenario of the original."""
    rng = _knob_rng(params)
    out = []
    for _ in range(count):
        coef = rng.choice(_COEFS)
        raw = rng.randint(-4, 4)
        shift = max(-params.shift_span, min(params.shift_span, raw))
        out.append((coef, shift))
    return out


def build_scenario(params: ScenarioParams, machine: Machine) -> ParallelProgram:
    """Compile + link ``params`` into a built program on ``machine``."""
    prog = ParallelProgram(machine, f"fz{params.seed}")
    plan = scenario_plan(params)
    data = np.random.default_rng(params.seed)
    n = params.n
    builder = _BUILDERS[params.loop_class]
    builder(params, prog, plan, data, n)
    prog.build(outer_reps=params.reps)
    return prog


# -- per-class builders ------------------------------------------------------


def _build_stream(params, prog, plan, data, n):
    halo = params.shift_span + 16
    padded = n + 2 * halo
    specs = _term_specs(params, params.n_terms)
    terms = tuple(
        Term(f"s{j}", coef, shift) for j, (coef, shift) in enumerate(specs)
    )
    for j in range(params.n_terms):
        prog.array(f"s{j}", padded, data.uniform(0.5, 1.5, padded))
    prog.array("d", padded, np.zeros(padded))
    fn = prog.kernel(StreamLoop(f"fz{params.seed}_stream", dest="d", terms=terms), plan)
    prog.region(
        [
            prog.make_call(fn, halo + start, count) if count else None
            for start, count in static_chunks(n, params.n_threads)
        ]
    )


def _build_reduce(params, prog, plan, data, n):
    prog.array("a", n, data.uniform(0.5, 1.5, n))
    prog.array("b", n, data.uniform(0.5, 1.5, n))
    # adjacent per-thread result slots: the classic false-sharing site
    prog.array("__res", params.n_threads + 16)
    res = prog.arrays["__res"]
    src_b = "b" if params.n_terms % 2 == 0 else None
    fn = prog.kernel(ReduceLoop(f"fz{params.seed}_red", src_a="a", src_b=src_b), plan)
    prog.region(
        [
            prog.make_call(fn, start, count, raw={"result": res.addr(tid)})
            if count
            else None
            for tid, (start, count) in enumerate(static_chunks(n, params.n_threads))
        ]
    )


def _build_gather(params, prog, plan, data, n):
    depth = params.nest_depth
    prog.int_array("ptr", n + 1, np.arange(n + 1, dtype=np.int64) * depth)
    prog.int_array("col", n * depth, data.integers(0, n, n * depth).astype(np.int64))
    prog.array("av", n * depth, data.uniform(0.01, 0.1, n * depth))
    prog.array("x", n, data.uniform(0.5, 1.5, n))
    prog.array("y", n, np.zeros(n))
    fn = prog.kernel(
        GatherLoop(f"fz{params.seed}_gat", ptr="ptr", col="col", val="av", x="x", y="y"),
        plan,
    )
    prog.parallel_for(fn, n, params.n_threads)


def _build_histogram(params, prog, plan, data, n):
    # an odd-line slab stride puts adjacent threads' private histograms
    # on a shared 128-byte line; a multiple of 16 keeps them private
    n_bins = 24 if params.share_boundary else 32
    prog.int_array("key", n, data.integers(0, n_bins, n).astype(np.int64))
    prog.int_array("hist", n_bins * params.n_threads + 16)
    prog.int_array("total", n_bins)
    hist = prog.arrays["hist"]
    h_fn = prog.kernel(HistogramLoop(f"fz{params.seed}_hist", key="key", cnt="hist"), plan)
    prog.region(
        [
            prog.make_call(h_fn, start, count, raw={"hist": hist.addr(n_bins * tid)})
            if count
            else None
            for tid, (start, count) in enumerate(static_chunks(n, params.n_threads))
        ]
    )
    m_fn = prog.kernel(
        IntSumLoop(
            f"fz{params.seed}_merge",
            dest="total",
            sources=tuple(("hist", n_bins * t) for t in range(params.n_threads)),
        ),
        plan,
    )
    prog.parallel_for(m_fn, n_bins, params.n_threads)


def _build_intsum(params, prog, plan, data, n):
    halo = params.shift_span + 16
    padded = n + 2 * halo
    k = min(params.n_terms, 6)
    specs = _term_specs(params, k)
    for j in range(k):
        prog.int_array(f"i{j}", padded, data.integers(0, 1 << 20, padded).astype(np.int64))
    prog.int_array("di", padded)
    fn = prog.kernel(
        IntSumLoop(
            f"fz{params.seed}_isum",
            dest="di",
            sources=tuple((f"i{j}", shift) for j, (_c, shift) in enumerate(specs)),
        ),
        plan,
    )
    prog.region(
        [
            prog.make_call(fn, halo + start, count) if count else None
            for start, count in static_chunks(n, params.n_threads)
        ]
    )


def _build_compute(params, prog, plan, data, n):
    flops = max(1, min(16, params.n_terms))
    c_fn = prog.kernel(ComputeLoop(f"fz{params.seed}_fp", flops_per_iter=flops))
    prog.region(
        [prog.make_call(c_fn, 0, params.chunk) for _ in range(params.n_threads)]
    )
    # a small store sweep alongside the register-only work so the digest
    # observes execution (ComputeLoop itself never touches memory)
    prog.array("s0", n, data.uniform(0.5, 1.5, n))
    prog.array("d", n, np.zeros(n))
    s_fn = prog.kernel(
        StreamLoop(f"fz{params.seed}_out", dest="d", terms=(Term("s0", 0.5, 0),)), plan
    )
    prog.parallel_for(s_fn, n, params.n_threads)


_BUILDERS = {
    "stream": _build_stream,
    "reduce": _build_reduce,
    "gather": _build_gather,
    "histogram": _build_histogram,
    "intsum": _build_intsum,
    "compute": _build_compute,
}
