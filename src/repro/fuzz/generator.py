"""Seeded scenario generation over the kernel-template space.

A scenario is fully determined by a :class:`ScenarioParams` — a frozen,
picklable record of every knob the generator sampled.  ``generate_params
(seed)`` draws one from ``random.Random(seed)``; rebuilding a scenario
from a (possibly shrunk) params record is deterministic, which is what
makes the two-integer repro contract and the shrinker work at all.

The sampled space deliberately straddles every behavioural cliff the
runtime has:

* trip counts around the trace-JIT hot threshold and around the
  32-bundle trace limit (term count drives bundle count),
* chunk sizes that do / do not align to the 128-byte cache line, so
  adjacent threads' chunks share a line (``share_boundary``),
* stencil shifts that make threads read into each other's chunks,
* gather inner-loop nest depth (CSR row length),
* prefetch aggressiveness knobs fed to the compiler plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["ScenarioParams", "generate_params", "LOOP_CLASSES", "describe"]

#: Every loop class the generator can emit.
LOOP_CLASSES = ("stream", "reduce", "gather", "histogram", "compute", "intsum")

#: 128-byte line / 8-byte elements.
_ELEMS_PER_LINE = 16


@dataclass(frozen=True)
class ScenarioParams:
    """Everything needed to rebuild one scenario, bit for bit."""

    seed: int                     # generator seed (also seeds array data)
    fault_seed: int               # seeds the fault schedule on the faulted axis
    loop_class: str               # one of LOOP_CLASSES
    machine_kind: str             # "smp" | "altix"
    n_threads: int                # 2..4
    chunk: int                    # elements per thread chunk
    reps: int                     # outer repetitions of the region
    n_terms: int                  # stream terms / intsum sources / compute flops
    shift_span: int               # max |shift| used by stream/intsum terms
    nest_depth: int               # gather: nonzeros per CSR row
    share_boundary: bool          # thread chunks share a cache line
    prefetch_distance: int        # plan.distance_lines
    conditional_prefetch: bool    # plan.conditional (predication density)
    multiversion: bool            # plan.multiversion
    prologue_prefetch: bool       # plan.prologue

    def __post_init__(self) -> None:
        if self.loop_class not in LOOP_CLASSES:
            raise ValueError(f"unknown loop class {self.loop_class!r}")
        if self.machine_kind not in ("smp", "altix"):
            raise ValueError(f"unknown machine kind {self.machine_kind!r}")

    @property
    def n(self) -> int:
        """Total problem size across threads."""
        return self.chunk * self.n_threads


def generate_params(seed: int, *, fault_seed: int | None = None) -> ScenarioParams:
    """Draw one scenario from ``random.Random(seed)``.

    ``fault_seed`` overrides the drawn fault seed — used by replay so a
    printed ``(generator_seed, fault_seed)`` pair reproduces exactly.
    """
    rng = random.Random(seed)
    loop_class = rng.choice(LOOP_CLASSES)
    # altix needs an even cpu count; keep thread counts small so the
    # whole axis sweep for one scenario stays well under a second.
    machine_kind = rng.choice(("smp", "smp", "altix"))
    n_threads = rng.choice((2, 4)) if machine_kind == "altix" else rng.choice((2, 3, 4))

    share_boundary = rng.random() < 0.5
    if share_boundary:
        # any chunk not a multiple of 16 elements puts adjacent chunks
        # on a shared 128-byte line
        chunk = rng.choice((6, 10, 13, 18, 21, 27))
    else:
        chunk = rng.choice((16, 32, 48))
    # short trip counts keep some loops near the hot threshold; outer
    # reps make them cumulatively hot, so ramp-dominated and
    # steady-state-dominated scenarios both occur naturally.
    reps = rng.randint(2, 6)

    n_terms = rng.randint(1, 8) if loop_class == "stream" else rng.randint(1, 6)
    if loop_class == "compute":
        n_terms = rng.randint(1, 16)  # flops per iteration
    shift_span = rng.choice((0, 0, 1, 2, 4)) if loop_class in ("stream", "intsum") else 0
    nest_depth = rng.randint(1, 6) if loop_class == "gather" else 1

    drawn_fault_seed = rng.randint(0, 2**31 - 1)

    # ~1 in 8 seeds is forced into the tiny trip-count regime: the
    # smallest chunk, 2 reps, depth-1 rows.  Short runs like these keep
    # compiled traces from ever chaining exits into each other,
    # guaranteeing tree-free coverage per loop class — which a uniform
    # draw makes vanishingly rare for gather (whose inner nest promotes
    # into a trace tree almost immediately).  A separate RNG stream
    # keeps the main draw sequence (above) stable.
    if random.Random(seed ^ 0x714A).random() < 0.125:
        chunk, reps, nest_depth, share_boundary = 6, 2, 1, True

    return ScenarioParams(
        seed=seed,
        fault_seed=drawn_fault_seed if fault_seed is None else fault_seed,
        loop_class=loop_class,
        machine_kind=machine_kind,
        n_threads=n_threads,
        chunk=chunk,
        reps=reps,
        n_terms=n_terms,
        shift_span=shift_span,
        nest_depth=nest_depth,
        share_boundary=share_boundary,
        prefetch_distance=rng.choice((1, 2, 4)),
        conditional_prefetch=rng.random() < 0.5,
        multiversion=rng.random() < 0.3,
        prologue_prefetch=rng.random() < 0.7,
    )


def describe(params: ScenarioParams) -> str:
    """One-line human description — stable, used in reports."""
    bits = [
        f"{params.loop_class}",
        f"machine={params.machine_kind}x{params.n_threads}",
        f"chunk={params.chunk}",
        f"reps={params.reps}",
        f"terms={params.n_terms}",
    ]
    if params.shift_span:
        bits.append(f"shift=±{params.shift_span}")
    if params.loop_class == "gather":
        bits.append(f"nnz/row={params.nest_depth}")
    if params.share_boundary:
        bits.append("shared-line")
    bits.append(
        "plan=d{}{}{}{}".format(
            params.prefetch_distance,
            "c" if params.conditional_prefetch else "",
            "m" if params.multiversion else "",
            "p" if params.prologue_prefetch else "",
        )
    )
    return " ".join(bits)
