#!/usr/bin/env python
"""Differential fuzzing: catch a planted bug, replay it, shrink it.

Walks the full divergence-triage loop end to end:

1. runs a small clean sweep — every generated kernel must agree
   bit-for-bit across all must-agree axes (adaptive vs none, trace JIT
   on vs off, faulted vs clean, checkpoint-resume vs straight-through);
2. plants a bug: the ``noprefetch`` rewrite is replaced with one that
   *stores zero* through the prefetch pointer instead of nopping the
   lfetch — silent cross-thread data corruption, the kind only a
   digest comparison catches;
3. reruns one scenario, which now diverges, and shows how the report
   names the exact ``(generator_seed, fault_seed)`` pair;
4. replays the divergence from those two integers alone — the pair is
   the complete repro, nothing else is needed;
5. shrinks the scenario to the smallest kernel that still diverges.

Run:  python examples/fuzz_divergence_replay.py
"""

from __future__ import annotations

from repro.core.opts import REWRITES
from repro.fuzz import DifferentialFuzzer, generate_params, run_scenario, shrink
from repro.fuzz.generator import describe
from repro.fuzz.report import repro_command
from repro.isa.instructions import Instruction, Op

PLANT_SEED = 12  # a scenario whose adaptive run deploys noprefetch


def corrupting_rewrite(program, trace):
    """The planted bug: lfetch becomes a store of zero."""

    def rewrite(instr):
        if instr.op is Op.LFETCH:
            return Instruction(Op.ST8, r2=instr.r2, r3=0, imm=instr.imm, unit="M")
        return None

    return rewrite


def main() -> None:
    print("== 1. clean sweep (4 seeds) ==")
    report = DifferentialFuzzer(seeds=range(4)).run()
    print(report.summary(verbose=False))
    assert report.ok

    print("\n== 2. plant the bug ==")
    original = REWRITES["noprefetch"]
    REWRITES["noprefetch"] = corrupting_rewrite
    try:
        params = generate_params(PLANT_SEED)
        print(f"scenario: {describe(params)}")

        print("\n== 3. the sweep catches it ==")
        result = run_scenario(params)
        assert not result.ok
        for div in result.divergences:
            print(f"  DIVERGENCE {div.describe()}")
            print(f"  repro: {repro_command(div.seed, div.fault_seed)}")

        print("\n== 4. replay from the printed pair alone ==")
        replayed = generate_params(params.seed, fault_seed=params.fault_seed)
        assert replayed == params, "the pair reconstructs the full scenario"
        again = run_scenario(replayed)
        assert again.divergences == result.divergences
        print(f"  ({params.seed}, {params.fault_seed}) -> same "
              f"{len(again.divergences)} divergence(s), bit-identical report")

        print("\n== 5. shrink to a minimal failing kernel ==")
        outcome = shrink(params, budget=24)
        print(f"  {outcome.summary()}")
        assert not run_scenario(outcome.params).ok
    finally:
        REWRITES["noprefetch"] = original

    print("\n== bug removed: the same seed is clean again ==")
    assert run_scenario(generate_params(PLANT_SEED)).ok
    print("OK")


if __name__ == "__main__":
    main()
