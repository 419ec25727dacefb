#!/usr/bin/env python
"""Fault injection: break COBRA's inputs and watch it not care.

Runs the CG benchmark under COBRA three times:

1. fault-free, to establish the reference output digest;
2. with a seeded fault schedule attacking all three surfaces (HPM
   sampling, trace-cache patching, the monitor/optimizer loop) —
   outputs must stay bit-identical and every injected fault must be
   accounted in the ledger;
3. with an aggressive schedule and a low escalation threshold, so the
   watchdog gives up on optimizing and degrades to monitor-only mode —
   which costs performance, never correctness.

Run:  python examples/chaos_injection.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import Machine, itanium2_smp, run_with_cobra
from repro.config import FaultConfig
from repro.scenario import _digest, _snapshot_arrays, npb_spec

THREADS = 4
SCALE = 16
SPEC = npb_spec("cg", n_threads=THREADS)


def run(faults: FaultConfig | None = None, threshold: int = 8):
    machine = Machine(itanium2_smp(THREADS, scale=SCALE))
    program = SPEC.build(machine)
    config = replace(
        machine.config.cobra, faults=faults, fault_escalation_threshold=threshold
    )
    result, report = run_with_cobra(program, "adaptive", config=config)
    return _digest(_snapshot_arrays(program)), result, report


def main() -> None:
    # -- 1. the fault-free reference -------------------------------------
    baseline_digest, base, _ = run()
    print(f"fault-free:  {base.cycles:>7} cycles   digest {baseline_digest[:16]}\n")

    # -- 2. a moderate seeded fault schedule ------------------------------
    faults = FaultConfig(seed=7, sample_rate=0.2, patch_rate=0.6, loop_rate=0.3)
    digest, result, report = run(faults)
    assert digest == baseline_digest, "a fault reached program correctness!"
    assert report.faults.accounted, report.faults.summary()
    print(f"seed=7:      {result.cycles:>7} cycles   digest {digest[:16]}  (identical)")
    print(f"  {report.faults.summary()}")
    if report.quarantined:
        print(f"  quarantined: {report.quarantined}")
    for line in report.recovery_log:
        print(f"  recovery: {line}")

    print("\ninjected fault schedule (replayable from seed=7):")
    for event in report.faults.events:
        print(f"  {event}")

    # -- 3. hammer it until the watchdog degrades the runtime -------------
    storm = FaultConfig(seed=11, sample_rate=0.5, patch_rate=1.0, loop_rate=0.8)
    digest, result, report = run(storm, threshold=2)
    assert digest == baseline_digest
    assert report.faults.accounted
    print(f"\nfault storm: {result.cycles:>7} cycles   digest {digest[:16]}  (identical)")
    print(f"  end mode: {report.mode}")
    for event in report.events:
        if event.kind in ("degrade", "recover"):
            print(f"  @{event.retired:>7} retired  {event.kind:8s} {event.reason}")
    print("\noutputs never changed; only the optimization level did.")


if __name__ == "__main__":
    main()
