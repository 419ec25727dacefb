#!/usr/bin/env python3
"""Run one end-to-end workload of the COBRA reproduction and report it.

    python3 benchmarks/e2e/run.py --workload stream_steady --seed 1 \
        --seconds 15 --trace 0

One process, one client, closed loop: the next op starts when the
previous one has been checked.  The run prints every metric by name with
its unit, then — as the last line of stdout — one JSON object
``{"correct", "attempted", "failed", "metrics"}``; it exits non-zero if
any op failed.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` records spans around the benchmark's own calls into each
layer, runs the layer probes and reports the per-layer metrics (every
declared name: a layer the workload does not exercise reads 0).

A measuring run samples set-up ``SETUP_SAMPLES`` times, each in a fresh
process (so every sample pays the import and the cold trace JIT like the
first), and ``setup_s`` is the median; a traced run reports no ``setup_s``
and an ``--ops`` run is a smoke test, so they set up once.  Host times
are reported in spin-normalised seconds (see ``host.py``): the sandbox
changes speed by up to 2x in plateaus longer than a run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import host  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer  # noqa: E402

SCHEMA = "repro-e2e/1"
#: a run measures at least this many ops, however slow the host
MIN_OPS = 3
#: set-ups whose median is ``setup_s``
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 170
MODEL_NOTE = ("model unvalidated: the repository holds no hardware reference, "
              "so simulated figures carry no error estimate")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measure ops for this long (at least %d ops)" % MIN_OPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="smoke mode: measure exactly this many ops instead of "
                             "--seconds, after a single set-up")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="source tree under test (compare.py --ab points it elsewhere)")
    parser.add_argument("--out", default=None, help="write the full result JSON here")
    parser.add_argument("--trace-out", default=None,
                        help="Chrome-trace file of a traced run "
                             "(default benchmarks/e2e/out/<workload>.trace.json)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(name: str, seed: int, src: str, tracer: Tracer):
    """Everything before the first timed op: import, input generation,
    reference runs, warm-up op.  Returns (wall seconds, the same
    spin-normalised, workload)."""
    spin_before = host.calib_spin()
    t0 = perf_counter()
    from workloads import make_workload

    workload = make_workload(name, seed, src, tracer)
    workload.setup()
    wall = perf_counter() - t0
    spins = [spin_before, *workload.drain_spins(), host.calib_spin()]
    return wall, wall * host.speed_factor(spins), workload


def setup_in_child(args: argparse.Namespace) -> tuple[float, float]:
    """One more set-up sample, taken by a fresh process."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--src", args.src, "--setup-only"]
    done = subprocess.run(argv, env=host.pinned_env(), capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["wall_s"], sample["setup_s"]


def measure(workload, tracer: Tracer, seconds: float, ops: int | None, trace: bool):
    """The timed closed loop: spin, op, spin, op, ... spin.  Returns the
    ops and, for each, the spins timed before, during and after it.  A
    traced run records every other op, so that traced and untraced ops of
    one run can be compared."""
    done = []
    brackets = []
    spin = host.calib_spin()
    started = perf_counter()
    while True:
        if ops is not None:
            if len(done) >= ops:
                break
        elif len(done) >= MIN_OPS and perf_counter() - started >= seconds:
            break
        gc.collect()
        tracer.enabled = trace and len(done) % 2 == 0
        tracer.op = len(done)
        with tracer.span("op"):
            done.append(workload.op())
        tracer.enabled = False
        before, spin = spin, host.calib_spin()
        brackets.append([before, *workload.drain_spins(), spin])
    tracer.op = -1
    return done, brackets


def run(args: argparse.Namespace, tamper=None) -> dict:
    """Set up, measure, summarise.  ``tamper(workload)`` runs between
    set-up and the first timed op: the self-tests damage a reference
    there to prove that a wrong output fails the run."""
    tracer = Tracer()
    trace = bool(args.trace)
    once = trace or args.ops is not None
    extra_setups = 0 if once else SETUP_SAMPLES - 1
    setups = [setup_in_child(args) for _ in range(extra_setups)]
    *own_setup, workload = timed_setup(args.workload, args.seed, args.src, tracer)
    setups.append(tuple(own_setup))
    if tamper is not None:
        tamper(workload)

    raw_ops, brackets = measure(workload, tracer, args.seconds, args.ops, trace)
    rss = host.peak_rss_mb(children=workload.children_rss)
    ops = [op.at_speed(host.speed_factor(b)) for op, b in zip(raw_ops, brackets)]
    # every spin of the measurement once, in order: a bracket starts with
    # the spin the one before it ended with
    spins = brackets[0][:1] + [s for b in brackets for s in b[1:]]

    walls = [op.wall for op in ops]
    failed = [op for op in ops if op.failures]
    end_to_end = {
        "setup_s": statistics.median(scaled for _wall, scaled in setups),
        "op_wall_s": statistics.median(walls),
        "peak_rss_mb": rss,
        "failed_ops_share": len(failed) / len(ops),
        **workload.end_to_end(ops),
    }
    result = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**host.host_info(ROOT), "spin_unit_s": host.SPIN_UNIT_S},
        "model": MODEL_NOTE,
        "noisy": host.spread(spins) > host.NOISE_SPREAD_LIMIT,
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({f for op in failed for f in op.failures}),
        "samples": {
            "setup_wall_s": [wall for wall, _scaled in setups],
            "setup_s": [scaled for _wall, scaled in setups],
            "op_wall_raw_s": [op.wall for op in raw_ops],
            "op_wall_s": walls,
            "calib_s": spins,
            "op_calib_s": brackets,
        },
        "end_to_end": end_to_end,
    }
    if trace:
        traced = walls[0::2]
        untraced = walls[1::2]
        tracer.enabled = True  # the probes' spans belong to no op
        layers = workload.layers(raw_ops)
        tracer.enabled = False
        spins.append(host.calib_spin())
        result["per_layer"] = {
            **layers_at_speed(layers, host.SPIN_UNIT_S / statistics.median(spins)),
            "trace.overhead_ratio":
                statistics.median(traced) / statistics.median(untraced) if untraced else 0.0,
            "trace.coverage_pct": tracer.coverage_pct("op"),
            "host.calib_s": statistics.median(spins),
            "host.calib_spread_pct": 100.0 * host.spread(spins),
        }
        path = args.trace_out or os.path.join(HERE, "out", f"{args.workload}.trace.json")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tracer.write(path)
        result["trace_file"] = path
    check_names(result)
    return result


def layers_at_speed(layers: dict[str, float], factor: float) -> dict[str, float]:
    """Per-layer times and rates in spin-normalised seconds.  The
    workloads compute them from raw seconds (ops, spans and probes alike),
    so one factor — the traced run's median host speed — corrects them all;
    counts and ratios pass through."""
    units = {m.name: m.unit for m in spec.PER_LAYER}
    out = {}
    for name, value in layers.items():
        if units[name] == "s":
            value *= factor
        elif units[name].endswith("/s"):
            value /= factor
        out[name] = value
    return out


def check_names(result: dict) -> None:
    """Emit exactly what ``spec`` declares for this workload."""
    name = result["workload"]
    for key, declared in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        if key not in result:
            continue
        want = {m.name for m in declared if name in m.workloads}
        got = set(result[key])
        if got != want:
            raise RuntimeError(
                f"{key} names differ from spec.py: missing {sorted(want - got)}, "
                f"undeclared {sorted(got - want)}")


def driver_line(result: dict) -> dict:
    """The object the driver reads from the last line of stdout: what
    ``BENCHMARK.json`` lists under ``per_layer`` for a traced run (a name
    the workload does not measure reads 0), under ``end_to_end`` otherwise."""
    values = result["end_to_end"]
    if result["trace"]:
        declared, values = spec.TRACED, {**values, **result["per_layer"]}
    else:
        declared = spec.REGISTERED
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": values.get(m.name, 0), "unit": m.unit} for m in declared
        },
    }


def exit_code(result: dict) -> int:
    return 1 if result["failed"] else 0


def print_report(result: dict) -> None:
    h = result["host"]
    print(f"# {result['workload']} seed={result['seed']} ops={result['attempted']} "
          f"failed={result['failed']} trace={result['trace']}"
          f"{' NOISY' if result['noisy'] else ''}")
    spins = result["samples"]["calib_s"]
    print(f"# python {h['python']} nproc={h['nproc']} loadavg={h['loadavg']} "
          f"rev={h['git_revision'][:12]} calib_s={min(spins):.4f}..{max(spins):.4f}, "
          f"spread {100 * host.spread(spins):.0f}% (times are wall x "
          f"{h['spin_unit_s']} s / spin)")
    print(f"# {result['model']}")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    n = result["attempted"]
    for key, declared in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        for m in declared:
            if m.name in result.get(key, {}):
                note = f"  (median of {n} ops)" if m.name == "op_wall_s" else ""
                print(f"{m.name:40s} {result[key][m.name]:>16.6g} {m.unit}{note}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    host.pin_environment([os.path.join(HERE, "run.py"), *(argv or sys.argv[1:])])
    args.src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(args.src, "repro", "__init__.py")):
        print(f"run.py: no `repro` package under {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(1, args.src)
    if args.setup_only:
        wall, scaled, _workload = timed_setup(args.workload, args.seed, args.src, Tracer())
        print(json.dumps({"wall_s": wall, "setup_s": scaled}))
        return 0
    result = run(args)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    print_report(result)
    print(json.dumps(driver_line(result)))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
