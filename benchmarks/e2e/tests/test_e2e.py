"""The benchmark's own checks: names, smoke runs, spans, failure paths,
determinism, and the comparison rule."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import compare
import run
import spec
from tracer import Tracer

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))

NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_UNITS = ("count", "cycles")


def run_cli(tmp_path, workload, seed=1, trace=0, ops=1):
    """One ``run.py`` process; returns (exit code, driver line, full result)."""
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    argv = [sys.executable, os.path.join(E2E, "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--ops", str(ops),
            "--out", str(out),
            "--trace-out", str(tmp_path / f"{workload}.trace.json")]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=str(tmp_path))
    line = json.loads(done.stdout.splitlines()[-1]) if done.returncode in (0, 1) else None
    result = json.loads(out.read_text()) if out.exists() else None
    return done.returncode, line, result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A two-op traced run of every workload (one traced op, one not)."""
    tmp = tmp_path_factory.mktemp("traced")
    return {w: (*run_cli(tmp, w, trace=1, ops=2), tmp) for w in spec.WORKLOADS}


def args_for(workload, seed=1, ops=1):
    return argparse.Namespace(
        workload=workload, seed=seed, seconds=0.0, trace=0, ops=ops,
        src=os.path.join(ROOT, "src"), out=None, trace_out=None, setup_only=False)


# -- names ---------------------------------------------------------------------


def test_benchmark_json_is_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_declared_names():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(spec.END_TO_END) == 9
    # BENCHMARK.json carries every name once, on one side or the other
    assert sorted(m.name for m in spec.REGISTERED + spec.TRACED) == sorted(names)
    assert len(spec.REGISTERED) <= 16 and len(spec.TRACED) <= 128
    assert "setup_s" in {m.name for m in spec.REGISTERED}


# -- smoke ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_untraced(tmp_path, workload):
    code, line, result = run_cli(tmp_path, workload)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in spec.REGISTERED}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    want = {m.name for m in spec.END_TO_END if workload in m.workloads}
    assert set(result["end_to_end"]) == want
    assert result["end_to_end"]["failed_ops_share"] == 0
    assert {"python", "nproc", "loadavg", "git_revision"} <= set(result["host"])
    assert "unvalidated" in result["model"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_traced(traced, workload):
    code, line, result, tmp = traced[workload]
    assert code == 0 and line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in spec.TRACED}
    assert set(result["per_layer"]) == {
        m.name for m in spec.PER_LAYER if workload in m.workloads}
    for m in spec.TRACED:
        assert line["metrics"][m.name]["unit"] == m.unit
        if workload not in m.workloads:
            assert line["metrics"][m.name]["value"] == 0
        elif m in spec.END_TO_END:
            assert line["metrics"][m.name]["value"] == result["end_to_end"][m.name]
    assert result["per_layer"]["trace.coverage_pct"] >= 95


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_spans_nest(traced, workload):
    tmp = traced[workload][3]
    events = json.loads((tmp / f"{workload}.trace.json").read_text())["traceEvents"]
    assert events
    for event in events:
        assert event["args"]["self_us"] >= -1.0  # rounding to 1 ns
        parent = event["args"]["parent"]
        if parent >= 0:
            outer = events[parent]
            assert outer["ts"] <= event["ts"] + 1e-3
            assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3
    assert any(e["name"] == "op" for e in events)


def test_tracer_self_time():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer") as outer:
        with tracer.span("a"):
            pass
        with tracer.span("b") as b:
            with tracer.span("c") as c:
                pass
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]
    selfs = tracer.self_times()
    assert all(t >= 0 for t in selfs)
    assert selfs[2] == pytest.approx(b.dur - c.dur)
    assert tracer.coverage_pct("outer") <= 100.0
    tracer.enabled = False
    with tracer.span("unrecorded") as s:
        pass
    assert s.dur >= 0 and len(tracer.spans) == 4 and outer.dur > 0


# -- a wrong output fails the run -------------------------------------------------


def assert_failed(result):
    assert result["end_to_end"]["failed_ops_share"] > 0
    assert run.exit_code(result) > 0
    assert run.driver_line(result)["correct"] is False
    assert result["failures"]


def test_corrupt_reference_digest_fails(monkeypatch):
    import sim_workloads

    monkeypatch.setattr(sim_workloads, "DAXPY_REPS", 2)

    def tamper(workload):
        workload.reference[0].digest = "0" * 64

    assert_failed(run.run(args_for("stream_steady"), tamper))


def test_child_exit_code_fails():
    def tamper(workload):
        workload.commands["table1"] = ["no-such-subcommand"]

    assert_failed(run.run(args_for("cli_cold"), tamper))


def test_flipped_frame_byte_fails():
    def tamper(workload):
        frame = bytearray(workload.frames[3])
        frame[len(frame) // 2] ^= 0x01
        workload.frames[3] = bytes(frame)

    result = run.run(args_for("state_plane"), tamper)
    assert_failed(result)
    assert any("nacked" in f for f in result["failures"])


def test_missing_package_exits_nonzero(tmp_path):
    argv = [sys.executable, os.path.join(E2E, "run.py"), "--workload", "stream_steady",
            "--src", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode != 0 and done.stdout == ""


# -- determinism -----------------------------------------------------------------


def test_same_seed_same_counts(traced, tmp_path):
    _code, first, _result, _tmp = traced["kernel_mix"]
    _code, second, _result = run_cli(tmp_path, "kernel_mix", trace=1, ops=2)
    exact = [m.name for m in spec.TRACED if m.unit in EXACT_UNITS]
    assert "sim_cycles" in exact
    for name in exact + ["sim_speedup", "cpu.tracejit.coverage_pct"]:
        assert first["metrics"][name] == second["metrics"][name], name


def test_seed_picks_the_kernels(tmp_path):
    from sim_workloads import MIX_KERNEL_BUDGET, draw_kernels, kernel_cost, sized

    assert draw_kernels(1) == draw_kernels(1)
    assert draw_kernels(1) != draw_kernels(2)
    for seed in range(1, 30):
        for drawn in draw_kernels(seed):
            kernel = sized(drawn)
            # the drawn shape survives: same kernel, same line sharing
            assert (kernel.chunk % 16 == 0) == (drawn.chunk % 16 == 0)
            assert kernel.loop_class == drawn.loop_class
            assert 0.65 <= kernel.reps * kernel_cost(kernel) / MIX_KERNEL_BUDGET <= 1.35
    a = run_cli(tmp_path, "kernel_mix", seed=1)[2]["end_to_end"]
    b = run_cli(tmp_path, "kernel_mix", seed=2)[2]["end_to_end"]
    assert a["sim_cycles"] != b["sim_cycles"]


# -- the comparison rule -----------------------------------------------------------


def fake(workload, op_wall, noisy=False, **extra):
    e2e = {m.name: 1.0 for m in spec.END_TO_END if workload in m.workloads}
    e2e.update(failed_ops_share=0.0, op_wall_s=op_wall)
    e2e.update(extra)
    return {"schema": run.SCHEMA, "workload": workload, "trace": 0, "noisy": noisy,
            "end_to_end": e2e}


def verdict(rows, metric):
    return next(r["verdict"] for r in rows if r["metric"] == metric)


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def side(walls, **kw):
        return {f"state_plane-{i:02d}.json": fake("state_plane", w, **kw)
                for i, w in enumerate(walls)}

    def rows(a, b):
        paired, alone = compare.pair_up(a, b)
        assert not alone
        return compare.compare(paired)

    a = side(steady)
    assert verdict(rows(a, side([w * 0.8 for w in steady])), "op_wall_s") == "improved"
    assert verdict(rows(a, side([w * 1.4 for w in steady])), "op_wall_s") == "regressed"
    assert verdict(rows(a, side([w * 1.05 for w in steady])), "op_wall_s") == "unchanged"
    wild = [0.7, 1.3, 0.8, 1.25, 0.75, 1.2, 0.9, 1.3, 0.7, 1.1]
    assert verdict(rows(a, side(wild)), "op_wall_s").startswith("unresolved")
    noisy = rows(a, side([w * 0.8 for w in steady], noisy=True))
    assert verdict(noisy, "op_wall_s") == "unresolved (noisy host)"
    # one noisy run costs its pair, not the row
    mostly = side([w * 0.8 for w in steady])
    mostly["state_plane-00.json"] = fake("state_plane", 5.0, noisy=True)
    judged = rows(a, mostly)
    assert verdict(judged, "op_wall_s") == "improved"
    assert judged[0]["dropped"] == 1 and judged[0]["n"] == (9, 9)
    assert verdict(rows(a, a), "failed_ops_share") == "same"
    broken = side(steady, failed_ops_share=0.1)
    assert verdict(rows(a, broken), "failed_ops_share") == "differs"


def test_compare_pairs_by_file_name(tmp_path):
    """A run that left no file costs its pair; it does not shift the others."""
    for side, scale in (("A", 1.0), ("B", 2.0)):
        (tmp_path / side).mkdir()
        for pair in range(4):
            if (side, pair) != ("A", 1):
                (tmp_path / side / f"state_plane-{pair:02d}.json").write_text(
                    json.dumps(fake("state_plane", scale * (1 + pair))))
    paired, alone = compare.pair_up(
        compare.load(str(tmp_path / "A")), compare.load(str(tmp_path / "B")))
    assert alone == ["state_plane-01.json"]
    walls = [(ra["end_to_end"]["op_wall_s"], rb["end_to_end"]["op_wall_s"])
             for ra, rb in paired["state_plane"]]
    assert walls == [(1.0, 2.0), (3.0, 6.0), (4.0, 8.0)]
    # --ab refuses to mix its runs with files that are already there
    with pytest.raises(SystemExit, match="not empty"):
        compare.main(["--ab", ROOT, ROOT, "--pairs", "1", "--out-dir", str(tmp_path)])


def test_noise_guard_is_relative():
    """Steady spins are calm at any host speed; jumping ones are noisy."""
    import host

    steady = [0.040, 0.041, 0.039, 0.040, 0.042, 0.040]
    assert host.spread(steady) < host.NOISE_SPREAD_LIMIT
    assert host.spread([3 * s for s in steady]) == pytest.approx(host.spread(steady))
    assert host.spread([0.040, 0.075, 0.041, 0.080, 0.039, 0.070]) > host.NOISE_SPREAD_LIMIT
