"""Perf harness: schema, determinism assertion, CLI smoke."""

import json

from repro.bench import (
    BENCH_SCHEMA,
    format_report,
    run_bench,
    run_case,
)
from repro.cli import main
from repro.scenario import ALL_STRATEGIES

CASE_KEYS = {
    "id", "benchmark", "machine", "strategy", "threads", "scale",
    "wall_s", "wall_s_median", "sim_cycles", "retired", "pmu_samples",
    "cycles_per_sec", "retired_per_sec", "samples_per_sec",
    "digest", "events", "fastpath",
}


class TestRunCase:
    def test_schema_and_metrics(self):
        case = run_case("daxpy", "smp4", "none", samples=1)
        assert set(case) == CASE_KEYS
        assert case["id"] == "smp4/daxpy/none"
        assert case["sim_cycles"] > 0 and case["retired"] > 0
        assert case["cycles_per_sec"] > 0
        assert len(case["digest"]) == 64
        assert case["events"]["loads"] > 0
        assert case["pmu_samples"] == 0  # raw simulator, no profiler

    def test_cobra_strategy_reports_pmu_samples(self):
        case = run_case("daxpy", "smp4", "adaptive", samples=1)
        assert case["pmu_samples"] > 0
        assert case["samples_per_sec"] > 0

    def test_samples_are_deterministic(self):
        # two timed samples of the same case must agree on digest and
        # counters (run_case raises otherwise)
        case = run_case("cg", "smp4", "excl", samples=2)
        assert len(case["wall_s"]) == 2


class TestRunBench:
    def test_quick_matrix(self):
        report = run_bench(
            benchmarks=("daxpy",), machines=("smp4",),
            strategies=("none", "adaptive"), samples=1, quick=True,
        )
        assert report["schema"] == BENCH_SCHEMA
        assert [c["strategy"] for c in report["cases"]] == ["none", "adaptive"]
        assert report["totals"]["sim_cycles"] > 0
        # the same workload bytes regardless of strategy
        digests = {c["digest"] for c in report["cases"]}
        assert len(digests) == 1
        table = format_report(report)
        assert "smp4/daxpy/none" in table and "smp4/daxpy/adaptive" in table

    def test_default_strategy_matrix(self):
        report = run_bench(
            benchmarks=("daxpy",), machines=("smp4",), samples=1, quick=True
        )
        assert tuple(c["strategy"] for c in report["cases"]) == ALL_STRATEGIES


class TestBenchCli:
    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        rc = main([
            "bench", "--quick", "--samples", "1", "--out", str(out),
            "--benchmarks", "daxpy", "--strategies", "none",
        ])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert f"wrote {out}" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["quick"] is True
        assert len(doc["cases"]) == 1


class TestRunFleetCase:
    def test_warm_half_skips_the_ramp(self):
        from repro.bench import run_fleet_case

        case = run_fleet_case(instances=4, jobs=2)
        assert case["ok"] and case["digests_match"]
        assert case["id"].startswith("fleet4/")
        assert case["published"] >= 1
        assert case["warm_seeded"]
        assert case["cold_ramp_retired"] > 0
        assert case["warm_ramp_retired"] == 0
        assert case["ramp_reduction_pct"] == 100.0
