"""Fidelity matrix: schema, determinism, the committed baseline, --compare."""

import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import figure_cells, render
from repro.bench import (
    BENCH_SCHEMA,
    FIG3_BENCHMARKS,
    FIG3_BINARIES,
    FIG3_THREADS,
    MATRIX_BENCHMARKS,
    compare_reports,
    format_report,
    run_bench,
    run_case,
)
from repro.cli import _json_text, main
from repro.config import env_value
from repro.cpu.tracejit import TraceJit, fastpath_stats
from repro.scenario import ALL_STRATEGIES, MACHINES

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_perf.json"

CASE_KEYS = {
    "id", "benchmark", "machine", "strategy", "threads", "scale",
    "sim_cycles", "retired", "pmu_samples", "digest", "events", "fastpath",
    "opt_events", "deployments",
}

#: What tier-1 replays: every ``smp4`` matrix row, Fig. 3's 128K working
#: set, and on ``altix8`` the three benchmarks the matrix held before /5.
#: CI replays all 83 cases (``repro bench --compare BENCH_perf.json``).
TIER1_SMP = (*MATRIX_BENCHMARKS, "daxpy-128K")
TIER1_ALTIX = ("daxpy", "cg", "mg")


def _dump(doc: dict) -> str:
    """The bytes ``repro bench --out`` writes."""
    return _json_text(doc) + "\n"


@pytest.fixture(scope="module")
def replayed() -> dict[str, dict]:
    """The tier-1 cases, run now: id -> case."""
    fresh = run_bench(TIER1_SMP, ("smp4",), jobs=2)["cases"]
    fresh += run_bench(TIER1_ALTIX, ("altix8",), jobs=2)["cases"]
    return {c["id"]: c for c in fresh}


def _moved_figure_cells(committed: dict, fresh: dict[str, dict]) -> list[str]:
    """Each rendered figure cell, or claim row, that reads differently
    once the replayed cases stand in for the committed ones."""
    cases = {c["id"]: c for c in committed["cases"]} | fresh
    before, after = render(committed), render({"cases": list(cases.values())})
    moved = []
    for figure in before:
        panel = columns = None
        for old, new in zip(before[figure].splitlines(), after[figure].splitlines()):
            if old.startswith("Figure"):
                panel, columns = old.split(" — ")[0], None
            elif old.startswith("working set"):
                panel, columns = f"Figure 3, {old.split(' (')[0]}", None
            elif columns is None:
                columns = old.split()
            elif figure == "claims" and old != new:
                moved.append(f"claim {old}\n   now {new}")
            elif old != new:
                label, *cells = old.split()
                moved += [
                    f"{panel}, {label} / {column}: {was} -> {now}"
                    for column, was, now in zip(columns[1:], cells, new.split()[1:])
                    if was != now
                ]
    return moved


class TestRunCase:
    def test_schema_and_metrics(self):
        case = run_case("daxpy", "smp4", "none")
        assert set(case) == CASE_KEYS
        assert case["id"] == "smp4/daxpy/none"
        assert case["sim_cycles"] > 0 and case["retired"] > 0
        assert len(case["digest"]) == 64
        assert case["events"]["loads"] > 0
        assert case["pmu_samples"] == 0  # raw simulator, no profiler
        assert case["opt_events"] == [] and case["deployments"] == []

    def test_cobra_strategy_reports_pmu_samples(self):
        case = run_case("daxpy", "smp4", "adaptive")
        assert case["pmu_samples"] > 0
        deploys = [row for row in case["opt_events"] if row[1] == "deploy"]
        assert deploys and all(len(row) == 5 for row in case["opt_events"])
        for head, optimization, n_rewrites in case["deployments"]:
            assert [head, optimization] in [row[2:4] for row in deploys]
            assert n_rewrites > 0

    def test_samples_are_deterministic(self, replayed):
        """A case run here matches the same case run in a worker process."""
        assert run_case("cg", "smp4", "excl") == replayed["smp4/cg/excl"]


class TestRunBench:
    def test_quick_matrix(self):
        report = run_bench(
            benchmarks=("daxpy",), machines=("smp4",),
            strategies=("none", "adaptive"),
        )
        assert set(report) == {"schema", "cases", "totals"}
        assert report["schema"] == BENCH_SCHEMA
        assert [c["strategy"] for c in report["cases"]] == ["none", "adaptive"]
        assert report["totals"]["sim_cycles"] > 0
        # the same workload bytes regardless of strategy
        digests = {c["digest"] for c in report["cases"]}
        assert len(digests) == 1
        table = format_report(report)
        assert "smp4/daxpy/none" in table and "smp4/daxpy/adaptive" in table

    def test_default_strategy_matrix(self):
        report = run_bench(benchmarks=("daxpy",), machines=("smp4",))
        assert tuple(c["strategy"] for c in report["cases"]) == ALL_STRATEGIES

    def test_committed_baseline_is_a_fresh_run(self, replayed):
        """BENCH_perf.json replays byte for byte (tier-1: 49 of 83 cases).

        It is regenerated (``repro bench --out BENCH_perf.json``) only
        by a change that *means* to move simulated behaviour.  CI also
        runs this file under ``REPRO_TRACE_JIT=osr-off``: architectural
        results do not depend on the JIT mode, only ``fastpath`` does.
        A failure names each paper figure cell the replay moved, then
        each field.
        """
        committed = json.loads(BASELINE.read_text())
        assert BASELINE.read_text() == _dump(committed)
        assert committed["schema"] == BENCH_SCHEMA
        assert [c["id"] for c in committed["cases"]] == [
            f"{m}/{b}/{s}"
            for m in MACHINES for b in MATRIX_BENCHMARKS for s in ALL_STRATEGIES
        ] + [
            f"smp4/{b}-t{t}/{s}"
            for b in FIG3_BENCHMARKS for t in FIG3_THREADS for s in FIG3_BINARIES
        ]
        assert len(committed["cases"]) == 83 and len(replayed) == 49
        fresh = {cid: dict(case) for cid, case in replayed.items()}
        if env_value("REPRO_TRACE_JIT") not in (None, "1"):
            for case in (*fresh.values(), *committed["cases"]):
                del case["fastpath"]
        by_id = {c["id"]: c for c in committed["cases"]}
        differs = [cid for cid, case in fresh.items() if _dump(case) != _dump(by_id[cid])]
        if differs:
            lines, _ok = compare_reports(committed, {"cases": list(fresh.values())})
            pytest.fail("\n".join([
                f"{len(differs)} replayed case(s) moved: {', '.join(differs)}",
                *_moved_figure_cells(committed, fresh),
                *(line for line in lines if line.startswith("  ")),
            ]))

    def test_fig7_tracks_fig6_on_the_replayed_smp4_cells(self, replayed):
        """Fig. 7 correlates with Fig. 6 (§5.2.3): "L3 misses are
        directly translated into memory transactions on the system bus"."""
        doc = {"cases": list(replayed.values())}
        l3, bus = (figure_cells(doc, f, "smp4")["noprefetch"] for f in "67")
        assert set(l3) == set(bus) == set(MATRIX_BENCHMARKS[1:])
        for name in l3:
            assert l3[name] < 1.0 and bus[name] < 1.0, name
            assert abs(bus[name] - l3[name]) < 0.15, name

    def test_readme_names_the_matrix(self):
        readme = (BASELINE.parent / "README.md").read_text()
        assert f"pinned {'/'.join(MATRIX_BENCHMARKS)} ×" in readme


class TestBenchCli:
    ARGV = ["bench", "--benchmarks", "daxpy", "--machines", "smp4",
            "--strategies", "none"]

    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        rc = main(self.ARGV + ["--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert f"wrote {out}" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert len(doc["cases"]) == 1
        assert out.read_text() == _dump(doc)

    def test_compare_leaves_the_baseline_alone(self, tmp_path, capsys, monkeypatch):
        # --out has no default: judging a run against the baseline
        # must not replace the baseline with that run
        monkeypatch.chdir(tmp_path)
        main(self.ARGV + ["--out", "BENCH_perf.json"])
        before = Path("BENCH_perf.json").read_bytes()
        rc = main(self.ARGV + ["--compare", "BENCH_perf.json"])
        stdout = capsys.readouterr().out
        assert rc == 0 and "bench compare: OK" in stdout
        assert os.listdir(tmp_path) == ["BENCH_perf.json"]
        assert Path("BENCH_perf.json").read_bytes() == before

    def test_compare_names_the_field_that_moved(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(self.ARGV + ["--out", str(baseline)])
        doc = json.loads(baseline.read_text())
        bus = doc["cases"][0]["events"]["bus_memory"]
        doc["cases"][0]["events"]["bus_memory"] = bus + 1
        doc["cases"][0]["fastpath"]["per_core"][2]["decodes"] = -1
        baseline.write_text(_dump(doc))
        capsys.readouterr()
        rc = main(self.ARGV + ["--compare", str(baseline)])
        stdout = capsys.readouterr().out
        assert rc == 1
        assert "smp4/daxpy/none" in stdout and "DIFFERS" in stdout
        assert f"events.bus_memory: {bus + 1} -> {bus}" in stdout
        assert "fastpath.per_core[2].decodes: -1 -> " in stdout
        assert stdout.count(" -> ") == 2
        assert "bench compare: FAIL" in stdout

    def test_compare_lets_host_work_counters_move(self, tmp_path, capsys):
        """Only ``tracejit.WORK_COUNTERS`` leaves moved: named, and passed."""
        baseline = tmp_path / "baseline.json"
        main(self.ARGV + ["--out", str(baseline)])
        doc = json.loads(baseline.read_text())
        fastpath = doc["cases"][0]["fastpath"]
        fastpath["entries"] += 7
        fastpath["deopts"]["budget"] += 1
        fastpath["per_core"][1]["tree_links"] += 2
        baseline.write_text(_dump(doc))
        capsys.readouterr()
        rc = main(self.ARGV + ["--compare", str(baseline)])
        stdout = capsys.readouterr().out
        assert rc == 0 and "bench compare: OK" in stdout
        assert "moved (work)" in stdout and "DIFFERS" not in stdout
        assert stdout.count(" -> ") == stdout.count("  (work)\n") == 3
        # one architectural leaf beside them fails the case as before
        fastpath["osr_entries"] += 1
        baseline.write_text(_dump(doc))
        rc = main(self.ARGV + ["--compare", str(baseline)])
        stdout = capsys.readouterr().out
        assert rc == 1 and "DIFFERS" in stdout and "moved (work)" not in stdout
        assert stdout.count(" -> ") == 4 and stdout.count("  (work)\n") == 3

    def test_compare_rejects_a_timing_era_baseline(self, tmp_path, capsys):
        old = tmp_path / "v3.json"
        old.write_text(json.dumps({
            "schema": "repro-bench-perf/3",
            "cases": [{"id": "smp4/daxpy/none", "digest": "0" * 64,
                       "sim_cycles": 1, "wall_s_median": 0.1}],
        }))
        rc = main(self.ARGV + ["--compare", str(old)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("repro: error: bad baseline report")
        assert "repro-bench-perf/3" in captured.err


class TestFastpathStats:
    def test_sums_every_int_valued_stats_key(self):
        """A counter added to ``TraceJit.stats()`` needs no aggregator edit."""

        class Jit(TraceJit):
            def stats(self):
                return {**super().stats(), "brand_new_counter": 7}

        def core(cpu_id):
            return SimpleNamespace(
                cpu_id=cpu_id, trace_jit=Jit(), bundles_executed=10,
                decode_cache=SimpleNamespace(decodes=5),
            )

        cores = [core(0), core(1)]
        cores[0].trace_jit.compiles = 3
        cores[1].trace_jit.compiles = 4
        totals = fastpath_stats(SimpleNamespace(cores=cores))
        assert totals["brand_new_counter"] == 14
        assert totals["compiles"] == 7
        int_keys = {k for k, v in TraceJit().stats().items() if isinstance(v, int)}
        assert int_keys < set(totals)
        assert totals["decode_cache_hit_pct"] == 50.0
        assert [c["cpu"] for c in totals["per_core"]] == [0, 1]
