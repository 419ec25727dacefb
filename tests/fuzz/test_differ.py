"""Differential axis sweep: clean scenarios pass, planted bugs are
caught, reported with a replayable (generator_seed, fault_seed) pair,
and shrink to a minimal kernel."""

import pytest

from repro.fuzz import DifferentialFuzzer, generate_params, run_scenario, shrink
from repro.fuzz.report import repro_command
from repro.isa.instructions import Instruction, Op

AXES = (
    "none", "adaptive", "jit-off", "osr-off", "faulted", "ckpt", "resume",
    "db-cold", "db-warm", "db-corrupt", "overloaded", "fleet-faulted",
)


class TestCleanSweep:
    def test_first_seeds_pass_all_axes(self):
        for seed in range(3):
            result = run_scenario(generate_params(seed))
            assert result.ok, result.divergences
            assert tuple(axis for axis, _ in result.digests) == AXES

    def test_ground_truth_digest_agrees_across_axes(self):
        result = run_scenario(generate_params(1))
        digests = dict(result.digests)
        assert (
            digests["none"] == digests["adaptive"]
            == digests["jit-off"] == digests["osr-off"]
        )

    def test_adaptive_axis_observes_sampling_and_jit(self):
        # at least one early seed must exercise both the HPM sampling
        # path and the trace JIT, or the sweep proves nothing
        results = [run_scenario(generate_params(s)) for s in range(4)]
        assert any(r.samples > 0 for r in results)
        assert any(r.compiles > 0 for r in results)


class TestParallelMerge:
    def test_reports_byte_identical_at_any_job_count(self):
        seeds = range(4)
        seq = DifferentialFuzzer(seeds=seeds).run(jobs=1)
        par = DifferentialFuzzer(seeds=seeds).run(jobs=2)
        assert seq.summary() == par.summary()
        assert seq.to_json() == par.to_json()


def _corrupting_rewrite(program, trace):
    """A broken ``noprefetch`` rewrite: instead of nopping the lfetch it
    stores zero through the prefetch pointer — silent data corruption
    that only the digest comparison can catch."""

    def rewrite(instr):
        if instr.op is Op.LFETCH:
            return Instruction(Op.ST8, r2=instr.r2, r3=0, imm=instr.imm, unit="M")
        return None

    return rewrite


@pytest.fixture
def planted_bug(monkeypatch):
    from repro.core.opts import REWRITES

    monkeypatch.setitem(REWRITES, "noprefetch", _corrupting_rewrite)


class TestPlantedDivergence:
    SEED = 12

    def test_divergence_detected_and_replayable(self, planted_bug):
        params = generate_params(self.SEED)
        result = run_scenario(params)
        assert not result.ok
        digest_axes = {
            d.axis for d in result.divergences if d.observable == "digest"
        }
        assert "adaptive vs none" in digest_axes

        # every divergence names the exact (generator_seed, fault_seed)
        # pair and a replay command that reconstructs it
        for d in result.divergences:
            assert (d.seed, d.fault_seed) == (params.seed, params.fault_seed)
            cmd = repro_command(d.seed, d.fault_seed)
            assert f"--replay {params.seed}" in cmd
            assert f"--fault-seed {params.fault_seed}" in cmd

        # replay from the printed pair ALONE: rebuild params from the two
        # integers and reproduce the same divergence set
        replayed = generate_params(params.seed, fault_seed=params.fault_seed)
        assert replayed == params
        again = run_scenario(replayed)
        assert again.divergences == result.divergences

    def test_shrinks_to_smaller_still_failing_kernel(self, planted_bug):
        params = generate_params(self.SEED)
        outcome = shrink(params, budget=24)
        assert outcome.reductions > 0
        shrunk = outcome.params
        assert shrunk.reps <= params.reps
        assert shrunk.chunk <= params.chunk
        assert not run_scenario(shrunk).ok

    def test_clean_run_after_fixture_teardown(self):
        # the monkeypatch must not leak: the same seed is clean again
        assert run_scenario(generate_params(self.SEED)).ok


class TestValueOracle:
    """Ground truth is checked by value, not only by agreement: a
    miscompile every axis shares is a ``value`` divergence on ``none``."""

    SEED = 31  # a three-term stream scenario

    def test_shared_miscompile_is_a_value_divergence(self, monkeypatch):
        from dataclasses import replace

        from repro.compiler.codegen import KernelCompiler
        from repro.fuzz import differ

        compile_ = KernelCompiler.compile

        def miscompile(self, template, plan):
            term = template.terms[0]
            wrong = replace(term, coef=term.coef * (1 + 1e-7))
            return compile_(self, replace(template, terms=(wrong, *template.terms[1:])), plan)

        monkeypatch.setattr(KernelCompiler, "compile", miscompile)
        monkeypatch.setattr(differ, "AXES", differ.AXES[:2])
        params = generate_params(self.SEED)
        assert params.loop_class == "stream"
        result = run_scenario(params)
        assert [(d.axis, d.observable) for d in result.divergences] == [("none", "value")]


class TestAxesTable:
    """``AXES`` is the single source of the sweep's shape and its docs."""

    NAMES = (
        "none", "adaptive", "jit-off", "osr-off", "faulted", "ckpt", "crash",
        "resume", "db-cold", "db-warm", "db-corrupt", "overloaded",
        "fleet-faulted",
    )

    def test_thirteen_axes_twelve_digest_labels_in_order(self):
        from repro.fuzz.differ import AXES as TABLE

        assert tuple(axis.name for axis in TABLE) == self.NAMES
        # the crash run dies by design and records no digest; the rest
        # are the labels every corpus entry's replay must produce
        assert tuple(a.name for a in TABLE if not a.crashes) == AXES

    def test_every_reference_and_dependency_runs_earlier(self):
        from repro.fuzz.differ import AXES as TABLE

        seen: set[str] = set()
        for axis in TABLE:
            assert axis.versus is None or axis.versus in seen, axis.name
            assert axis.needs is None or axis.needs in seen, axis.name
            seen.add(axis.name)

    def test_docs_name_every_axis(self):
        """Module docstring, ``repro fuzz`` help and the CI job comment
        are written against the table, not from memory."""
        import pathlib
        import re

        import repro.fuzz.differ as differ
        from repro.cli import _parser

        numbered = re.findall(r"^\s*(\d+)\. ``([\w-]+)``", differ.__doc__, re.M)
        assert [name for _n, name in numbered] == list(self.NAMES)
        assert [int(n) for n, _name in numbered] == list(range(1, 14))

        titles = [a.title or a.name for a in differ.AXES if a.name != "none"]
        subcommands = _parser()._subparsers._group_actions[0]
        fuzz_help = next(
            a.help for a in subcommands._choices_actions if a.dest == "fuzz"
        )
        ci = pathlib.Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml"
        ci_text = " ".join(ci.read_text().replace("#", " ").split())
        for title in titles:
            assert title in " ".join(fuzz_help.split()), title
            assert title in ci_text, title
