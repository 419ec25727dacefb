"""Command-line interface."""

import shutil

import pytest

from repro.cli import main
from repro.persist import FileDisk, JournalWriter, SnapshotStore, decode_snapshot, recover


class TestCli:
    def test_daxpy_adaptive(self, capsys):
        rc = main(["--scale", "4", "daxpy", "--reps", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified:        True" in out
        assert "COBRA strategy=adaptive" in out

    def test_daxpy_baseline(self, capsys):
        rc = main(["--scale", "4", "daxpy", "--strategy", "baseline", "--reps", "4"])
        out = capsys.readouterr().out
        assert rc == 0 and "coherent ratio" in out and "COBRA" not in out

    def test_npb_run(self, capsys):
        rc = main(["npb", "ep", "--strategy", "baseline"])
        out = capsys.readouterr().out
        assert rc == 0 and "verified:        True" in out

    def test_table1(self, capsys):
        rc = main(["table1"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("bt", "sp", "lu", "ft", "mg", "cg", "ep", "is"):
            assert name in out

    def test_disasm_daxpy(self, capsys):
        rc = main(["disasm", "daxpy"])
        out = capsys.readouterr().out
        assert rc == 0 and "lfetch.nt1" in out and "br.ctop" in out

    def test_disasm_unknown(self, capsys):
        assert main(["disasm", "nope"]) == 2

    def test_npb_unknown_benchmark_keeps_its_invalid_choice_text(self, capsys):
        """The choices come from the lazy registry's names, sorted, as
        they came from the eager one's."""
        with pytest.raises(SystemExit) as exit_:
            main(["npb", "nope"])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert "{bt,cg,ep,ft,is,lu,mg,sp}" in err
        assert "argument benchmark: invalid choice: 'nope' (choose from " in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_chaos_daxpy(self, capsys):
        """The faulted row over a named workload, one cell per fault seed."""
        rc = main([
            "fuzz", "--workloads", "daxpy", "--start", "3", "--seeds", "2",
            "--reps", "3", "--axes", "faulted",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fuzz[daxpy-n512-t4-r3 on smp4]" in out
        assert "faulted/adaptive/seed=3" in out and "faulted/adaptive/seed=4" in out
        assert "0 divergence(s), OK" in out

    def test_removed_sweep_subcommands_are_one_error_line(self, capsys):
        for command in ("validate", "chaos", "overload", "recovery", "fleet", "warm"):
            assert main([command, "--workloads", "daxpy"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"repro: error: invalid choice: '{command}'")


class TestStrategyValidation:
    """Unknown strategy names are rejected at the CLI boundary with a
    one-line error and exit code 2 — never a raw traceback."""

    def test_daxpy_unknown_strategy(self, capsys):
        rc = main(["daxpy", "--strategy", "frobnicate"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "unknown strategy 'frobnicate'" in err
        for name in ("baseline", "noprefetch", "excl", "adaptive"):
            assert name in err

    def test_npb_unknown_strategy(self, capsys):
        rc = main(["npb", "cg", "--strategy", "nope"])
        err = capsys.readouterr().err
        assert rc == 2 and "unknown strategy 'nope'" in err

    def test_validate_strategy_subset(self, capsys):
        # "none" is added automatically: every strategy row diffs against it
        rc = main([
            "fuzz", "--workloads", "daxpy", "--reps", "1", "--axes", "excl",
        ])
        out = capsys.readouterr().out
        assert rc == 0 and "0 divergence(s), OK" in out
        assert "2 run(s)" in out and "    none " in out and "    excl " in out


class TestEnvValidation:
    """Malformed REPRO_* overrides die with one-line errors, exit 2."""

    def test_negative_repro_faults_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "-3")
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "REPRO_FAULTS must be a non-negative integer seed, got '-3'" in err

    def test_non_integer_repro_faults(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "lots")
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2 and "REPRO_FAULTS" in err and "'lots'" in err

    def test_repro_checkpoint_must_be_a_directory(self, capsys, monkeypatch, tmp_path):
        not_a_dir = tmp_path / "file.txt"
        not_a_dir.write_text("x")
        monkeypatch.setenv("REPRO_CHECKPOINT", str(not_a_dir))
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "REPRO_CHECKPOINT must name a checkpoint directory" in err

    def test_valid_env_passes_through(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "0")
        assert main(["table1"]) == 0

    def test_malformed_trace_jit(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_JIT", "yes")
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "REPRO_TRACE_JIT must be '0', '1' or 'osr-off', got 'yes'" in err

    def test_trace_jit_rejects_stray_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_JIT", "2")
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2 and "REPRO_TRACE_JIT" in err and "'2'" in err

    def test_trace_jit_rejects_osr_off_typo(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_JIT", "osr_off")
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2 and "'osr_off'" in err

    @pytest.mark.parametrize("value", ["0", "1", "", " 1 ", "osr-off"])
    def test_trace_jit_accepts_valid_values(self, capsys, monkeypatch, value):
        # unset/empty means "default on" (mirrors REPRO_FAULTS handling)
        monkeypatch.setenv("REPRO_TRACE_JIT", value)
        assert main(["table1"]) == 0


class TestCheckpointCli:
    def test_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        rc = main([
            "--scale", "4", "daxpy", "--checkpoint-dir", ckpt,
            "--strategy", "noprefetch", "--reps", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "persistence:" in out and "verified:        True" in out

        rc = main(["resume", "--checkpoint-dir", ckpt])
        out = capsys.readouterr().out
        assert rc == 0
        assert "warm restart: resumed from checkpoint" in out
        assert "verified:        True" in out

    def test_checkpoint_requires_cobra_strategy(self, capsys, tmp_path):
        rc = main([
            "daxpy", "--checkpoint-dir", str(tmp_path / "c"),
            "--strategy", "baseline",
        ])
        err = capsys.readouterr().err
        assert rc == 2 and "--checkpoint-dir requires a COBRA strategy" in err

    def test_resume_missing_directory(self, capsys, tmp_path):
        rc = main(["resume", "--checkpoint-dir", str(tmp_path / "nope")])
        err = capsys.readouterr().err
        assert rc == 2 and "no checkpoint directory" in err

    def test_resume_empty_store(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["resume", "--checkpoint-dir", str(empty)])
        err = capsys.readouterr().err
        assert rc == 2 and "no resumable checkpoint" in err


class TestMalformedCheckpoint:
    """A CRC-valid ``window`` record whose state is malformed: ``resume``
    ends in one ``repro: error:`` line naming the field, exit 2."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        ckpt = str(tmp_path_factory.mktemp("ckpt") / "ckpt")
        assert main([
            "--scale", "4", "daxpy", "--checkpoint-dir", ckpt,
            "--strategy", "noprefetch", "--reps", "4",
        ]) == 0
        return ckpt

    @pytest.mark.parametrize(
        "damage, path",
        [
            (lambda s: s["profiler"].update(btb=5), "profiler.btb"),
            (lambda s: s.update(cpi_history=5), "cpi_history"),
            (lambda s: s.update(blacklist=[[1]]), "blacklist[0]"),
            (lambda s: s.update(mode=7), "mode"),
            (lambda s: s.update(fault_strikes="x"), "fault_strikes"),
            (lambda s: s.update(events=[[1]]), "events[0]"),
            (lambda s: s.update(deployments=[{"head": 1}]), "deployments[0].back_branch"),
            (lambda s: s.update(samples_per_cpu=[]), "samples_per_cpu"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_resume_names_the_field(self, capsys, tmp_path, checkpoint, damage, path):
        assert f" {path}: expected " in self._resume_error(capsys, tmp_path, checkpoint, damage)

    @pytest.mark.parametrize("key", ["01", " 2", "1_0", "+1", "-0"])
    def test_resume_names_a_non_canonical_cpu_key(self, capsys, tmp_path, checkpoint, key):
        err = self._resume_error(
            capsys, tmp_path, checkpoint,
            lambda s: s["samples_per_cpu"].update({key: 5}),
        )
        assert err.endswith(f" samples_per_cpu[{key}]: bad key {key!r}\n")

    @staticmethod
    def _resume_error(capsys, tmp_path, checkpoint, damage) -> str:
        """The one error line of a resume whose newest window state is
        the checkpoint's, with ``damage`` done to it."""
        ckpt = str(tmp_path / "ckpt")
        shutil.copytree(checkpoint, ckpt)
        capsys.readouterr()
        recovered = recover(FileDisk(ckpt))
        state = recovered.state
        damage(state)
        JournalWriter(FileDisk(ckpt), next_seq=recovered.next_seq).append(
            "window", {"state": state}
        )
        assert main(["resume", "--checkpoint-dir", ckpt]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro: error: ")
        return err


    @pytest.mark.parametrize("journal_seq", ["7", None, [], {}, 1.5])
    def test_resume_past_a_malformed_snapshot_envelope(
        self, capsys, tmp_path, checkpoint, journal_seq
    ):
        """A digest-valid newest snapshot with a bad ``journal_seq`` is
        noted as corrupt and passed over, never a traceback."""
        ckpt = str(tmp_path / "ckpt")
        shutil.copytree(checkpoint, ckpt)
        store = SnapshotStore(FileDisk(ckpt))
        newest = store.versions()[-1]
        payload = decode_snapshot(store.disk.read(store.name_for(newest)))
        store.write(newest, {**payload, "journal_seq": journal_seq})
        capsys.readouterr()
        assert main(["resume", "--checkpoint-dir", ckpt]) == 0
        assert recover(FileDisk(ckpt)).snapshot_version > newest
        assert "verified:        True" in capsys.readouterr().out


class TestProfileDBCli:
    def test_second_run_warm_starts_from_the_database(self, capsys, tmp_path):
        db = str(tmp_path / "daxpy.profile.db")
        args = [
            "--scale", "4", "daxpy", "--profile-db", db,
            "--strategy", "noprefetch", "--reps", "10",
        ]
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0
        assert "profile-db: miss" in out and "verified:        True" in out

        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0
        assert "profile-db: hit" in out
        assert "warm at 0 retired" in out
        assert "verified:        True" in out

    def test_profile_db_rejects_directory(self, capsys, tmp_path):
        rc = main(["daxpy", "--profile-db", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "--profile-db must name a database file" in err

    def test_profile_db_requires_cobra_strategy(self, capsys, tmp_path):
        rc = main([
            "daxpy", "--profile-db", str(tmp_path / "p.db"),
            "--strategy", "baseline",
        ])
        err = capsys.readouterr().err
        assert rc == 2 and "--profile-db requires a COBRA strategy" in err

    def test_env_override_rejects_directory(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_DB", str(tmp_path))
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "REPRO_PROFILE_DB must name a profile-database file" in err

    def test_env_override_attaches_the_database(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_DB", str(tmp_path / "env.profile.db"))
        rc = main(["--scale", "4", "daxpy", "--strategy", "noprefetch",
                   "--reps", "4"])
        out = capsys.readouterr().out
        assert rc == 0 and "profile-db: miss" in out


class TestFuzzCli:
    """Argument validation plus a tiny smoke sweep — the full sweep and
    the planted-divergence path live in tests/fuzz/."""

    def test_bad_jobs(self, capsys):
        rc = main(["fuzz", "--seeds", "1", "--jobs", "0"])
        err = capsys.readouterr().err
        assert rc == 2 and "--jobs must be >= 1" in err

    def test_fault_seed_requires_replay(self, capsys):
        rc = main(["fuzz", "--seeds", "1", "--fault-seed", "7"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1
        assert "--fault-seed requires --replay" in err

    def test_negative_fault_seed(self, capsys):
        rc = main(["fuzz", "--replay", "3", "--fault-seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 2 and "--fault-seed must be >= 0" in err

    def test_bad_seed_count(self, capsys):
        rc = main(["fuzz", "--seeds", "0"])
        err = capsys.readouterr().err
        assert rc == 2 and "--seeds must be >= 1" in err

    def test_bad_stride(self, capsys):
        rc = main(["fuzz", "--stride", "0"])
        err = capsys.readouterr().err
        assert rc == 2 and "--stride must be >= 1" in err

    def test_missing_corpus(self, capsys, tmp_path):
        rc = main(["fuzz", "--corpus", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert rc == 2 and "bad corpus" in err

    def test_malformed_corpus(self, capsys, tmp_path):
        bad = tmp_path / "corpus.json"
        bad.write_text('{"entries": [{"seed": 1}]}')
        rc = main(["fuzz", "--corpus", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2 and "bad corpus" in err

    def test_smoke_sweep(self, capsys):
        rc = main(["fuzz", "--seeds", "2", "--no-verbose"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fuzz: 2 scenario(s)" in out and "OK" in out

    def test_replay_single_seed(self, capsys):
        rc = main(["fuzz", "--replay", "3"])
        out = capsys.readouterr().out
        assert rc == 0 and "fuzz[seed=3]" in out

    def test_out_writes_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "report.json"
        rc = main(["fuzz", "--replay", "3", "--out", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["ok"] is True
        assert data["scenarios"][0]["seed"] == 3
        assert len(data["scenarios"][0]["digests"]) == 20


class TestGovernorCli:
    """Governor knobs: one-line exit-2 boundary errors, and the armed
    runs stay verified with a governor line in the summary."""

    def test_budget_arms_the_governor(self, capsys):
        rc = main(["--scale", "4", "daxpy", "--reps", "10",
                   "--trace-cache-budget", "96"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified:        True" in out
        assert "governor[" in out

    def test_overload_seed_stays_verified(self, capsys):
        rc = main(["--scale", "4", "daxpy", "--reps", "10",
                   "--overload-seed", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified:        True" in out
        assert "governor[" in out

    def test_governor_requires_cobra_strategy(self, capsys):
        rc = main(["daxpy", "--strategy", "baseline",
                   "--trace-cache-budget", "96"])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert "require a COBRA strategy" in err

    def test_bad_budget(self, capsys):
        rc = main(["daxpy", "--trace-cache-budget", "0"])
        err = capsys.readouterr().err
        assert rc == 2 and "--trace-cache-budget must be >= 1" in err

    def test_bad_overload_seed(self, capsys):
        rc = main(["daxpy", "--overload-seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 2 and "--overload-seed must be >= 0" in err

    def test_malformed_env_governor(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_GOVERNOR", "on")
        rc = main(["table1"])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert "REPRO_GOVERNOR must be '0' or '1', got 'on'" in err

    def test_env_governor_arms_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_GOVERNOR", "1")
        rc = main(["--scale", "4", "daxpy", "--reps", "4"])
        out = capsys.readouterr().out
        assert rc == 0 and "governor[" in out


class TestOverloadCli:
    """The overloaded row over a named workload: a smoke run."""

    def test_smoke_sweep(self, capsys):
        rc = main(["fuzz", "--workloads", "daxpy", "--seeds", "1", "--reps", "6",
                   "--axes", "overloaded"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overloaded/shrink/seed=0" in out and "0 divergence(s), OK" in out
