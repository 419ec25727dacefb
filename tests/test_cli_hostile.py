"""Hostile input at the CLI boundary: one table, one contract.

Every row — a numeric flag outside its range, an unknown name, a junk
``REPRO_*`` value, an unreadable file — must make ``main()`` return 2
with exactly one stderr line starting ``repro: error:`` and never a
traceback.  Range rows are generated from the parser's own range table
(every ranged flag of every subcommand, below and above); the explicit
rows carry the message substrings the CLI has promised so far, plus the
inputs that used to escape as tracebacks or run vacuously.  A hostile
*stdout* — the reader gone, the device full — needs a real file
descriptor, so those rows run in a subprocess (the second table).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.bench import BENCH_SCHEMA
from repro.cli import _parser, main
from repro.config import ENV_VARS

#: positional arguments a subcommand needs before its flags parse
POSITIONALS = {"npb": ["cg"], "disasm": ["daxpy"]}


def _range_rows():
    parser = _parser()
    subcommands = parser._subparsers._group_actions[0].choices
    for flag, _dest, lo, _hi in parser.ranges:
        yield [flag, str(lo - 1), "table1"], {}, f"{flag} must be >= {lo}, got {lo - 1}"
    for command, sub in subcommands.items():
        base = [command] + POSITIONALS.get(command, [])
        for flag, _dest, lo, hi in sub.ranges:
            want = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            yield base + [flag, str(lo - 1)], {}, f"{flag} must be {want}, got {lo - 1}"
            if hi is not None:
                yield base + [flag, str(hi + 1)], {}, f"{flag} must be {want}, got {hi + 1}"


#: (argv, env, substring the one error line must contain)
EXPLICIT = [
    # -- unknown names ------------------------------------------------------
    (["daxpy", "--strategy", "frobnicate"], {}, "unknown strategy 'frobnicate'"),
    (["npb", "cg", "--strategy", "nope"], {}, "unknown strategy 'nope'"),
    (["validate", "--workloads", "daxpy", "--strategies", "bogus"], {},
     "unknown strategy 'bogus'"),
    (["bench", "--strategies", "bogus"], {}, "unknown strategy 'bogus'"),
    (["bench", "--benchmarks", "nope"], {}, "unknown benchmark 'nope'"),
    (["chaos", "--strategies", "bogus"], {}, "unknown strategy 'bogus'"),
    (["recovery", "--strategy", "bogus"], {}, "unknown strategy 'bogus'"),
    (["warm", "--strategy", "nope"], {}, "unknown strategy 'nope'"),
    (["warm", "--workloads", "nope"], {}, "unknown benchmark 'nope'"),
    (["overload", "--schedules", "nope"], {}, "unknown schedule 'nope'"),
    (["disasm", "nope"], {}, "unknown kernel 'nope'"),
    (["validate", "--workloads", "nope"], {}, "unknown workload 'nope'"),
    (["validate", "--workloads", "daxpy", "nope"], {}, "unknown workload 'nope'"),
    (["chaos", "--workloads", "nope"], {}, "unknown workload 'nope'"),
    (["overload", "--workloads", "nope"], {}, "unknown workload 'nope'"),
    (["recovery", "--workloads", "nope"], {}, "unknown workload 'nope'"),
    (["fleet", "--workload", "nope"], {}, "unknown workload 'nope'"),
    # -- flags the range table already promised messages for ------------------
    (["fuzz", "--seeds", "1", "--jobs", "0"], {}, "--jobs must be >= 1"),
    (["overload", "--jobs", "0"], {}, "--jobs must be >= 1"),
    (["fuzz", "--replay", "3", "--fault-seed", "-1"], {}, "--fault-seed must be >= 0"),
    (["fuzz", "--seeds", "0"], {}, "--seeds must be >= 1"),
    (["recovery", "--stride", "0"], {}, "--stride must be >= 1"),
    (["recovery", "--torn-bytes", "-1"], {}, "--torn-bytes must be >= 0"),
    (["fleet", "--instances", "0"], {}, "--instances must be >= 1"),
    (["fleet", "--quorum", "-1"], {}, "--quorum must be >= 0"),
    (["fleet", "--fault-seed", "-1"], {}, "--fault-seed must be >= 0"),
    (["fleet", "--flush-interval", "0"], {}, "--flush-interval must be >= 1"),
    (["daxpy", "--trace-cache-budget", "0"], {}, "--trace-cache-budget must be >= 1"),
    (["daxpy", "--overload-seed", "-1"], {}, "--overload-seed must be >= 0"),
    (["overload", "--seed", "-1"], {}, "--seed must be >= 0"),
    (["overload", "--runs", "0"], {}, "--runs must be >= 1"),
    (["warm", "--min-reduction", "150"], {}, "--min-reduction must be in [0, 100]"),
    # -- flag combinations ----------------------------------------------------
    (["fuzz", "--seeds", "1", "--fault-seed", "7"], {}, "--fault-seed requires --replay"),
    (["fleet", "--instances", "2", "--quorum", "3"], {}, "quorum 3 exceeds --instances 2"),
    (["daxpy", "--checkpoint-dir", "{tmp}/c", "--strategy", "baseline"], {},
     "--checkpoint-dir requires a COBRA strategy"),
    (["daxpy", "--profile-db", "{tmp}/p.db", "--strategy", "baseline"], {},
     "--profile-db requires a COBRA strategy"),
    (["daxpy", "--strategy", "baseline", "--trace-cache-budget", "96"], {},
     "require a COBRA strategy"),
    # -- files and directories -------------------------------------------------
    (["daxpy", "--profile-db", "{tmp}"], {}, "--profile-db must name a database file"),
    (["resume", "--checkpoint-dir", "{tmp}/nope"], {}, "no checkpoint directory"),
    (["resume", "--checkpoint-dir", "{tmp}"], {}, "no resumable checkpoint"),
    (["fuzz", "--corpus", "{tmp}/nope.json"], {}, "bad corpus"),
    (["fuzz", "--corpus", "{tmp}/seed-only.json"], {}, "bad corpus"),
    (["bench", "--compare", "{tmp}/nope.json"], {}, "bad baseline report"),
    (["bench", "--compare", "{tmp}/not-json.txt"], {}, "bad baseline report"),
    (["bench", "--compare", "{tmp}/no-cycles.json"], {}, "sim_cycles"),
    # an unwritable target is refused before the sweep runs, not after
    (["bench", "--out", "/proc/nope/x.json"], {}, "cannot write '/proc/nope/x.json'"),
    (["fuzz", "--seeds", "1", "--out", "/proc/nope/x.json"], {}, "cannot write"),
    (["fleet", "--instances", "2", "--out", "/proc/nope/x.json"], {}, "cannot write"),
    (["recovery", "--ledger-out", "/proc/nope/x.json"], {}, "cannot write"),
    (["bench", "--out", "{tmp}"], {}, "Is a directory"),
    (["daxpy", "--checkpoint-dir", "/proc/nope/ck"], {}, "cannot write '/proc/nope/ck'"),
    (["npb", "cg", "--checkpoint-dir", "/proc/nope/ck"], {}, "cannot write"),
    (["daxpy", "--profile-db", "/proc/nope/p.db"], {}, "cannot write '/proc/nope'"),
    # -- environment -------------------------------------------------------------
    (["table1"], {"REPRO_FAULTS": "-3"},
     "REPRO_FAULTS must be a non-negative integer seed, got '-3'"),
    (["table1"], {"REPRO_FAULTS": "lots"}, "'lots'"),
    (["table1"], {"REPRO_CHECKPOINT": "{tmp}/not-json.txt"},
     "REPRO_CHECKPOINT must name a checkpoint directory"),
    (["daxpy"], {"REPRO_CHECKPOINT": "/proc/nope/ck"}, "cannot write '/proc/nope/ck'"),
    (["daxpy"], {"REPRO_PROFILE_DB": "/proc/nope/p.db"}, "cannot write '/proc/nope'"),
    (["table1"], {"REPRO_TRACE_JIT": "yes"},
     "REPRO_TRACE_JIT must be '0', '1' or 'osr-off', got 'yes'"),
    (["table1"], {"REPRO_TRACE_JIT": "2"}, "'2'"),
    (["table1"], {"REPRO_TRACE_JIT": "osr_off"}, "'osr_off'"),
    (["table1"], {"REPRO_PROFILE_DB": "{tmp}"},
     "REPRO_PROFILE_DB must name a profile-database file"),
    (["table1"], {"REPRO_GOVERNOR": "on"}, "REPRO_GOVERNOR must be '0' or '1', got 'on'"),
    (["fleet", "--instances", "2"], {"REPRO_FLEET_QUORUM": "two"},
     "REPRO_FLEET_QUORUM must be a positive integer, got 'two'"),
    (["daxpy"], {"REPRO_VALIDATE": "bogus"},
     "REPRO_VALIDATE must be 'off', 'record' or 'strict', got 'bogus'"),
    # -- used to be tracebacks or vacuous runs --------------------------------------
    (["--scale", "0", "table1"], {}, "--scale must be >= 1, got 0"),
    (["--scale", "3", "table1"], {}, "cannot scale cache"),
    (["daxpy", "--reps", "0"], {}, "--reps must be >= 1, got 0"),
    (["recovery", "--reps", "0"], {}, "--reps must be >= 1, got 0"),
    (["validate", "--threads", "0"], {}, "--threads must be >= 1, got 0"),
    (["overload", "--threads", "0"], {}, "--threads must be >= 1, got 0"),
    (["fleet", "--threads", "0"], {}, "--threads must be >= 1, got 0"),
    (["daxpy", "--threads", "99"], {}, "working set too small"),
    (["chaos", "--seed", "-1"], {}, "--seed must be >= 0, got -1"),
    (["fuzz", "--start", "-1"], {}, "--start must be >= 0, got -1"),
    (["chaos", "--workloads", "daxpy", "--runs", "0"], {}, "--runs must be >= 1, got 0"),
    (["chaos", "--sample-rate", "7"], {}, "sample_rate"),
    (["chaos", "--patch-rate", "-0.1"], {}, "patch_rate"),
    (["chaos", "--loop-rate", "1.5"], {}, "loop_rate"),
]


def _ids(rows):
    return [
        " ".join(argv) + "".join(f" {k}={v!r}" for k, v in env.items())
        for argv, env, _needle in rows
    ]


ROWS = EXPLICIT + list(_range_rows())


@pytest.fixture
def hostile_files(tmp_path):
    (tmp_path / "not-json.txt").write_text("not json at all")
    (tmp_path / "seed-only.json").write_text('{"entries": [{"seed": 1}]}')
    (tmp_path / "no-cycles.json").write_text(json.dumps({
        "schema": BENCH_SCHEMA,
        "cases": [{"id": "smp4/daxpy/none", "digest": "0" * 64}],
    }))
    return tmp_path


@pytest.mark.parametrize("argv, env, needle", ROWS, ids=_ids(ROWS))
def test_hostile_input_is_one_error_line(
    argv, env, needle, hostile_files, monkeypatch, capsys
):
    tmp = str(hostile_files)
    for name, value in env.items():
        monkeypatch.setenv(name, value.replace("{tmp}", tmp))
    rc = main([arg.replace("{tmp}", tmp) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert needle in captured.err


def test_every_env_var_has_a_junk_row():
    assert {name for _argv, env, _needle in EXPLICIT for name in env} == set(ENV_VARS)


def test_every_numeric_flag_has_a_range_or_a_library_check():
    """No int/float flag may reach a command unchecked: it is either in
    the range table or one of the rates FaultConfig validates."""
    parser = _parser()
    library_checked = {"--sample-rate", "--patch-rate", "--loop-rate"}
    for command, sub in parser._subparsers._group_actions[0].choices.items():
        ranged = {flag for flag, *_ in sub.ranges}
        for action in sub._actions:
            if action.type in (int, float):
                flag = action.option_strings[0]
                assert flag in ranged | library_checked, f"{command} {flag}"


#: (argv, what stdout is, exit code, stderr): a reader that left
#: (``repro table1 | head -1``) ends the command silently, any other
#: failure to write the report is the one error line.
STDOUT_ROWS = [
    (["table1"], "closed pipe", 1, ""),
    (["disasm", "daxpy"], "closed pipe", 1, ""),
    (["table1"], "/dev/full", 2, "repro: error: [Errno 28] No space left on device\n"),
    (["disasm", "daxpy"], "/dev/full", 2,
     "repro: error: [Errno 28] No space left on device\n"),
]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, stdout, code, stderr", STDOUT_ROWS,
    ids=[f"{' '.join(row[0])} > {row[1]}" for row in STDOUT_ROWS],
)
def test_hostile_stdout_is_never_a_traceback(
    argv, stdout, code, stderr, unbuffered, child_env
):
    """Unbuffered, the failing write is a ``print`` inside the command;
    buffered, it is the flush at the end of ``main`` — and whatever is
    still buffered then must not fail interpreter shutdown a second time
    (that would be exit code 120 and an ``Exception ignored`` block)."""
    if stdout == "/dev/full" and not os.path.exists(stdout):
        pytest.skip("no /dev/full on this platform")
    if stdout == "closed pipe":
        reader, fd = os.pipe()
        os.close(reader)         # the reader left before the command started
    else:
        fd = os.open(stdout, os.O_WRONLY)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], stdout=fd,
            stderr=subprocess.PIPE, text=True, timeout=120,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(fd)
    assert (done.returncode, done.stderr) == (code, stderr)
