"""Golden replays of the sweep subcommands' reports.

``tests/golden/cli/*.txt`` hold the command line, exit code and stdout
of one small invocation of every sweep subcommand, captured at the
commit *before* the harnesses moved onto :mod:`repro.scenario`.  Each
must replay byte-identically — and at any ``--jobs``, which is the
determinism contract of :func:`repro.parallel.run_tasks`.
``disasm_daxpy.txt`` (captured before the disassembler became a walk
over ``isa.instructions.SYNTAX``) pins the printer's bytes the same way.
"""

from __future__ import annotations

import pathlib
import shlex

import pytest

from repro.cli import main

GOLDENS = sorted((pathlib.Path(__file__).parent / "golden" / "cli").glob("*.txt"))


def _cases():
    for path in GOLDENS:
        command, _exit, _stdout = path.read_text().split("\n", 2)
        # warm and disasm have no --jobs
        jobs = (None,) if command.split()[2] in ("warm", "disasm") else (1, 2)
        for n in jobs:
            yield pytest.param(path, n, id=f"{path.stem}-jobs{n or 1}")


def test_every_sweep_subcommand_has_a_golden():
    assert {p.stem for p in GOLDENS} == {
        "validate", "chaos", "recovery", "overload",
        "fleet_clean", "fleet_faulted", "fuzz", "warm",
        "disasm_daxpy",     # not a sweep: the printer's bytes
    }


@pytest.mark.parametrize("path, jobs", _cases())
def test_report_replays_byte_identical(path, jobs, capsys):
    command, exit_line, stdout = path.read_text().split("\n", 2)
    argv = shlex.split(command)[2:]          # drop the "$ repro" prompt
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    rc = main(argv)
    assert f"exit {rc}" == exit_line
    assert capsys.readouterr().out == stdout
