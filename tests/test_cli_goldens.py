"""Golden replays of the sweep subcommands' reports.

``tests/golden/cli/*.txt`` hold the command line, exit code and stdout
of one small invocation of every sweep subcommand.  ``validate``,
``chaos``, ``overload`` and ``recovery`` are the ``repro fuzz
--workloads daxpy`` invocations of the axis-table rows those four
subcommands became (the strategy rows, ``faulted``, ``overloaded``,
``crash``); the first three keep every cell's cycles and digest of
the subcommand's own golden, ``recovery`` its crash points and their
replayed, discarded and warm-redeploy counts.  ``warm``,
``fleet_clean`` and ``fleet_faulted`` are the ``db-warm`` row on daxpy
and cg (the CI step), and the ``fleet-faulted`` row over 25 generated
seeds and over cg at fault seeds 2 and 3 (half the CI step).  Each must replay
byte-identically — and at any ``--jobs``, which is the determinism
contract of :func:`repro.parallel.run_tasks`.
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
        # disasm has no --jobs
        jobs = (None,) if command.split()[2] == "disasm" else (1, 2)
        for n in jobs:
            yield pytest.param(path, n, id=f"{path.stem}-jobs{n or 1}")


def test_every_sweep_subcommand_has_a_golden():
    assert {p.stem for p in GOLDENS} == {
        "recovery", "fleet_clean", "fleet_faulted", "fuzz", "warm",
        # fuzz rows, named after the subcommands they replaced
        "validate", "chaos", "overload",
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
