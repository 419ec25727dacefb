"""What a cold ``repro`` command compiles, as exact counts rather than times.

Trace codegen + ``compile()`` is the largest piece of a cold command
after ``import`` (tests/test_import_budget.py), and like that one it is a
deterministic count: a trace shape is generated once per process
(DESIGN.md §9 "Identical work is done once"), so a command generates a
fixed number of ``__trace__`` functions with a fixed number of source
lines.  Every case runs in a fresh interpreter; a change that makes a
cold command compile more fails with a diff.  Run as a script for the
table::

    python tests/test_compile_budget.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

#: The four ``cli_cold`` commands of ``benchmarks/e2e``: argv ->
#: [``__trace__`` functions generated, their source lines].  Before
#: position-independent closures took the entry index as an argument
#: (PR 22) the rows read 0/0, 7/1,532, 33/7,129 and 97/22,556.
#: Before a closure unpacked its core's environment in one line instead
#: of fifteen attribute loads they read 0/0, 3/1,003, 9/3,093, 14/5,369.
#: Before loops that qualify gained a line run they read 0/0, 3/961,
#: 9/2,967, 14/5,173.  Before line runs went on past line boundaries and
#: handed a crossing to the per-bundle body mid-iteration they read 0/0,
#: 3/1,024, 9/3,135, 14/5,524.  (A run that starts at a mid-body bundle is
#: generated only after many resumes there, which no command below makes.)
BUDGET = {
    "table1": [0, 0],
    "daxpy --working-set 128K --strategy adaptive": [3, 1_106],
    "npb cg --strategy adaptive": [9, 3_365],
    "npb mg --machine altix8 --strategy adaptive": [14, 6_101],
}

CHILD = """
import contextlib, io, json, sys
from repro.cli import main
from repro.cpu import tracejit
generated = []
generate = tracejit._generate
def counting(*shape):
    generated.append(generate(*shape))
    return generated[-1]
tracejit._generate = counting
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, len(generated), sum(s.count("\\n") for s in generated)]))
"""


def measure(command: str, env: dict) -> list[int]:
    """[functions generated, source lines] of ``repro <command>``, cold."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *command.split()], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, *counts = json.loads(done.stdout)
    assert code == 0, command
    return counts


def test_a_cold_command_compiles_exactly_this_much(child_env):
    assert {command: measure(command, child_env()) for command in BUDGET} == BUDGET


if __name__ == "__main__":
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0")
    print(f"{'command':<46}{'closures':>9}{'lines':>8}")
    rows = {command: measure(command, env) for command in BUDGET}
    rows["cli_cold pass"] = [sum(column) for column in zip(*rows.values())]
    for command, (functions, lines) in rows.items():
        print(f"{command:<46}{functions:>9}{lines:>8,}")
