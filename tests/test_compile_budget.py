"""What a cold ``repro`` command compiles, as exact counts rather than times.

Trace codegen + ``compile()`` is the largest piece of a cold command
after ``import`` (tests/test_import_budget.py), and like that one it is a
deterministic count: a trace shape is generated once per process
(DESIGN.md §9 "Identical work is done once"), so a command generates a
fixed number of ``__trace__`` functions with a fixed number of source
lines.  Every case runs in a fresh interpreter; a change that makes a
cold command compile more fails with a diff.

The same run counts how often the host's dispatch path between two
closure calls runs (DESIGN.md §6, §9): scheduler slices (resumptions of
``Core._run_slices``), closure calls (the ``entries`` work counter) and
the ``DecodeCache.sync`` / ``TraceJit.sync`` calls a slice makes only at
the first slice after an image edit.  Run as a script for the table,
plus the path's Python opcodes per slice (``sys.settrace`` opcode
events over ``Scheduler._run``, ``Core.run``/``_restart``, the slice
body outside its generic-bundle block and the two re-syncs;
informational, since the count differs between Python versions)::

    python tests/test_compile_budget.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

#: The four ``cli_cold`` commands of ``benchmarks/e2e``: argv ->
#: [``__trace__`` functions generated, their source lines, slices, closure
#: calls, ``DecodeCache.sync`` calls, ``TraceJit.sync`` calls].  Before
#: position-independent closures took the entry index as an argument
#: (PR 22) the rows read 0/0, 7/1,532, 33/7,129 and 97/22,556.
#: Before a closure unpacked its core's environment in one line instead
#: of fifteen attribute loads they read 0/0, 3/1,003, 9/3,093, 14/5,369.
#: Before loops that qualify gained a line run they read 0/0, 3/961,
#: 9/2,967, 14/5,173.  Before line runs went on past line boundaries and
#: handed a crossing to the per-bundle body mid-iteration they read 0/0,
#: 3/1,024, 9/3,135, 14/5,524.  Before a closure took the running iteration
#: count as an argument instead of starting its own at 0 they read 0/0,
#: 3/1,106, 9/3,365, 14/6,101.  (A run that starts at a mid-body bundle is
#: generated only after many resumes there, which no command below makes.)
#: Before a slice skipped the re-syncs when no image had changed, both
#: sync columns equalled the slice column.
BUDGET = {
    "table1": [0, 0, 0, 0, 0, 0],
    "daxpy --working-set 128K --strategy adaptive": [3, 1_103, 1_320, 1_296, 8, 8],
    "npb cg --strategy adaptive": [9, 3_356, 3_654, 10_759, 16, 16],
    "npb mg --machine altix8 --strategy adaptive": [14, 6_087, 12_340, 24_952, 88, 88],
}

CHILD = """
import collections, contextlib, inspect, io, json, sys
from repro.cli import main
from repro.cpu import tracejit
from repro.cpu.core import Core
from repro.cpu.scheduler import Scheduler
from repro.isa.decode import DecodeCache
generated = []
generate = tracejit._generate
def counting(*shape):
    generated.append(generate(*shape))
    return generated[-1]
tracejit._generate = counting
counts = collections.Counter()
cores = []
init, body = Core.__init__, Core._run_slices
def tracked(self, *args, **kwargs):
    init(self, *args, **kwargs)
    cores.append(self)
def slices(self):
    # the slice body, one count per resumption
    inner = body(self)
    executed = next(inner)
    while True:
        request = yield executed
        counts["slices"] += 1
        try:
            executed = inner.send(request)
        except StopIteration as end:
            return end.value
def syncs(name, sync):
    def wrapper(*args):
        counts[name] += 1
        return sync(*args)
    return wrapper
dsync, tsync = DecodeCache.sync, tracejit.TraceJit.sync
Core.__init__, Core._run_slices = tracked, slices
DecodeCache.sync = syncs("decode_syncs", dsync)
tracejit.TraceJit.sync = syncs("trace_syncs", tsync)
opcodes = 0
if sys.argv[1] == "--opcodes":
    # the dispatch path, minus the slice body's generic-bundle block
    lines, first = inspect.getsourcelines(body)
    text = [line.strip() for line in lines]
    start = text.index("base = pc & _BMASK")
    generic = range(first + start, first + text.index("if tracing:", start))
    path = {fn.__code__ for fn in (Scheduler._run, Core.run, Core._restart, body, dsync, tsync)}
    def local(frame, event, arg):
        global opcodes
        if event == "opcode" and not (frame.f_code is body.__code__ and frame.f_lineno in generic):
            opcodes += 1
        return local
    def tracer(frame, event, arg):
        if frame.f_code in path:
            frame.f_trace_opcodes = True
            return local
        return None
    sys.argv.pop(1)
    sys.settrace(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
sys.settrace(None)
print(json.dumps([
    code, len(generated), sum(s.count("\\n") for s in generated), counts["slices"],
    sum(core.trace_jit.entries for core in cores), counts["decode_syncs"],
    counts["trace_syncs"], opcodes,
]))
"""


def measure(command: str, env: dict, opcodes: bool = False) -> list[int]:
    """[functions generated, source lines, slices, closure calls, decode
    syncs, trace syncs] of ``repro <command>``, cold, and with
    ``opcodes`` the dispatch path's opcode count after them."""
    argv = (["--opcodes"] if opcodes else []) + command.split()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    code, *counts = json.loads(done.stdout)
    assert code == 0, command
    return counts if opcodes else counts[:-1]


def test_a_cold_command_compiles_exactly_this_much(child_env):
    assert {command: measure(command, child_env()) for command in BUDGET} == BUDGET


if __name__ == "__main__":
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=src, PYTHONHASHSEED="0")
    print(f"{'command':<46}{'closures':>9}{'lines':>8}{'slices':>8}{'calls':>8}"
          f"{'dsync':>7}{'tsync':>7}{'op/slice':>10}")
    rows = {command: measure(command, env, opcodes=True) for command in BUDGET}
    rows["cli_cold pass"] = [sum(column) for column in zip(*rows.values())]
    for command, (functions, lines, slices, calls, dsync, tsync, opcodes) in rows.items():
        per_slice = f"{opcodes / slices:.1f}" if slices else "-"
        print(f"{command:<46}{functions:>9}{lines:>8,}{slices:>8,}{calls:>8,}"
              f"{dsync:>7}{tsync:>7}{per_slice:>10}")
