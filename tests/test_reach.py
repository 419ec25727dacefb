"""Which code of ``src/repro`` no experiment or CI gate runs: the reach ledger.

Run as a script, it traces every entry point of ``ENTRY_POINTS`` in this
one process, sweeps at ``--jobs 1``, then the tier-1 suite, and prints per
package the code lines that no entry point executes and that nothing
executes, tier-1 included (statement level, for ROADMAP status lines)::

    python tests/test_reach.py            # the table, then the ledger check
    python tests/test_reach.py --write    # regenerate tests/reach_ledger.json

The ledger, ``tests/reach_ledger.json``, holds every function that no
entry point calls as ``path:qualname -> reason``, the reason one of
``REASONS``.  The script exits 1 naming each function no entry point
calls that the ledger lacks, and each ledger function that is now called
or gone.  ``--write`` keeps the reasons on record and writes a new entry
as ``unclassified``, which the tier-1 check refuses until a reason is
picked.

Tier-1 runs only the static checks at the bottom: every ledger key names
a function, every reason is in ``REASONS``, and every ``ci.yml`` step that
starts the package, an example or a benchmark is in ``ENTRY_POINTS``, so a
new gate cannot bypass the ledger.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import re
import runpy
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

if __package__:
    from .test_code_size import SRC, code_line_set
else:
    from test_code_size import SRC, code_line_set

ROOT = SRC.parent.parent
LEDGER = Path(__file__).with_name("reach_ledger.json")
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: Why a function that no entry point calls stays.
REASONS = {
    "error-path": "raises or reports on input or state no experiment produces",
    "recovery": "repairs a crash, corruption or fault no experiment injects there",
    "bound": "runs only when a budget, cap or capacity is reached",
    "interface": "part of an interface a test substitutes or a caller may use",
    "reference": "a reference that tests compare the product against",
    "worker": "runs only in a pool worker process",
    "debug": "shows state to a person: repr, dump, source",
}

#: Every experiment and CI entry point, as the tracer runs it: optional
#: ``VAR=value`` words, then ``repro ARGS`` (``repro.cli.main``), ``pytest
#: GLOB`` or a script path with its arguments.  Relative paths are in a
#: scratch working directory that holds a copy of ``BENCH_perf.json``.
ENTRY_POINTS = (
    # every `run:` step of ci.yml that starts the package, an example or
    # a benchmark (CI_STAND_INS maps the two CI spellings traced otherwise)
    "repro bench --compare BENCH_perf.json",
    "REPRO_VALIDATE=strict examples/quickstart.py",
    "repro fuzz --workloads daxpy cg --reps 2 --axes noprefetch excl adaptive",
    "repro fuzz --workloads daxpy cg --reps 4 --start 0 --seeds 2 --axes faulted",
    "repro fuzz --workloads daxpy --reps 5 --axes crash --stride 4 --out recovery-ledger.json",
    "repro daxpy --checkpoint-dir ck --strategy noprefetch",
    "repro resume --checkpoint-dir ck",
    "repro fuzz --seeds 25 --no-verbose",
    "repro fuzz --seeds 2 --no-verbose --out fuzz-report.json",
    "repro fuzz --workloads daxpy cg --reps 4 --seeds 1 --axes overloaded",
    "repro fuzz --workloads daxpy cg --axes db-warm --out warm-ledger.json",
    "repro fuzz --workloads cg --axes fleet-faulted --seeds 4 --out fleet-ledger.json",
    "benchmarks/e2e/run.py --workload kernel_mix --ops 2 --trace 1 --trace-out t.json",
    "benchmarks/e2e/run.py --workload stream_steady --ops 2 --trace 1 --trace-out t.json",
    "benchmarks/e2e/run.py --workload state_plane --ops 2 --trace 1 --trace-out t.json",
    "benchmarks/e2e/run.py --workload cli_cold --ops 2 --trace 1 --trace-out t.json",
    # the ablation and extension benches (the figures are bench cases, above)
    "pytest benchmarks/test_*.py",
    # the examples
    "examples/chaos_injection.py",
    "examples/daxpy_working_sets.py",
    "examples/fuzz_divergence_replay.py",
    "examples/hpm_profiling.py",
    "examples/inspect_assembly.py",
    "examples/npb_cobra.py",
    "examples/numa_first_touch.py",
    "examples/phase_adaptation.py",
    "examples/quickstart.py",
    # the cli_cold commands, in-process (the benchmark runs them in
    # subprocesses that a tracer in this process cannot see)
    "repro table1",
    "repro daxpy --working-set 128K --strategy adaptive",
    "repro npb cg --strategy adaptive",
    "repro npb mg --machine altix8 --strategy adaptive",
)

#: ci.yml spellings traced in a form that reaches at least as much: the
#: e2e smokes run untraced (a traced run adds the layer probes), and the
#: nightly fuzz depth is a workflow input.
CI_STAND_INS = {
    "--trace 0": "--trace 1",
    "${{ github.event.inputs.fuzz_seeds || 500 }}": "2",
}


# -- what exists ----------------------------------------------------------------


def functions() -> dict[str, tuple[str, int, int]]:
    """``path:qualname`` -> (path, first line, last line) of every ``def``."""
    out: dict[str, tuple[str, int, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    key = f"{rel}:{prefix}{child.name}"
                    # a property's setter shares its getter's qualname
                    _, lo, hi = out.get(key, (rel, first, child.end_lineno))
                    out[key] = (rel, min(lo, first), max(hi, child.end_lineno))
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return out


def statement_lines(source: str) -> list[tuple[set[int], set[int]]]:
    """The code lines of ``source`` grouped by statement: (lines that run
    when the statement runs, its code lines).  A compound statement owns
    its header; ``else:``/``finally:`` belong to the statement after them."""
    code = code_line_set(source)
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            first = min([d.lineno for d in getattr(node, "decorator_list", [])]
                        + [node.lineno])
            body = getattr(node, "body", None)
            last = max(first, body[0].lineno - 1) if body else node.end_lineno
            spans.append((first, last))
    owner: dict[int, int] = {}
    for i, (first, last) in enumerate(spans):  # outer before inner
        for line in range(first, last + 1):
            owner[line] = i
    starts = sorted((first, i) for i, (first, _last) in enumerate(spans))
    groups = [(set(range(first, last + 1)), set()) for first, last in spans]
    for line in sorted(code):
        i = owner.get(line)
        if i is None:
            i = next((j for first, j in starts if first > line), None)
        if i is not None:
            groups[i][1].add(line)
    return groups


# -- tracing --------------------------------------------------------------------


class Tracer:
    """The ``src/repro`` functions called and lines run under ``sys.settrace``."""

    def __init__(self) -> None:
        self.prefix = str(SRC) + os.sep
        self.local: dict = {}
        #: code object -> line numbers it ran
        self.ran: dict = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            return self.local[code]
        except KeyError:
            pass
        local = None
        if code.co_filename.startswith(self.prefix):
            lines = self.ran[code] = set()

            def local(frame, event, arg, add=lines.add):
                if event == "line":
                    add(frame.f_lineno)
                return local

        self.local[code] = local
        return local

    def snapshot(self) -> tuple[set[str], dict[str, set[int]]]:
        """(``path:qualname`` called, path -> lines run) so far."""
        called, lines = set(), {}
        for code, ran in self.ran.items():
            path = code.co_filename[len(self.prefix):].replace(os.sep, "/")
            called.add(f"{path}:{code.co_qualname}")
            lines.setdefault(path, set()).update(ran)
        return called, lines


def _start(program: str, args: list[str]) -> object:
    if program == "repro":
        from repro.cli import main

        return main(args)
    if program == "pytest":
        import pytest

        files = sorted(str(path) for path in ROOT.glob(args[0]))
        return int(pytest.main([*files, "--benchmark-disable"]))
    sys.argv = [str(ROOT / program), *args]
    try:
        runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit as stop:
        return stop.code
    return 0


def run_entry(entry: str) -> tuple[object, str]:
    """Run one entry point in this process: (exit status, its stdout)."""
    words = entry.split()
    env = dict(word.split("=", 1) for word in words if "=" in word.split("/")[0])
    program, *args = words[len(env):]
    saved = {name: os.environ.get(name) for name in env}
    argv = sys.argv
    out = io.StringIO()
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out):
            status = _start(program, args)
    except Exception:
        status = traceback.format_exc()
    finally:
        sys.argv = argv
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return status, out.getvalue()


def trace_all() -> tuple[set[str], dict, set[str], dict, list[str]]:
    """Trace the entry points, then tier-1: (called, lines) after each,
    and the entry points that failed."""
    from hypothesis import HealthCheck, settings

    # the tracer slows every example past hypothesis' default deadline
    settings.register_profile("reach", deadline=None, suppress_health_check=list(HealthCheck))
    settings.load_profile("reach")
    failed = []

    def run(entry: str) -> None:
        status, out = run_entry(entry)
        if status not in (0, None):
            tail = "\n".join(out.splitlines()[-20:])
            failed.append(f"{entry}: exit {status}\n{tail}")

    tracer = Tracer()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copy(ROOT / "BENCH_perf.json", scratch)
        os.chdir(scratch)
        sys.settrace(tracer)
        try:
            for entry in ENTRY_POINTS:
                run(entry)
            by_entries = tracer.snapshot()
            run(f"pytest {Path(__file__).parent.name}")
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    return (*by_entries, *tracer.snapshot(), failed)


# -- the report -----------------------------------------------------------------


def unrun_lines(ran: dict[str, set[int]]) -> dict[str, set[int]]:
    """path -> the code lines of statements that never ran."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        lines = ran.get(rel, set())
        out[rel] = {
            line
            for runs_on, code in statement_lines(path.read_text())
            if not runs_on & lines
            for line in code
        }
    return out


def table(code: dict[str, set[int]], by_entries: dict[str, set[int]],
          by_all: dict[str, set[int]]) -> str:
    """Code lines per package, not run by an entry point, not run at all."""
    rows: dict[str, list[int]] = {}
    for path, lines in sorted(code.items()):
        row = rows.setdefault(path.split("/")[0], [0, 0, 0])
        for i, counted in enumerate((lines, by_entries[path], by_all[path])):
            row[i] += len(counted)
    rows[SRC.name] = [sum(column) for column in zip(*rows.values())]
    head = f"{'package':<16}{'code':>7}{'no entry':>10}{'nothing':>9}"
    return "\n".join([head] + [
        f"{name:<16}{n:>7,}{entries:>10,}{nothing:>9,}"
        for name, (n, entries, nothing) in rows.items()
    ])


def function_lines(keys, defs, code: dict[str, set[int]]) -> int:
    """Code lines inside the ``def``s of ``keys`` (nested ones counted once)."""
    lines = set()
    for key in keys:
        path, first, last = defs[key]
        lines.update((path, line) for line in code[path] if first <= line <= last)
    return len(lines)


def main(argv: list[str]) -> int:
    called, ran, called_any, ran_any, failed = trace_all()
    code = {p.relative_to(SRC).as_posix(): code_line_set(p.read_text())
            for p in SRC.rglob("*.py")}
    defs = functions()
    unreached = set(defs) - called
    print(table(code, unrun_lines(ran), unrun_lines(ran_any)))
    nothing = unreached - called_any
    print(f"functions no entry point calls: {len(unreached)} "
          f"({function_lines(unreached, defs, code):,} code lines); nothing calls "
          f"{len(nothing)} ({function_lines(nothing, defs, code):,})")
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if "--write" in argv:
        ledger = {key: ledger.get(key, "unclassified") for key in sorted(unreached)}
        LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"wrote {LEDGER.relative_to(ROOT)}")
    problems = [f"entry point failed: {entry}" for entry in failed]
    problems += [f"no entry point calls {key}, and the ledger does not list it"
                 for key in sorted(unreached - set(ledger))]
    problems += [f"the ledger lists {key}, which is now called or gone"
                 for key in sorted(set(ledger) - unreached)]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


# -- tier-1: the static checks ----------------------------------------------------


def ci_invocations(text: str) -> list[str]:
    """Every ``run:`` command of a workflow that starts the package, an
    example or a benchmark, spelt like an ``ENTRY_POINTS`` row: the step's
    ``REPRO_*`` variables first, ``--jobs N`` dropped, stand-ins applied."""
    steps: list[tuple[dict, list[str]]] = []
    step_indent = None  # of a step's keys
    block = None  # (indent of the key, "env" | ">" folded run | "|" literal run)
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        stripped = line.strip()
        if block is not None and stripped and indent > block[0]:
            env, runs = steps[-1]
            if block[1] == ">":
                runs[-1] += " " + stripped
            elif block[1] == "|":
                runs.append(stripped)
            else:
                name, _, value = stripped.partition(":")
                env[name] = value.strip()
            continue
        block = None
        if stripped.startswith("- "):
            steps.append(({}, []))
            stripped, indent = stripped[2:], indent + 2
            step_indent = indent
        key, _, value = stripped.partition(":")
        value = value.strip()
        if indent == step_indent and key == "env":
            block = (indent, "env")
        elif indent == step_indent and key == "run":
            if value in (">", "|"):
                block = (indent, value)
                steps[-1][1].extend([""] if value == ">" else [])
            else:
                steps[-1][1].append(value)
    out = []
    for env, runs in steps:
        for command in runs:
            command = command.split(" | ")[0]
            for spelt, traced in CI_STAND_INS.items():
                command = command.replace(spelt, traced)
            words = command.split()
            if "pytest" in words or "pip" in words:
                continue
            if words[1:3] == ["-m", "repro"]:
                words = ["repro", *words[3:]]
            elif len(words) > 1 and re.match(r"(examples|benchmarks)/", words[1]):
                words = words[1:]
            else:
                continue
            words = re.sub(r" --jobs \d+", "", " ".join(words)).split()
            assignments = [f"{k}={v}" for k, v in sorted(env.items()) if k.startswith("REPRO_")]
            out.append(" ".join(assignments + words))
    return out


def test_every_ledger_key_names_a_function():
    assert sorted(set(json.loads(LEDGER.read_text())) - set(functions())) == []


def test_every_ledger_reason_is_in_the_closed_set():
    ledger = json.loads(LEDGER.read_text())
    assert {key: r for key, r in ledger.items() if r not in REASONS} == {}


def test_every_ci_invocation_is_an_entry_point():
    invocations = ci_invocations(CI.read_text())
    assert "repro bench --compare BENCH_perf.json" in invocations
    assert [
        command for command in invocations
        if not any(e == command or e.startswith(command + " ") for e in ENTRY_POINTS)
    ] == []


if __name__ == "__main__":
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    if env.get("PYTHONHASHSEED") != "0" or env != dict(os.environ):
        # benchmarks/e2e/run.py re-executes an unpinned interpreter, which
        # would take the tracer with it
        env["PYTHONHASHSEED"] = "0"
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC.parent))
    sys.exit(main(sys.argv[1:]))
