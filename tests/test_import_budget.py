"""What a ``repro`` command imports, as exact sets rather than times.

COBRA is preloaded into every process it optimizes, so what it costs
before the first instruction runs is part of its overhead; here that
cost is ``import`` (DESIGN.md §2 "Import layering").  A command loads
the kernel packages plus the one workload it runs — and COBRA itself
(``core``, ``hpm``) only if it runs a program, which ``table1`` and
``disasm`` do not; an attachment (faults, persist, validate, governor,
fleet) or a harness loads only when a flag or ``REPRO_*`` variable arms
it.

Every case runs in a fresh interpreter.  The lists hold ``repro.*``
names only, so they are the same on every Python version; an eager
import added anywhere on the default path fails with a diff that names
the module.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

#: What every command loads: config, errors, isa, memory, cpu, runtime,
#: compiler, scenario, the CLI and the workload registry.
KERNEL = """
repro repro.cli repro.compiler repro.compiler.codegen repro.compiler.kernels
repro.compiler.prefetch repro.config
repro.cpu repro.cpu.core repro.cpu.machine repro.cpu.scheduler repro.cpu.tracejit
repro.errors repro.isa
repro.isa.assembler repro.isa.binary repro.isa.bundle repro.isa.decode
repro.isa.disassembler repro.isa.instructions repro.isa.registers repro.memory
repro.memory.address repro.memory.cache repro.memory.coherence
repro.memory.dram repro.memory.events repro.memory.fabric
repro.memory.hierarchy repro.runtime
repro.runtime.barrier repro.runtime.team repro.runtime.thread repro.scenario
repro.workloads repro.workloads.npb repro.workloads.npb.common
""".split()

#: What a command that runs a program loads on top: the paper's framework,
#: the performance monitor it samples and the shape vocabulary both
#: declare their trees in.
COBRA = """
repro.core repro.core.filters
repro.core.framework repro.core.monitor repro.core.optimizer repro.core.opts
repro.core.opts.bias repro.core.opts.excl repro.core.opts.noprefetch
repro.core.policy repro.core.profiler repro.core.tracecache repro.core.tracesel
repro.hpm repro.hpm.batch repro.hpm.btb repro.hpm.counters
repro.hpm.dear repro.hpm.events repro.hpm.perfmon repro.hpm.sample repro.shape
""".split()

#: commands that build an image and print: they run nothing
BUILD_ONLY = ("table1", "disasm")

NPB_KERNELS = [
    f"repro.workloads.npb.{m}"
    for m in ("bt", "cg", "ep", "ft", "grid", "is_", "lu", "mg", "sp")
]

#: The four ``cli_cold`` commands of ``benchmarks/e2e`` and ``disasm``:
#: argv -> what they load on top of :data:`KERNEL` (and :data:`COBRA`).
COMMANDS = {
    ("disasm", "daxpy"): ["repro.workloads.daxpy"],
    ("table1",): [
        "repro.analysis", "repro.analysis.report",
        *NPB_KERNELS,
    ],
    ("daxpy", "--working-set", "128K", "--strategy", "adaptive"): [
        "repro.workloads.daxpy",
    ],
    ("npb", "cg", "--strategy", "adaptive"): ["repro.workloads.npb.cg"],
    ("npb", "mg", "--machine", "altix8", "--strategy", "adaptive"): [
        "repro.workloads.npb.mg",
    ],
}

#: Never on the default path, whatever the command.
OPTIONAL = (
    "repro.faults", "repro.persist", "repro.validate", "repro.governor",
    "repro.fleet", "repro.fuzz", "repro.bench", "repro.parallel",
)

CHILD = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
}), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def run(child_env):
    """``run(argv, env)``: ``repro <argv>`` in a fresh interpreter, once
    per distinct case -> (exit code, stdout, loaded ``repro.*`` modules)."""

    @functools.lru_cache(maxsize=None)
    def run(argv: tuple[str, ...], env: tuple[tuple[str, str], ...] = ()):
        done = subprocess.run(
            [sys.executable, "-c", CHILD, *argv], env=child_env(**dict(env)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stderr.splitlines()[-1])
        return report["code"], done.stdout, report["modules"]

    return run


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_a_command_loads_the_kernel_and_its_workload(argv, run):
    """Before PR 18 every command loaded the same 88 modules; a running
    command loads 61 now, ``table1`` 50 and ``disasm daxpy`` 39."""
    code, _stdout, modules = run(argv)
    assert code == 0
    cobra = [] if argv[0] in BUILD_ONLY else COBRA
    assert modules == sorted(KERNEL + cobra + COMMANDS[argv])


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_attachment_or_harness_on_the_default_path(argv, run):
    _code, _stdout, modules = run(argv)
    for package in OPTIONAL:
        assert not [m for m in modules if m == package or m.startswith(package + ".")]
    if argv != ("table1",):
        assert "repro.analysis" not in modules


def test_the_front_door_names_the_policys_strategies():
    """The CLI spells the strategy names without importing ``core``."""
    from repro import cli
    from repro.core.policy import STRATEGIES

    assert cli.STRATEGIES == STRATEGIES


def test_npb_cg_loads_no_kernel_but_cg(run):
    _code, _stdout, modules = run(("npb", "cg", "--strategy", "adaptive"))
    assert [m for m in modules if m in NPB_KERNELS] == ["repro.workloads.npb.cg"]


#: The converse, so laziness cannot hide a missing import: arming an
#: attachment loads it, and the run still verifies.
ARMED = [
    (("--checkpoint-dir", "{tmp}/ckpt"), {}, "repro.persist.manager"),
    (("--profile-db", "{tmp}/p.db"), {}, "repro.persist.profiledb"),
    ((), {"REPRO_VALIDATE": "strict"}, "repro.validate.checker"),
    ((), {"REPRO_FAULTS": "3"}, "repro.faults.injector"),
    (("--trace-cache-budget", "96"), {}, "repro.governor"),
]


@pytest.mark.parametrize(
    "flags, env, module", ARMED, ids=[row[2] for row in ARMED]
)
def test_arming_an_attachment_loads_it(flags, env, module, tmp_path, run):
    argv = ("daxpy", *(f.replace("{tmp}", str(tmp_path)) for f in flags))
    code, stdout, modules = run(argv, tuple(env.items()))
    assert code == 0
    assert module in modules
    assert "verified:        True" in stdout


def test_import_repro_alone_loads_no_subpackage_and_no_numpy(child_env):
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro; print(json.dumps(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('repro', 'numpy'))))"],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(done.stdout) == ["repro"]


# -- the BLAS default ---------------------------------------------------------
#
# The CLI front door sets OPENBLAS_NUM_THREADS=1 unless the user set it
# (config.default_blas_threads).  It only works if it runs before numpy
# is imported, so the ordering is observed, not assumed: a
# ``sitecustomize`` on the child's path records, from an audit hook, what
# the variable held at the moment ``import numpy`` began, and at exit
# every variable the process added or changed.

SITECUSTOMIZE = """
import atexit, json, os, sys
start = dict(os.environ)
at_numpy_import = []
def hook(event, args):
    if event == "import" and args[0] == "numpy" and not at_numpy_import:
        at_numpy_import.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        assert "numpy" not in sys.modules
sys.addaudithook(hook)
@atexit.register
def report():
    print(json.dumps({
        "at_numpy_import": at_numpy_import,
        "changed": {k: v for k, v in os.environ.items() if start.get(k) != v},
    }), file=sys.stderr)
"""

ENTRY_POINTS = {
    "python -m repro": ("-m", "repro", "table1"),
    "console script": ("-c", "from repro.cli import main"),
}


@pytest.fixture
def observed_environment(tmp_path, child_env):
    """``observed_environment(args, **overrides)``: what the hook saw."""

    def observe(args, **overrides: str) -> dict:
        (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = child_env(**overrides)
        env["PYTHONPATH"] = f"{tmp_path}{os.pathsep}{env['PYTHONPATH']}"
        done = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        return json.loads(done.stderr.splitlines()[-1])

    return observe


@pytest.mark.parametrize("args", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_front_door_defaults_openblas_before_numpy_loads(args, observed_environment):
    assert observed_environment(args) == {
        "at_numpy_import": ["1"],
        # and nothing else: OMP_NUM_THREADS would reach into libraries
        # that are not ours
        "changed": {"OPENBLAS_NUM_THREADS": "1"},
    }


@pytest.mark.parametrize("args", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_an_explicit_openblas_setting_wins(args, observed_environment):
    assert observed_environment(args, OPENBLAS_NUM_THREADS="4") == {
        "at_numpy_import": ["4"], "changed": {},
    }


def test_library_import_leaves_the_environment_alone(observed_environment):
    assert observed_environment(("-c", "import repro")) == {
        "at_numpy_import": [], "changed": {},
    }
