"""The public surface did not move when the package ``__init__``s went lazy.

``repro``, ``repro.workloads`` and ``repro.workloads.npb`` resolve their
exports on first access (PEP 562, DESIGN.md §2 "Import layering").  The
names, the objects behind them, ``from ... import *`` and ``dir()`` are
what they were when every ``__init__`` imported its world — and workload
specs still pickle, into a pool worker and into an interpreter that has
imported nothing yet.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from importlib import import_module

import pytest

import repro
from repro.cli import main
from repro.scenario import npb_spec

#: Where ``repro/__init__.py`` imported each name from before it was
#: lazy (its table names the leaf modules; this one does not share it).
SOURCES = {
    "repro.config": ["MachineConfig", "CobraConfig", "itanium2_smp", "sgi_altix"],
    "repro.cpu": ["Machine", "Scheduler"],
    "repro.core": ["Cobra", "CobraReport", "run_with_cobra"],
    "repro.runtime": ["ParallelProgram", "RunResult"],
    "repro.validate": ["CoherenceChecker"],
    "repro.workloads": [
        "BENCHMARKS", "REPORTED", "build_daxpy", "verify_daxpy", "working_set_elems",
    ],
}
NAMES = [(package, name) for package, names in SOURCES.items() for name in names]


def test_all_is_the_same_list():
    assert repro.__all__ == [name for _package, name in NAMES] + ["__version__"]
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("package, name", NAMES, ids=[n for _p, n in NAMES])
def test_every_export_is_the_object_its_submodule_defines(package, name):
    obj = getattr(repro, name)
    assert obj is getattr(import_module(package), name)
    if hasattr(obj, "__module__") and hasattr(obj, "__qualname__"):
        # a class or function: also the object in the module that defines it
        assert obj.__module__.startswith(package)
        assert getattr(sys.modules[obj.__module__], name) is obj


@pytest.mark.parametrize("package", ["repro", "repro.workloads", "repro.workloads.npb"])
def test_star_import_dir_and_unknown_names(package):
    module = import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nope'"):
        module.nope


def test_dir_lists_every_export_before_anything_is_loaded(child_env):
    subprocess.run(
        [sys.executable, "-c",
         "import repro; assert set(repro.__all__) <= set(dir(repro)), dir(repro)"],
        env=child_env(), check=True, timeout=60,
    )


def test_memory_exports_the_one_fabric():
    """``SnoopBus`` and ``DirectoryFabric`` became ``CoherentFabric`` (PR 23);
    no alias is kept, and the modules that held them are gone."""
    from repro import memory

    assert "CoherentFabric" in memory.__all__
    assert memory.CoherentFabric.__module__ == "repro.memory.fabric"
    assert all(hasattr(memory, name) for name in memory.__all__)
    assert not {"SnoopBus", "DirectoryFabric"} & set(dir(memory))
    for gone in ("repro.memory.bus", "repro.memory.directory"):
        with pytest.raises(ModuleNotFoundError):
            import_module(gone)


def test_npb_instances_are_the_registry_entries():
    from repro.workloads import npb

    assert npb.BT is repro.BENCHMARKS["bt"] and npb.IS is repro.BENCHMARKS["is"]
    assert isinstance(npb.CG, npb.NpbBenchmark)


# -- specs still pickle ---------------------------------------------------------


def test_a_spec_unpickles_in_an_interpreter_that_imported_nothing(child_env):
    """What a spawn-started pool worker does: the pickle names the
    benchmark's class, unpickling imports its module, and that import
    must work without the registry having been touched first."""
    child = (
        "import pickle, sys\n"
        "spec = pickle.loads(sys.stdin.buffer.read())\n"
        "from repro.scenario import MachineRecipe, run_cell\n"
        "obs = run_cell(MachineRecipe('smp', 4, 16), spec)\n"
        "print(spec.name, obs.verified)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child], input=pickle.dumps(npb_spec("cg", 4, 1)),
        env=child_env(), capture_output=True, timeout=120, check=True,
    )
    assert done.stdout.decode().split() == ["cg-t4-r1", "True"]


#: every workload module and both case kinds, at one machine and strategy:
#: the whole matrix at figure size would cost ~85 s here
BENCH_ARGV = ["bench", "--machines", "smp4", "--strategies", "none", "--benchmarks",
              "daxpy", "bt", "sp", "lu", "ft", "mg", "cg", "daxpy-128K"]


@pytest.mark.parametrize("argv", [BENCH_ARGV], ids=lambda argv: argv[0])
def test_reports_are_byte_identical_at_jobs_2(argv, capsys):
    reports = []
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and reports[0]
