"""The kernel templates' NumPy meaning is an oracle the binary cannot
bend: it imports nothing the code generator, ISA or CPU model uses, and
a miscompile seeded at the compile boundary — invisible to the
jit-on/jit-off axes, which run one binary — fails ``verify()``."""

import ast
import inspect
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.compiler import kernels
from repro.compiler.codegen import KernelCompiler
from repro.compiler.prefetch import AGGRESSIVE
from repro.runtime.team import ParallelProgram
from repro.scenario import MachineRecipe, daxpy_spec, npb_spec, run_cell

FORBIDDEN = ("repro.compiler.codegen", "repro.isa", "repro.cpu")


def _imports(tree: ast.AST, package: str) -> set[str]:
    """Absolute names of every module ``tree`` imports from."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            names.update(f"{module}.{alias.name}" for alias in node.names)
            names.add(module)
    return names


class TestIndependence:
    def test_meaning_imports_nothing_from_codegen_isa_or_cpu(self):
        tree = ast.parse(Path(kernels.__file__).read_text())
        imported = _imports(tree, "repro.compiler")
        assert "repro.errors" in imported  # the resolver sees relative imports
        leaks = {n for n in imported if n.startswith(FORBIDDEN)}
        assert not leaks, leaks

    def test_walker_reads_no_binary_register_or_calling_convention(self):
        source = textwrap.dedent(inspect.getsource(ParallelProgram.evaluate))
        touched = {
            node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
        }
        assert not touched & {"params", "args", "fn", "image", "machine", "compiler"}


def _coefficient(t):
    x = t.terms[1]
    return replace(t, terms=(t.terms[0], replace(x, coef=x.coef * (1 + 1e-7))))


def _shift(t):
    return replace(
        t, terms=tuple(replace(x, shift=-2) if x.shift == -1 else x for x in t.terms)
    )


#: mutant -> (workload, kernel name, how its template is miscompiled)
MUTANTS = {
    "stream coefficient": (daxpy_spec(256, 2, 1), "daxpy", _coefficient),
    "stream shift": (npb_spec("bt", 2, 1), "bt_rhs", _shift),
    "reduce operand": (npb_spec("cg", 2, 1), "cg_pq", lambda t: replace(t, src_b="r")),
    "intsum shift": (
        npb_spec("is", 2, 1), "is_merge",
        lambda t: replace(t, sources=(("hist", 1), *t.sources[1:])),
    ),
    "gather value array": (
        npb_spec("ft", 2, 1), "ft_bitrev", lambda t: replace(t, val="tw1")
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_seeded_miscompile_agrees_across_jit_and_fails_verify(mutant, monkeypatch):
    workload, kernel, mutate = MUTANTS[mutant]
    machine = MachineRecipe("smp", 2)
    assert run_cell(machine, workload).verified is True
    compile_ = KernelCompiler.compile

    def miscompile(self, template, plan=AGGRESSIVE):
        if template.name == kernel:
            template = mutate(template)
        return compile_(self, template, plan)

    monkeypatch.setattr(KernelCompiler, "compile", miscompile)
    on = run_cell(machine, workload, jit=True)
    off = run_cell(machine, workload, jit=False)
    assert (on.digest, on.cycles, on.events) == (off.digest, off.cycles, off.events)
    assert on.verified is False and off.verified is False
