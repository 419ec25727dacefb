"""Structured fuzz outcomes and the deterministic report.

The report contains no timestamps, paths, or timing — its ``summary()``
bytes depend only on the case outcomes, which is what makes
``repro fuzz --jobs 1`` and ``--jobs 8`` byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .generator import ScenarioParams, describe

__all__ = ["CellRun", "Divergence", "ScenarioResult", "FuzzReport", "repro_command"]


def repro_command(seed: int, fault_seed: int) -> str:
    """The minimized replay command for one divergence."""
    return f"python -m repro fuzz --replay {seed} --fault-seed {fault_seed}"


@dataclass(frozen=True)
class Divergence:
    """One broken bit-equality or invariant in one case."""

    seed: int | None  # generator seed (``None`` for a named workload)
    fault_seed: int
    axis: str        # e.g. "adaptive vs none", "jit-off vs jit-on"
    observable: str  # "digest", "cycles", "samples", "exception", ...
    expected: str
    actual: str

    def describe(self) -> str:
        where = "" if self.seed is None else (
            f"seed={self.seed} fault_seed={self.fault_seed} "
        )
        return (
            f"{where}[{self.axis}] "
            f"{self.observable}: expected {self.expected}, got {self.actual}"
        )


@dataclass(frozen=True)
class CellRun:
    """One completed cell: a row at one of its values and fault seeds."""

    label: str       # e.g. "faulted/excl/seed=3"
    cycles: int
    digest: str
    facts: tuple[tuple[str, object], ...] = ()

    def line(self) -> str:
        facts = "".join(f" {name}={value}" for name, value in self.facts)
        return (
            f"{self.label:30s} cycles={self.cycles:<10d} "
            f"digest={self.digest[:12]}{facts}"
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one case's axis sweep (picklable)."""

    params: ScenarioParams | None   # the generator's draw; None when named
    workload: str
    machine: str
    cells: tuple[CellRun, ...]      # in run order
    divergences: tuple[Divergence, ...]
    bundles: int = 0        # bundles of the ISA-checked image
    samples: int = 0        # HPM samples captured on the jit-on axis
    compiles: int = 0       # trace-JIT compiles on the jit-on axis
    tree_links: int = 0     # compiled-to-compiled exit handoffs (jit-on)

    @property
    def digests(self) -> tuple[tuple[str, str], ...]:
        return tuple((cell.label, cell.digest) for cell in self.cells)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def line(self) -> str:
        status = "OK" if self.ok else f"FAIL({len(self.divergences)})"
        where = (
            f"{self.workload} on {self.machine}]" if self.params is None
            else f"seed={self.params.seed}] {describe(self.params)}"
        )
        return (
            f"fuzz[{where}: {len(self.cells)} run(s), "
            f"{self.bundles} bundle(s), {status}"
        )


@dataclass
class FuzzReport:
    """Outcome of one fuzzing sweep, merged in submission order."""

    results: list[ScenarioResult] = field(default_factory=list)
    #: row gates and cross-machine checks, over the whole sweep
    failures: list[str] = field(default_factory=list)

    @property
    def divergences(self) -> list[Divergence]:
        return [d for r in self.results for d in r.divergences]

    @property
    def ok(self) -> bool:
        return not self.failures and all(r.ok for r in self.results)

    def summary(self, verbose: bool = True) -> str:
        cells = [cell for r in self.results for cell in r.cells]
        checks = sum(dict(cell.facts).get("checks", 0) for cell in cells)
        lines = [
            f"fuzz: {len(self.results)} scenario(s), "
            f"{len(cells)} differential run(s), {checks} coherence check(s), "
            f"{len(self.divergences)} divergence(s), {'OK' if self.ok else 'FAIL'}"
        ]
        for result in self.results:
            if verbose or not result.ok:
                lines.append(f"  {result.line()}")
            if verbose:
                lines += [f"    {cell.line()}" for cell in result.cells]
            for div in result.divergences:
                lines.append(f"    DIVERGENCE {div.describe()}")
                if div.seed is not None:
                    lines.append(f"    repro: {repro_command(div.seed, div.fault_seed)}")
        lines += [f"  FAIL: {failure}" for failure in self.failures]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": self.failures,
            "scenarios": [
                {
                    "seed": r.params.seed if r.params else None,
                    "fault_seed": r.params.fault_seed if r.params else None,
                    "description": (
                        describe(r.params) if r.params else f"{r.workload} on {r.machine}"
                    ),
                    "digests": dict(r.digests),
                    "facts": {cell.label: dict(cell.facts) for cell in r.cells},
                    "samples": r.samples,
                    "compiles": r.compiles,
                    "tree_links": r.tree_links,
                    "divergences": [
                        {
                            "axis": d.axis,
                            "observable": d.observable,
                            "expected": d.expected,
                            "actual": d.actual,
                            "repro": (
                                repro_command(d.seed, d.fault_seed)
                                if d.seed is not None else None
                            ),
                        }
                        for d in r.divergences
                    ],
                }
                for r in self.results
            ],
        }
