"""``cli_cold``: what every ``repro`` command costs, process start to exit.

An op is one pass of four fresh ``python -m repro`` subprocesses, run
one after the other.  A pass fails when a command exits non-zero, a
simulating command does not print ``verified: True``, or any stdout
differs from the warm-up pass (the commands are deterministic).  The
seed changes nothing.  The runner itself never imports the package
until the traced run's in-process probe.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys

from base import Op, ProbeFailure, Workload, median_of
from host import pinned_env
from tracer import Tracer

__all__ = ["CliCold", "CLI_COMMANDS"]

CLI_COMMANDS = {
    "table1": ["table1"],
    "daxpy": ["daxpy", "--working-set", "128K", "--strategy", "adaptive"],
    "cg": ["npb", "cg", "--strategy", "adaptive"],
    "mg_altix": ["npb", "mg", "--machine", "altix8", "--strategy", "adaptive"],
}
#: commands that simulate, and so must report their own verification
CLI_VERIFIED = ("daxpy", "cg", "mg_altix")
CLI_TIMEOUT_S = 120
STARTUP_SAMPLES = 5
IMPORT_SAMPLES = 3


class CliCold(Workload):
    name = "cli_cold"
    children_rss = True

    def __init__(self, seed: int, src: str, tracer: Tracer) -> None:
        super().__init__(seed, src, tracer)
        self.commands = {k: list(v) for k, v in CLI_COMMANDS.items()}
        self.reference: dict[str, str] | None = None
        self.env = pinned_env(src)

    def python(self, span_name: str, *args: str) -> tuple[float, int, str]:
        """Run one child interpreter to completion: (wall, exit code, stdout)."""
        with self.tracer.span(span_name) as s:
            done = subprocess.run([sys.executable, *args], env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        return s.dur, done.returncode, done.stdout

    def setup(self) -> None:
        with self.tracer.span("setup.warmup"):
            warm = self.op()
        if warm.failures:
            raise RuntimeError(f"warm-up pass failed: {warm.failures}")

    def op(self) -> Op:
        failures, parts, stdout = [], {}, {}
        for label, argv in self.commands.items():
            if parts:
                self.calibrate()
            parts[label], code, stdout[label] = self.python(
                f"cli.cmd.{label}", "-m", "repro", *argv)
            if code != 0:
                failures.append(f"{label}: exit code {code}")
            elif label in CLI_VERIFIED and "verified:        True" not in stdout[label]:
                failures.append(f"{label}: no `verified: True` line")
        if self.reference is None:
            self.reference = stdout
        elif stdout != self.reference:
            failures.append("stdout differs between passes")
        return Op(wall=sum(parts.values()), failures=failures, parts=parts)

    def layers(self, ops: list[Op]) -> dict[str, float]:
        out = {f"cli.cmd.{label}_s": median_of(ops, label) for label in self.commands}
        startup = statistics.median(
            self.python("probe.cli.startup", "-c", "pass")[0]
            for _ in range(STARTUP_SAMPLES))
        imported = statistics.median(
            self.python("probe.cli.import", "-c", "import repro.cli")[0]
            for _ in range(IMPORT_SAMPLES))
        out["cli.interp_startup_s"] = startup
        out["cli.import_s"] = imported - startup
        out["cli.inproc_pass_s"] = self.inproc_pass()
        return out

    def inproc_pass(self) -> float:
        """The same four commands through ``repro.cli.main`` in this
        process: a pass without interpreter start-up and import."""
        from repro.cli import main

        total = 0.0
        for label, argv in self.commands.items():
            captured = io.StringIO()
            with self.tracer.span(f"probe.cli.inproc.{label}") as s:
                with contextlib.redirect_stdout(captured):
                    code = main(list(argv))
            total += s.dur
            if code not in (0, None) or captured.getvalue() != self.reference[label]:
                raise ProbeFailure(f"in-process `{label}` differs from the subprocess")
        return total
