"""Exception hierarchy for the COBRA reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Subsystems raise the
most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class IsaError(ReproError):
    """Base class for ISA-level errors (encoding, registers, bundles)."""


class AssemblyError(IsaError):
    """Raised when assembly text cannot be parsed into instructions."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RegisterError(IsaError):
    """Raised on an out-of-range or ill-typed register access."""


class BundleError(IsaError):
    """Raised when instructions cannot be packed into a legal bundle."""


class BinaryError(IsaError):
    """Raised on malformed binary images or illegal patches."""


class MemoryError_(ReproError):
    """Raised on invalid simulated memory operations.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class MachineError(ReproError):
    """Raised on machine construction or execution faults."""


class SimulationFault(MachineError):
    """Raised when a simulated core faults (bad PC, illegal instruction)."""

    def __init__(self, message: str, pc: int | None = None, cpu: int | None = None) -> None:
        self.pc = pc
        self.cpu = cpu
        prefix = ""
        if cpu is not None:
            prefix += f"cpu {cpu}: "
        if pc is not None:
            prefix += f"pc {pc:#x}: "
        super().__init__(prefix + message)


class HpmError(ReproError):
    """Raised on invalid performance-monitoring configuration."""


class RuntimeError_(ReproError):
    """Raised by the simulated threading / OpenMP runtime.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`RuntimeError`.
    """


class CompilerError(ReproError):
    """Raised when kernel IR cannot be lowered to machine code."""


class CobraError(ReproError):
    """Raised by the COBRA framework (trace cache, optimizer, deployment)."""


class TraceCacheError(CobraError):
    """Raised when the trace cache is exhausted or a patch is illegal."""


class FaultError(ReproError):
    """Raised on invalid use of the fault-injection subsystem itself.

    Never raised *because* a fault was injected — injected faults must
    be degraded around, not propagated; this error flags a malformed
    plan or ledger misuse (e.g. classifying the same event twice).
    """


class PersistError(ReproError):
    """Raised on invalid use of the persistence subsystem itself.

    Never raised *because* a checkpoint is damaged — recovery falls
    back past corrupt snapshots and truncated journal tails, accounting
    them in stats; this error flags a malformed store layout or API
    misuse (e.g. appending to a journal after recovery repair failed).
    """


class ProfileStateError(PersistError):
    """A persisted control-plane value failed structural validation.

    Raised by the schema trees of :mod:`repro.shape` when a recovered
    checkpoint state, profile, profile-database entry, fleet snapshot
    or fleet journal record is torn, truncated, or schema-drifted.
    Loading is two-phase (validate everything, then commit), so when
    this raises nothing live has changed.  ``path`` names the offending value
    (``misses.by_pc[4096].lines[0]``), ``fields`` the record fields on
    that path, and ``leaf`` says whether a scalar held a bad value
    rather than a container having the wrong shape.
    """

    def __init__(self, message: str, leaf: bool = False) -> None:
        super().__init__(message)
        self.message = message
        self.leaf = leaf
        self.path = ""
        self.fields: list[str] = []

    def under(self, key: object, field: bool = False) -> "ProfileStateError":
        """The same error, seen one level up: at record field ``key``
        (``field``) or at map key / list index ``key``."""
        dot = "." if self.path[:1] not in ("", "[") else ""
        if field:
            self.fields.insert(0, str(key))
        self.path = f"{key if field else f'[{key}]'}{dot}{self.path}"
        return self

    def __str__(self) -> str:
        return f"{self.path}: {self.message}" if self.path else self.message


class SimulatedCrash(ReproError):
    """The fault injector killed the run at a persistence boundary.

    Models ``kill -9`` at a journal/snapshot write: the process dies,
    volatile state is gone, and only bytes the injectable disk had made
    durable (possibly including a torn final record) survive.  The fuzz
    table's crash row catches this, then proves a resumed run is
    indistinguishable from one that was never interrupted.
    """


class FleetError(ReproError):
    """Raised on invalid use of the fleet control plane itself.

    Never raised *because* a transport fault fired or a stream went bad
    — the daemon quarantines poisoned streams and rejects damaged
    frames, the agent degrades to local-only optimization; this error
    flags a malformed fleet configuration or protocol misuse.
    """


class WorkloadError(ReproError):
    """Raised on invalid workload parameters."""


class ValidationError(ReproError):
    """Raised on invalid use of the validation subsystem itself."""


class InvariantViolation(ValidationError):
    """A documented invariant did not hold during a checked run.

    Structured so tests and the ``repro validate`` CLI can report
    exactly what broke: ``invariant`` names the violated rule,
    ``line`` is the cache-line index involved (``None`` for ISA-level
    violations), ``states`` maps cpu id -> MESI state letter at the
    time of the check, and ``event`` describes the triggering access.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "",
        line: int | None = None,
        states: dict[int, str] | None = None,
        event: object = None,
    ) -> None:
        self.invariant = invariant
        self.line = line
        self.states = dict(states) if states else {}
        self.event = event
        parts = []
        if invariant:
            parts.append(f"[{invariant}]")
        parts.append(message)
        if line is not None:
            parts.append(f"line {line:#x}")
        if self.states:
            inner = ",".join(f"cpu{c}={s}" for c, s in sorted(self.states.items()))
            parts.append(f"states {{{inner}}}")
        if event is not None:
            parts.append(f"on {event}")
        super().__init__(" ".join(parts))
