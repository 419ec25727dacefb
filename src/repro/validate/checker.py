"""Runtime MESI invariant checking.

The :class:`CoherenceChecker` subscribes to the memory hierarchies of
one :class:`~repro.cpu.machine.Machine` (via
:meth:`~repro.cpu.machine.Machine.attach_validator`) and re-checks, on
every completed access, the protocol invariants documented in
:mod:`repro.memory.coherence`:

* **exclusive-owner** — at most one cache holds a line in M or E;
* **owner-alone** — if any cache holds M or E, no other cache holds the
  line at all;
* **requester-state** — the requesting CPU ends every access in a state
  the access kind permits (a store must leave the line in M, an
  exclusive prefetch in E or M, ...);
* **protocol-model** — the observed global state of the accessed line
  matches a shadow directory the checker advances by the documented
  transition rules (the fabric keeps no directory of its own — it asks
  the caches — so this *is* the "directory state mirrors cache states"
  check, in either topology: the shadow plays the directory, the cache
  state maps are ground truth);
* **writeback-on-dirty-evict** — evicting an M line (or an
  exclusively-prefetched E line) performs a bus writeback;
* **structure** — L2 ⊆ L3 inclusion, the state map mirrors the L3 tags,
  and dirty/excl-alloc bookkeeping stays cache-resident (checked every
  ``structure_interval`` accesses and on detach; the per-access checks
  above stay O(n_cpus)).

Two modes: ``"strict"`` raises a structured
:class:`~repro.errors.InvariantViolation` at the first broken
invariant; ``"record"`` accumulates violations in
:attr:`CoherenceChecker.violations` for reporting (the shadow model is
resynchronized after each recorded violation so one defect does not
cascade into thousands of reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import VALIDATE_MODES
from ..errors import InvariantViolation, ValidationError
from ..memory.coherence import EXCLUSIVE, MODIFIED, SHARED, state_name
from ..memory.hierarchy import (
    ATOMIC,
    LOAD,
    LOAD_BIAS,
    PREFETCH,
    PREFETCH_EXCL,
    STORE,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cpu.machine import Machine
    from ..memory.hierarchy import CpuCacheSystem

__all__ = ["AccessEvent", "EvictEvent", "CoherenceChecker", "VALIDATE_MODES"]

_KIND_NAMES = {
    LOAD: "load",
    STORE: "store",
    PREFETCH: "lfetch",
    PREFETCH_EXCL: "lfetch.excl",
    LOAD_BIAS: "ld8.bias",
    ATOMIC: "fetchadd8",
}

#: States the requester may legally end each access kind in.
_POST_STATES = {
    LOAD: (SHARED, EXCLUSIVE, MODIFIED),
    PREFETCH: (SHARED, EXCLUSIVE, MODIFIED),
    STORE: (MODIFIED,),
    ATOMIC: (MODIFIED,),
    LOAD_BIAS: (EXCLUSIVE, MODIFIED),
    PREFETCH_EXCL: (EXCLUSIVE, MODIFIED),
}


@dataclass(frozen=True)
class AccessEvent:
    """One completed data access, as seen by the checker."""

    cpu: int
    line: int
    kind: int

    def __str__(self) -> str:
        return f"cpu{self.cpu} {_KIND_NAMES.get(self.kind, self.kind)} line {self.line:#x}"


@dataclass(frozen=True)
class EvictEvent:
    """One L3 eviction, as seen by the checker."""

    cpu: int
    line: int
    state: int | None
    wrote_back: bool

    def __str__(self) -> str:
        return (
            f"cpu{self.cpu} evict line {self.line:#x} "
            f"state {state_name(self.state)} wb={self.wrote_back}"
        )


class CoherenceChecker:
    """Checks coherence invariants on every memory-hierarchy event."""

    def __init__(
        self,
        machine: "Machine",
        mode: str = "strict",
        structure_interval: int = 4096,
    ) -> None:
        if mode not in ("record", "strict"):
            raise ValidationError(
                f"checker mode must be 'record' or 'strict', got {mode!r}"
            )
        self.machine = machine
        self.mode = mode
        self.structure_interval = structure_interval
        self.violations: list[InvariantViolation] = []
        self.checks = 0
        #: shadow directory: line -> {cpu: expected MESI state}
        self.shadow: dict[int, dict[int, int]] = {}
        self._attached = False

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "CoherenceChecker":
        """Subscribe to every cache; seed the shadow from current state."""
        if self._attached:
            return self
        self.machine.attach_validator(self)
        self.shadow.clear()
        for cache in self.machine.caches:
            for line, st in cache.state.items():
                self.shadow.setdefault(line, {})[cache.cpu_id] = st
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        for cache in self.machine.caches:
            self.check_structure(cache)
        self.machine.detach_validator()
        self._attached = False

    def __enter__(self) -> "CoherenceChecker":
        return self.attach()

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    # -- violation plumbing ----------------------------------------------------

    def _line_states(self, line: int) -> dict[int, str]:
        return {
            cache.cpu_id: state_name(cache.state[line])
            for cache in self.machine.caches
            if line in cache.state
        }

    def _violate(
        self, invariant: str, message: str, line: int | None, event: object
    ) -> None:
        violation = InvariantViolation(
            message,
            invariant=invariant,
            line=line,
            states=self._line_states(line) if line is not None else {},
            event=event,
        )
        if self.mode == "strict":
            raise violation
        self.violations.append(violation)

    # -- per-event checks ----------------------------------------------------------

    def check_line(self, line: int, event: object = None) -> None:
        """Assert the static MESI invariants for one line, as-is."""
        holders = {
            cache.cpu_id: cache.state[line]
            for cache in self.machine.caches
            if line in cache.state
        }
        owners = [cpu for cpu, st in holders.items() if st in (EXCLUSIVE, MODIFIED)]
        if len(owners) > 1:
            self._violate(
                "exclusive-owner",
                f"{len(owners)} caches own the line in M/E",
                line,
                event,
            )
        elif owners and len(holders) > 1:
            self._violate(
                "owner-alone",
                f"cpu{owners[0]} owns the line in "
                f"{state_name(holders[owners[0]])} alongside other holders",
                line,
                event,
            )

    def _expected(self, requester: int, prior: dict[int, int], kind: int) -> dict[int, int]:
        """Advance the shadow directory for one access by the documented
        transition rules (repro.memory.coherence, hierarchy docstring)."""
        held = prior.get(requester)
        if kind in (STORE, ATOMIC):
            return {requester: MODIFIED}
        if kind == LOAD_BIAS:
            if held in (EXCLUSIVE, MODIFIED):
                return dict(prior)  # silent hit, no transition
            return {requester: MODIFIED}
        if kind == PREFETCH_EXCL:
            if held in (EXCLUSIVE, MODIFIED):
                return dict(prior)
            return {requester: EXCLUSIVE}
        # LOAD / PREFETCH
        if held is not None:
            return dict(prior)  # hit: no coherence action
        expected = {cpu: SHARED for cpu in prior}  # remote M/E demoted to S
        if prior:
            expected[requester] = SHARED
        else:
            # plain lfetch installs "the usual shared state" even when the
            # bus would grant E (hierarchy policy); a demand load takes E
            expected[requester] = EXCLUSIVE if kind == LOAD else SHARED
        return expected

    def after_access(self, cache: "CpuCacheSystem", line: int, kind: int) -> None:
        """Validate the global state of ``line`` after one access."""
        self.checks += 1
        event = AccessEvent(cache.cpu_id, line, kind)

        actual = {
            c.cpu_id: c.state[line]
            for c in self.machine.caches
            if line in c.state
        }
        self.check_line(line, event)

        held = actual.get(cache.cpu_id)
        allowed = _POST_STATES.get(kind, ())
        if held not in allowed:
            self._violate(
                "requester-state",
                f"requester holds {state_name(held)} after "
                f"{_KIND_NAMES.get(kind, kind)} "
                f"(allowed: {'/'.join(state_name(s) for s in allowed)})",
                line,
                event,
            )

        expected = self._expected(cache.cpu_id, self.shadow.get(line, {}), kind)
        if actual != expected:
            want = ",".join(
                f"cpu{c}={state_name(s)}" for c, s in sorted(expected.items())
            ) or "no holder"
            self._violate(
                "protocol-model",
                f"cache states diverge from the shadow directory "
                f"(expected {{{want}}})",
                line,
                event,
            )
        # resync so a recorded divergence does not cascade
        if actual:
            self.shadow[line] = actual
        else:
            self.shadow.pop(line, None)

        if self.structure_interval and self.checks % self.structure_interval == 0:
            self.check_structure(cache)

    def on_evict(
        self,
        cache: "CpuCacheSystem",
        line: int,
        state: int | None,
        wrote_back: bool,
    ) -> None:
        """Validate one L3 eviction performed during a fill."""
        event = EvictEvent(cache.cpu_id, line, state, wrote_back)
        if state is None:
            self._violate(
                "structure",
                "evicted an L3-resident line with no coherence state",
                line,
                event,
            )
        if state == MODIFIED and not wrote_back:
            self._violate(
                "writeback-on-dirty-evict",
                "dirty (M) line evicted without a bus writeback",
                line,
                event,
            )
        holders = self.shadow.get(line)
        if holders is not None:
            holders.pop(cache.cpu_id, None)
            if not holders:
                del self.shadow[line]

    # -- structural sweep --------------------------------------------------------

    def check_structure(self, cache: "CpuCacheSystem") -> None:
        """L2 ⊆ L3 inclusion and bookkeeping-set residency for one CPU."""
        l2_lines = cache.l2.lines()
        l3_lines = cache.l3.lines()
        problems = []
        if not l2_lines <= l3_lines:
            problems.append("L2 holds lines absent from L3 (inclusion)")
        if set(cache.state) != l3_lines:
            problems.append("state map does not mirror the L3 tags")
        if not cache.l2_dirty <= l2_lines:
            problems.append("dirty set holds non-L2-resident lines")
        if not cache.excl_alloc <= l3_lines:
            problems.append("excl-alloc set holds uncached lines")
        for problem in problems:
            self._violate("structure", f"cpu{cache.cpu_id}: {problem}", None, None)

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> str:
        state = "strict" if self.mode == "strict" else "record"
        text = f"coherence checker ({state}): {self.checks} accesses checked"
        if self.violations:
            text += f", {len(self.violations)} violation(s)"
            for v in self.violations[:8]:
                text += f"\n  {v}"
            if len(self.violations) > 8:
                text += f"\n  ... and {len(self.violations) - 8} more"
        else:
            text += ", 0 violations"
        return text
