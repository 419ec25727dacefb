"""CoherenceChecker unit tests: clean runs stay silent, deliberately
corrupted cache state is caught with a structured InvariantViolation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import LINE_SIZE, itanium2_smp
from repro.core import Cobra, run_with_cobra
from repro.cpu import Machine
from repro.errors import (
    CobraError,
    InvariantViolation,
    MachineError,
    ValidationError,
)
from repro.memory.coherence import EXCLUSIVE, MODIFIED, SHARED
from repro.memory.hierarchy import LOAD, PREFETCH_EXCL, STORE
from repro.validate import AccessEvent, CoherenceChecker, EvictEvent
from repro.workloads import build_daxpy

BASE = 0x8000_0000


def addr(i: int) -> int:
    return BASE + i * LINE_SIZE


def line(i: int) -> int:
    return addr(i) // LINE_SIZE


def test_clean_sharing_run_is_silent(smp2):
    with CoherenceChecker(smp2, "strict") as checker:
        smp2.caches[0].access(0, addr(0), LOAD)
        smp2.caches[1].access(1, addr(0), LOAD)
        smp2.caches[0].access(2, addr(0), STORE)
        smp2.caches[1].access(3, addr(0), LOAD)
        smp2.caches[1].access(4, addr(1), PREFETCH_EXCL)
        smp2.caches[0].access(5, addr(1), STORE)
    assert checker.checks == 6
    assert checker.violations == []
    assert "6 accesses checked" in checker.summary()
    assert "0 violations" in checker.summary()


def test_double_owner_corruption_raises_structured_violation(smp2):
    with CoherenceChecker(smp2, "strict") as checker:
        smp2.caches[0].access(0, addr(0), LOAD)
        smp2.caches[1].access(1, addr(0), LOAD)
        # corrupt: promote both sharers to M behind the protocol's back
        smp2.caches[0].state[line(0)] = MODIFIED
        smp2.caches[1].state[line(0)] = MODIFIED
        with pytest.raises(InvariantViolation) as exc_info:
            checker.check_line(line(0))
        violation = exc_info.value
        assert violation.invariant == "exclusive-owner"
        assert violation.line == line(0)
        assert violation.states == {0: "M", 1: "M"}
        assert "[exclusive-owner]" in str(violation)
        # repair before detach so the exit-time structure sweep is clean
        smp2.caches[0].state[line(0)] = SHARED
        smp2.caches[1].state[line(0)] = SHARED


def test_owner_alongside_sharer_caught_on_next_access(smp2):
    with CoherenceChecker(smp2, "strict") as checker:
        smp2.caches[0].access(0, addr(0), LOAD)
        smp2.caches[1].access(1, addr(0), LOAD)
        smp2.caches[0].state[line(0)] = MODIFIED  # corrupt one sharer
        with pytest.raises(InvariantViolation) as exc_info:
            smp2.caches[1].access(2, addr(0), LOAD)
        violation = exc_info.value
        assert violation.invariant == "owner-alone"
        assert violation.line == line(0)
        assert violation.states == {0: "M", 1: "S"}
        assert isinstance(violation.event, AccessEvent)
        assert violation.event.cpu == 1
        assert violation.event.kind == LOAD
        smp2.caches[0].state[line(0)] = SHARED
    assert checker.violations == []  # strict mode raises, never records


def test_record_mode_accumulates_and_resyncs(smp2):
    with CoherenceChecker(smp2, "record") as checker:
        smp2.caches[0].access(0, addr(0), LOAD)
        smp2.caches[1].access(1, addr(0), LOAD)
        smp2.caches[0].state[line(0)] = MODIFIED
        smp2.caches[1].access(2, addr(0), LOAD)  # sees the corruption
        first = len(checker.violations)
        assert first >= 2  # owner-alone + shadow divergence
        seen = {v.invariant for v in checker.violations}
        assert "owner-alone" in seen
        assert "protocol-model" in seen
        # the shadow resynchronized: a second hit reports only the
        # still-true static violation, not a cascading model divergence
        smp2.caches[1].access(3, addr(0), LOAD)
        assert len(checker.violations) == first + 1
        assert checker.violations[-1].invariant == "owner-alone"
        smp2.caches[0].state[line(0)] = SHARED
    assert "violation(s)" in checker.summary()


def test_silently_dropped_line_diverges_from_shadow(smp2):
    with CoherenceChecker(smp2, "strict"):
        smp2.caches[0].access(0, addr(0), LOAD)  # sole reader: E
        assert smp2.caches[0].state[line(0)] == EXCLUSIVE
        # corrupt: the line vanishes from cpu0 without any bus event
        smp2.caches[0].l2.remove(line(0))
        smp2.caches[0].l3.remove(line(0))
        del smp2.caches[0].state[line(0)]
        with pytest.raises(InvariantViolation) as exc_info:
            smp2.caches[1].access(1, addr(0), LOAD)
        violation = exc_info.value
        assert violation.invariant == "protocol-model"
        assert "shadow directory" in str(violation)


def test_dirty_eviction_must_write_back(smp2):
    with CoherenceChecker(smp2, "strict") as checker:
        smp2.caches[0].access(0, addr(0), STORE)
        with pytest.raises(InvariantViolation) as exc_info:
            checker.on_evict(smp2.caches[0], line(0), MODIFIED, wrote_back=False)
        violation = exc_info.value
        assert violation.invariant == "writeback-on-dirty-evict"
        assert isinstance(violation.event, EvictEvent)
        assert "wb=False" in str(violation.event)
        # a clean (shared) eviction needs no writeback
        smp2.caches[1].access(1, addr(1), LOAD)
        checker.on_evict(smp2.caches[1], line(1), SHARED, wrote_back=False)
        smp2.caches[1].access(2, addr(1), LOAD)  # refill for a clean detach


def test_stateless_eviction_is_a_structure_violation(smp2):
    with CoherenceChecker(smp2, "record") as checker:
        checker.on_evict(smp2.caches[0], line(0), None, wrote_back=False)
    assert [v.invariant for v in checker.violations] == ["structure"]


def test_structure_sweep_catches_orphan_state(smp2):
    checker = CoherenceChecker(smp2, "record").attach()
    smp2.caches[0].access(0, addr(0), LOAD)
    smp2.caches[0].state[line(5)] = SHARED  # state with no L3 tag
    checker.detach()  # detach always runs the full structure sweep
    assert any(
        v.invariant == "structure" and "mirror" in str(v)
        for v in checker.violations
    )


def test_eviction_storm_under_strict_checking():
    # scale=256 shrinks L3 to ~96 lines: storing 200 distinct lines
    # forces dirty evictions + writebacks through the checker's
    # on_evict path, which must stay silent for the real protocol
    machine = Machine(itanium2_smp(2, scale=256))
    with CoherenceChecker(machine, "strict", structure_interval=64) as checker:
        for i in range(200):
            machine.caches[i % 2].access(i, addr(i), STORE)
        for i in range(200):
            machine.caches[(i + 1) % 2].access(200 + i, addr(i), LOAD)
    assert checker.checks == 400
    assert checker.violations == []


def test_checker_rejects_bad_modes_and_double_attach(smp2):
    with pytest.raises(ValidationError):
        CoherenceChecker(smp2, "off")
    with pytest.raises(ValidationError):
        CoherenceChecker(smp2, "sometimes")
    first = CoherenceChecker(smp2, "strict").attach()
    assert first.attach() is first  # idempotent for the same checker
    with pytest.raises(MachineError):
        CoherenceChecker(smp2, "strict").attach()
    first.detach()
    first.detach()  # idempotent


def test_cobra_config_enables_validation(smp4):
    prog = build_daxpy(smp4, 256, 4, outer_reps=1)
    config = replace(smp4.config.cobra, validate="strict")
    result, report = run_with_cobra(prog, "adaptive", config=config)
    assert result.retired > 0
    assert report.validate_checks > 0
    assert report.violations == []
    assert "validated" in report.summary()


def test_validate_off_by_default(smp4):
    prog = build_daxpy(smp4, 256, 4, outer_reps=1)
    cobra = Cobra(smp4, prog.image, "adaptive")
    assert cobra.checker is None


def test_env_var_overrides_config(smp4, monkeypatch):
    prog = build_daxpy(smp4, 256, 4, outer_reps=1)
    monkeypatch.setenv("REPRO_VALIDATE", "record")
    cobra = Cobra(smp4, prog.image, "adaptive")
    assert cobra.checker is not None
    assert cobra.checker.mode == "record"
    monkeypatch.setenv("REPRO_VALIDATE", "paranoid")
    with pytest.raises(CobraError):
        Cobra(smp4, prog.image, "adaptive")


def test_cobra_rejects_bad_config_mode(smp4):
    with pytest.raises(ValueError, match="validate must be one of"):
        replace(smp4.config.cobra, validate="paranoid")
