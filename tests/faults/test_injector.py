"""FaultInjector: deterministic schedules and exact ledger accounting."""

import pytest

from repro.config import FaultConfig
from repro.errors import FaultError
from repro.faults import (
    ALL_FAULTS,
    LOOP_FAULTS,
    PATCH_FAULTS,
    PERSIST_FAULTS,
    SAMPLE_FAULTS,
    TOLERATED_AT_INJECTION,
    FaultInjector,
    zero_rate_faults,
)
from repro.hpm.counters import COUNTER_MASK
from repro.hpm.sample import Sample


def _sample(index=0, thread=0, counters=(1, 2, 3, 4), miss_latency=150):
    return Sample(
        index=index,
        pc=0x100,
        pid=0,
        thread_id=thread,
        cpu_id=thread,
        counters=counters,
        btb=(),
        miss_pc=0x100 if miss_latency is not None else None,
        miss_latency=miss_latency,
        miss_addr=0x8000_0000 if miss_latency is not None else None,
        cycles=10,
    )


def _schedule(injector, n=300):
    out = []
    for _ in range(n):
        for draw in (injector.sample_fault, injector.patch_fault, injector.loop_fault):
            event = draw()
            out.append(None if event is None else (event.kind, event.surface))
    return out


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        cfg = FaultConfig(seed=42, sample_rate=0.3, patch_rate=0.3, loop_rate=0.3)
        assert _schedule(FaultInjector(cfg)) == _schedule(FaultInjector(cfg))

    def test_different_seed_different_schedule(self):
        a = FaultInjector(FaultConfig(seed=1, sample_rate=0.5))
        b = FaultInjector(FaultConfig(seed=2, sample_rate=0.5))
        assert _schedule(a) != _schedule(b)

    def test_surfaces_route_their_own_kinds(self):
        inj = FaultInjector(FaultConfig(sample_rate=1.0, patch_rate=1.0, loop_rate=1.0))
        for _ in range(50):
            assert inj.sample_fault().kind in SAMPLE_FAULTS
            assert inj.patch_fault().kind in PATCH_FAULTS
            assert inj.loop_fault().kind in LOOP_FAULTS

    def test_zero_rate_never_fires(self):
        inj = FaultInjector(FaultConfig(sample_rate=0.0, patch_rate=0.0, loop_rate=0.0))
        assert all(entry is None for entry in _schedule(inj))
        assert inj.events == []

    def test_zero_rate_faults_draw_nothing(self):
        inj = FaultInjector(zero_rate_faults())
        for _ in range(50):
            assert inj.sample_fault() is None
            assert inj.patch_fault() is None
            assert inj.loop_fault() is None
        assert inj.ledger().injected == 0

    def test_kinds_filter_restricts_draws(self):
        inj = FaultInjector(
            FaultConfig(sample_rate=1.0, patch_rate=1.0, kinds=("torn_patch",))
        )
        for _ in range(20):
            assert inj.sample_fault() is None  # no sample kind allowed
            assert inj.patch_fault().kind == "torn_patch"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultInjector(FaultConfig(kinds=("bit_rot",)))


class TestLedger:
    def test_tolerated_at_injection_preclassified(self):
        inj = FaultInjector(FaultConfig(sample_rate=1.0, loop_rate=1.0))
        for _ in range(200):
            inj.sample_fault()
            inj.loop_fault()
        ledger = inj.ledger()
        # every tolerated-class kind starts settled; the rest start open
        assert ledger.tolerated == sum(
            count for kind, count in ledger.by_kind.items()
            if kind in TOLERATED_AT_INJECTION
        )
        assert ledger.outstanding == sum(
            count for kind, count in ledger.by_kind.items()
            if kind not in TOLERATED_AT_INJECTION
        )

    def test_detected_settles_and_double_classify_raises(self):
        inj = FaultInjector(FaultConfig(patch_rate=1.0, kinds=("torn_patch",)))
        event = inj.patch_fault()
        inj.detected(event, "reverted")
        assert inj.ledger().detected == 1
        assert inj.ledger().accounted
        with pytest.raises(FaultError):
            inj.detected(event)
        with pytest.raises(FaultError):
            inj.tolerated(event)

    def test_claim_is_fifo_per_surface(self):
        inj = FaultInjector(FaultConfig(loop_rate=1.0, kinds=("monitor_death",)))
        first = inj.loop_fault()
        second = inj.loop_fault()
        assert inj.claim("loop", "watchdog") is first
        assert inj.claim("loop", "watchdog") is second
        assert inj.claim("loop") is None
        assert inj.ledger().accounted

    def test_summary_flags_unaccounted(self):
        inj = FaultInjector(FaultConfig(patch_rate=1.0, kinds=("stale_image",)))
        inj.patch_fault()
        ledger = inj.ledger()
        assert not ledger.accounted
        assert "UNACCOUNTED" in ledger.summary()

    def test_all_fault_kinds_partition_by_surface(self):
        assert set(ALL_FAULTS) == (
            set(SAMPLE_FAULTS) | set(PATCH_FAULTS) | set(LOOP_FAULTS)
            | set(PERSIST_FAULTS)
        )
        assert len(ALL_FAULTS) == len(set(ALL_FAULTS))

    def test_persist_faults_are_never_drawn_randomly(self):
        # the crash gate and recovery-time observation are the only
        # sources: max-rate schedules must never produce a persist kind
        inj = FaultInjector(
            FaultConfig(seed=3, sample_rate=1.0, patch_rate=1.0, loop_rate=1.0)
        )
        drawn = {entry[0] for entry in _schedule(inj, n=200) if entry}
        assert drawn and not (drawn & set(PERSIST_FAULTS))


class TestCorruption:
    def _corrupt(self, seed, sample):
        inj = FaultInjector(
            FaultConfig(seed=seed, sample_rate=1.0, kinds=("corrupt_sample",))
        )
        event = inj.sample_fault()
        return inj, event, inj.corrupt_sample(event, sample)

    def test_corruption_is_always_detectable(self):
        # whatever field the PRNG damages, the anomaly check must fire:
        # in-range corruption would be indistinguishable from noise
        for seed in range(40):
            _, _, damaged = self._corrupt(seed, _sample())
            assert damaged.anomaly(COUNTER_MASK) is not None

    def test_claim_sample_settles_exact_event(self):
        inj, event, damaged = self._corrupt(0, _sample())
        assert inj.claim_sample(damaged, "quarantined") is event
        assert event.status == "detected"
        assert inj.ledger().accounted

    def test_claim_sample_ignores_unwatched(self):
        inj = FaultInjector(FaultConfig())
        assert inj.claim_sample(_sample()) is None

    def test_samples_lost_tolerates_destroyed_corruption(self):
        inj, event, damaged = self._corrupt(0, _sample())
        inj.samples_lost([_sample(index=5), damaged])
        assert event.status == "tolerated"
        assert inj.ledger().accounted
        # the watch entry is consumed: a later claim finds nothing
        assert inj.claim_sample(damaged) is None


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(sample_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(patch_rate=-0.1)

    def test_frozen(self):
        cfg = FaultConfig()
        with pytest.raises(AttributeError):
            cfg.seed = 3

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed"):
            FaultConfig(seed=-1)

    def test_crash_fields_validated(self):
        with pytest.raises(ValueError, match="crash_write"):
            FaultConfig(crash_write=0)
        with pytest.raises(ValueError, match="crash_torn_bytes"):
            FaultConfig(crash_torn_bytes=-1)
        cfg = FaultConfig(crash_write=3, crash_torn_bytes=0)
        assert cfg.crash_write == 3 and cfg.crash_torn_bytes == 0


class TestCrashGate:
    def test_fires_exactly_once_at_the_nth_write(self):
        inj = FaultInjector(FaultConfig(crash_write=3, crash_torn_bytes=7))
        results = [inj.crash_gate() for _ in range(5)]
        assert results == [
            (False, None), (False, None), (True, 7), (False, None), (False, None)
        ]
        assert inj.durable_writes == 5

    def test_boundary_kill_has_no_torn_bytes(self):
        inj = FaultInjector(FaultConfig(crash_write=1))
        assert inj.crash_gate() == (True, None)

    def test_disarmed_gate_never_fires(self):
        inj = FaultInjector(FaultConfig())
        assert all(inj.crash_gate() == (False, None) for _ in range(10))

    def test_gate_consumes_no_randomness(self):
        # the crashed run's schedule must stay a prefix of the
        # uninterrupted run's: the gate may not advance the PRNG
        cfg = FaultConfig(seed=11, sample_rate=0.5)
        plain = FaultInjector(cfg)
        gated = FaultInjector(FaultConfig(seed=11, sample_rate=0.5, crash_write=99))
        for _ in range(50):
            gated.crash_gate()
        for _ in range(100):
            a, b = plain.sample_fault(), gated.sample_fault()
            assert (a is None) == (b is None)
            if a is not None:
                assert a.kind == b.kind


class TestObserve:
    def test_observed_wreckage_is_born_detected(self):
        inj = FaultInjector(FaultConfig())
        event = inj.observe("torn_journal_record", "persist", "crc mismatch at 42")
        assert event.status == "detected"
        assert event.surface == "persist"
        ledger = inj.ledger()
        assert ledger.injected == 1 and ledger.detected == 1
        assert ledger.accounted

    def test_observed_events_join_the_ledger_in_order(self):
        inj = FaultInjector(FaultConfig())
        inj.observe("corrupt_snapshot", "persist", "snap-00000001.ckpt")
        inj.observe("stray_snapshot_tmp", "persist", "snap-00000002.ckpt.tmp")
        kinds = [e.kind for e in inj.ledger().events]
        assert kinds == ["corrupt_snapshot", "stray_snapshot_tmp"]
