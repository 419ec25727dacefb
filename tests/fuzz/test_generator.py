"""Scenario generator: determinism, coverage, and parameter contracts."""

import dataclasses

import pytest

from repro.fuzz.generator import (
    LOOP_CLASSES,
    ScenarioParams,
    describe,
    generate_params,
)


class TestDeterminism:
    def test_same_seed_same_params(self):
        assert generate_params(42) == generate_params(42)

    def test_different_seeds_differ_somewhere(self):
        params = [generate_params(s) for s in range(20)]
        assert len({describe(p) for p in params}) > 1

    def test_fault_seed_override_is_pure(self):
        base = generate_params(12)
        forced = generate_params(12, fault_seed=base.fault_seed)
        assert forced == base


class TestCoverage:
    def test_all_loop_classes_reachable(self):
        seen = {generate_params(s).loop_class for s in range(200)}
        assert seen == set(LOOP_CLASSES)

    def test_both_machine_kinds_reachable(self):
        seen = {generate_params(s).machine_kind for s in range(100)}
        assert seen == {"smp", "altix"}

    def test_boundary_sharing_chunks_generated(self):
        # chunk % 16 != 0 means adjacent static chunks share a cache line
        shared = [p for p in map(generate_params, range(100)) if p.share_boundary]
        assert shared
        assert all(p.chunk % 16 != 0 for p in shared)

    def test_altix_thread_counts_even(self):
        for p in map(generate_params, range(200)):
            if p.machine_kind == "altix":
                assert p.n_threads % 2 == 0

    def test_trip_counts_cover_short_and_long_regimes(self):
        # some scenarios stay in the ramp-dominated short-run regime,
        # others reach compiled steady state — both must occur
        totals = {p.reps >= 4 for p in map(generate_params, range(100))}
        assert totals == {True, False}


class TestParamsValidation:
    def test_rejects_unknown_loop_class(self):
        with pytest.raises(ValueError):
            dataclasses.replace(generate_params(0), loop_class="quantum")

    def test_rejects_unknown_machine_kind(self):
        with pytest.raises(ValueError):
            dataclasses.replace(generate_params(0), machine_kind="cray")

    def test_n_is_chunk_times_threads(self):
        p = generate_params(7)
        assert p.n == p.chunk * p.n_threads

    def test_describe_is_stable_and_one_line(self):
        for s in range(30):
            d = describe(generate_params(s))
            assert "\n" not in d
            assert d == describe(generate_params(s))

    def test_params_are_frozen(self):
        p = generate_params(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.seed = 1

    def test_params_are_hashable_and_picklable(self):
        import pickle

        p = generate_params(3)
        assert hash(p) == hash(generate_params(3))
        assert pickle.loads(pickle.dumps(p)) == p
