"""Profiler determinism and restore validation (profile-DB satellites).

``backward_branches()`` feeds loop selection, which feeds deployments,
which feed the cross-run profile database — so its order must be a pure
function of the aggregate counts, never of sample arrival order.  And
``restore_state()`` is the single door through which persisted profiles
(checkpoints *and* database entries) re-enter a live optimizer, so it
must be validate-then-commit: a structurally damaged profile raises
:class:`~repro.errors.ProfileStateError` and leaves the profiler
exactly as it was.
"""

from __future__ import annotations

import copy

import pytest

from repro.config import CobraConfig
from repro.core.profiler import SystemProfiler
from repro.errors import PersistError, ProfileStateError


def _profiler() -> SystemProfiler:
    return SystemProfiler(CobraConfig())


class TestBackwardBranchOrder:
    def test_ties_break_on_pair_not_insertion_order(self):
        a = _profiler()
        a.btb_pairs = {(0x200, 0x100): 5, (0x180, 0x80): 5, (0x300, 0x2F0): 5}
        b = _profiler()
        b.btb_pairs = {(0x300, 0x2F0): 5, (0x180, 0x80): 5, (0x200, 0x100): 5}
        want = [
            ((0x180, 0x80), 5),
            ((0x200, 0x100), 5),
            ((0x300, 0x2F0), 5),
        ]
        assert a.backward_branches() == want
        assert b.backward_branches() == want

    def test_frequency_still_dominates(self):
        p = _profiler()
        p.btb_pairs = {(0x100, 0x80): 2, (0x400, 0x300): 9, (0x200, 0x100): 2}
        assert p.backward_branches() == [
            ((0x400, 0x300), 9),
            ((0x100, 0x80), 2),
            ((0x200, 0x100), 2),
        ]

    def test_forward_branches_excluded(self):
        p = _profiler()
        p.btb_pairs = {(0x100, 0x200): 9, (0x200, 0x100): 1}
        assert p.backward_branches() == [((0x200, 0x100), 1)]


def _valid_state() -> dict:
    return {
        "misses": {
            "by_pc": {
                "4096": {
                    "samples": 4,
                    "coherent": 2,
                    "total_latency": 800,
                    "lines": [1, 2],
                    "threads": [0],
                }
            },
            "total_events": 4,
            "total_coherent": 2,
        },
        "btb": [[4160, 4096, 7]],
        "samples_seen": 4,
        "quarantined": {},
        "quarantined_total": 0,
        "bus_delta": 10,
        "coherent_delta": 3,
    }


def _snapshot(p: SystemProfiler) -> tuple:
    return (
        copy.deepcopy(p.misses.by_pc),
        p.misses.total_events,
        p.misses.total_coherent,
        dict(p.btb_pairs),
        p.samples_seen,
        dict(p.quarantined),
        p.quarantined_total,
        p._bus_delta,
        p._coherent_delta,
    )


class TestRestoreState:
    def test_round_trip_through_export(self):
        p = _profiler()
        p.restore_state(_valid_state())
        assert p.samples_seen == 4
        assert p.btb_pairs == {(4160, 4096): 7}
        assert p.misses.by_pc[4096].coherent == 2
        q = _profiler()
        q.restore_state(p.export_state())
        assert q.export_state() == p.export_state()

    def test_error_is_a_persist_error(self):
        assert issubclass(ProfileStateError, PersistError)

    @pytest.mark.parametrize(
        "mutate,path_fragment",
        [
            (lambda s: s.pop("misses"), "misses"),
            (lambda s: s["misses"].pop("by_pc"), "by_pc"),
            (lambda s: s.pop("btb"), "btb"),
            (lambda s: s.pop("samples_seen"), "samples_seen"),
            (lambda s: s.pop("bus_delta"), "bus_delta"),
            (
                lambda s: s["misses"]["by_pc"].update({"not-a-pc": s["misses"]["by_pc"]["4096"]}),
                "not-a-pc",
            ),
            (
                lambda s: s["misses"]["by_pc"]["4096"].pop("samples"),
                "samples",
            ),
            (
                lambda s: s["misses"]["by_pc"]["4096"].update(samples="4"),
                "samples",
            ),
            (
                lambda s: s["misses"]["by_pc"]["4096"].update(samples=True),
                "samples",
            ),
            (
                lambda s: s["misses"]["by_pc"]["4096"].update(lines="12"),
                "lines",
            ),
            (lambda s: s.update(btb=[[1, 2]]), "btb"),
            (lambda s: s.update(btb=[[1, 2, "3"]]), "btb"),
            (lambda s: s.update(samples_seen=1.5), "samples_seen"),
            (lambda s: s.update(quarantined=[]), "quarantined"),
            (lambda s: s.update(misses=[]), "misses"),
            (lambda s: s["misses"].update(by_pc=[]), "misses.by_pc"),
            (lambda s: s["misses"]["by_pc"].update({"4096": 7}), "misses.by_pc[4096]"),
            (
                lambda s: s["misses"]["by_pc"]["4096"].update(threads=[0, "1"]),
                "misses.by_pc[4096].threads[1]",
            ),
            (lambda s: s["misses"].update(total_events=None), "misses.total_events"),
            (lambda s: s.update(btb=[[1, 2, True]]), "btb[0][2]"),
            (lambda s: s.update(btb={}), "btb"),
            (lambda s: s.update(quarantined={"stale-index": "2"}), "quarantined[stale-index]"),
            (lambda s: s.update(coherent_delta="3"), "coherent_delta"),
        ],
    )
    def test_structural_damage_raises_with_path(self, mutate, path_fragment):
        state = _valid_state()
        mutate(state)
        with pytest.raises(ProfileStateError) as err:
            _profiler().restore_state(state)
        assert path_fragment in str(err.value)

    def test_merge_is_a_walk_of_the_same_shape(self):
        from repro.core.profiler import STATE

        a, b = _valid_state(), _valid_state()
        b["misses"]["by_pc"]["4096"].update(samples=1, lines=[2, 9])
        b["misses"]["by_pc"]["8192"] = dict(b["misses"]["by_pc"]["4096"])
        b["btb"] = [[4160, 4096, 1], [4200, 4100, 2]]
        merged = STATE.merge(a, b)
        assert merged["misses"]["by_pc"]["4096"] == {
            "samples": 5, "coherent": 4, "total_latency": 1600,
            "lines": [1, 2, 9], "threads": [0],
        }
        assert list(merged["misses"]["by_pc"]) == ["4096", "8192"]
        assert merged["btb"] == [[4160, 4096, 8], [4200, 4100, 2]]
        assert merged["bus_delta"] == 20 and list(merged) == list(a)
        # and what merge writes, restore accepts
        p = _profiler()
        p.restore_state(merged)
        assert p.export_state() == merged

    def test_non_dict_state_raises(self):
        with pytest.raises(ProfileStateError):
            _profiler().restore_state([1, 2, 3])

    def test_failed_restore_leaves_profiler_untouched(self):
        p = _profiler()
        p.restore_state(_valid_state())
        before = _snapshot(p)
        bad = _valid_state()
        bad["misses"]["by_pc"]["4096"]["coherent"] = "2"  # mistyped deep field
        with pytest.raises(ProfileStateError):
            p.restore_state(bad)
        assert _snapshot(p) == before

    def test_float_deltas_accepted(self):
        # new_window() decays the deltas by a float factor, so an
        # exported mid-run profile legitimately carries floats here
        state = _valid_state()
        state["bus_delta"] = 2.5
        state["coherent_delta"] = 1.25
        p = _profiler()
        p.restore_state(state)
        assert p.coherent_ratio() == 0.5
