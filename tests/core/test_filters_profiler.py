"""Two-level filtering and system-wide profile aggregation."""

from repro.config import CobraConfig
from repro.core.filters import MissProfile
from repro.core.profiler import SystemProfiler
from repro.hpm.sample import Sample


def _sample(
    thread=0,
    pc=0x100,
    counters=(0, 0, 0, 0),
    btb=(),
    miss=None,
    index=0,
):
    miss_pc, miss_lat, miss_addr = miss if miss else (None, None, None)
    return Sample(
        index=index,
        pc=pc,
        pid=0,
        thread_id=thread,
        cpu_id=thread,
        counters=counters,
        btb=tuple(btb),
        miss_pc=miss_pc,
        miss_latency=miss_lat,
        miss_addr=miss_addr,
        cycles=0,
    )


class TestMissProfile:
    def test_level_two_classification(self):
        profile = MissProfile(CobraConfig())
        profile.add_sample(_sample(miss=(0x100, 140, 0x8000_0000)))  # memory band
        profile.add_sample(_sample(miss=(0x100, 195, 0x8000_0080)))  # coherent band
        stats = profile.by_pc[0x100]
        assert stats.samples == 2 and stats.coherent == 1
        assert stats.total_latency == 140 + 195
        assert len(stats.lines) == 2

    def test_level_one_floor(self):
        profile = MissProfile(CobraConfig())
        profile.add_sample(_sample(miss=(0x100, 12, 0x8000_0000)))  # L3-hit band
        assert not profile.by_pc

    def test_samples_without_miss_ignored(self):
        profile = MissProfile(CobraConfig())
        profile.add_sample(_sample())
        assert profile.total_events == 0

    def test_hot_pcs_ordered_by_stall(self):
        profile = MissProfile(CobraConfig())
        for _ in range(3):
            profile.add_sample(_sample(miss=(0x200, 140, 0x8000_0000)))
        profile.add_sample(_sample(miss=(0x300, 500, 0x8000_0000)))
        hot = profile.hot_pcs()
        assert hot[0].pc == 0x300  # bigger total latency

    def test_decay_ages_and_prunes(self):
        profile = MissProfile(CobraConfig())
        profile.add_sample(_sample(miss=(0x100, 195, 0x8000_0000)))
        profile.decay(0.5)
        assert 0x100 not in profile.by_pc  # 1 * 0.5 -> 0 -> pruned
        assert profile.total_events == 0


class TestSystemProfiler:
    def _monitor_stub(self, samples):
        class Stub:
            def __init__(self, s):
                self._s = list(s)

            def drain(self):
                out, self._s = self._s, []
                return out

        return Stub(samples)

    def test_coherent_ratio_from_counter_deltas(self):
        profiler = SystemProfiler(CobraConfig())
        monitor = self._monitor_stub(
            [
                _sample(thread=0, counters=(100, 10, 10, 10), index=0),
                _sample(thread=0, counters=(200, 20, 30, 30), index=1),
            ]
        )
        assert profiler.ingest([monitor]) == 2
        # deltas: bus=100, coherent=(10+20+20)=50
        assert abs(profiler.coherent_ratio() - 0.5) < 1e-9

    def test_per_thread_counter_bases(self):
        profiler = SystemProfiler(CobraConfig())
        monitor = self._monitor_stub(
            [
                _sample(thread=0, counters=(100, 0, 0, 0), index=0),
                _sample(thread=1, counters=(500, 0, 0, 0), index=0),
                _sample(thread=0, counters=(150, 25, 0, 0), index=1),
            ]
        )
        profiler.ingest([monitor])
        assert abs(profiler.coherent_ratio() - 0.5) < 1e-9  # only thread-0 delta

    def test_backward_branches_sorted(self):
        profiler = SystemProfiler(CobraConfig())
        monitor = self._monitor_stub(
            [
                _sample(btb=[(0x200, 0x100), (0x300, 0x400)], index=0),
                _sample(btb=[(0x200, 0x100)], index=1),
            ]
        )
        profiler.ingest([monitor])
        loops = profiler.backward_branches()
        assert loops[0] == ((0x200, 0x100), 2)
        assert all(t <= b for (b, t), _ in loops)

    def test_new_window_decays_everything(self):
        profiler = SystemProfiler(CobraConfig())
        monitor = self._monitor_stub([_sample(btb=[(0x200, 0x100)])])
        profiler.ingest([monitor])
        profiler.new_window(0.0)
        assert profiler.backward_branches() == []
