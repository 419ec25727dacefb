"""ResourceGovernor: budgets, deterministic eviction, ledger accounting.

The eviction property here is the ISSUE contract verbatim: victim order
is a pure function of cache state — the same pressure schedule evicts
the same victims in the same order, regardless of how the resident
copies were interleaved into the cache.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.config import FaultConfig, GovernorConfig, OverloadConfig
from repro.core.tracecache import UNTOUCHED, TraceCache, TraceVersion, VersionSet
from repro.core.tracesel import LoopTrace
from repro.faults import FaultInjector
from repro.governor import MAX_RECOVERY_WAKES, ResourceGovernor
from repro.isa.bundle import Bundle
from repro.isa.instructions import nop


def _governor(faults=None, **kwargs) -> ResourceGovernor:
    return ResourceGovernor(GovernorConfig(**kwargs), capacity=100, faults=faults)


def _empty_cache() -> TraceCache:
    return TraceCache()


def _populate(cache: TraceCache, spec, order) -> None:
    """Install synthetic resident versions per ``spec``, activated in
    ``order`` (which assigns the last-used clock)."""
    versions = {}
    for head, opts, active, sizes in spec:
        vs = VersionSet(loop=LoopTrace(head=head, back_branch=head, hotness=1))
        vs.active = active
        for opt in opts:
            entry = cache.image.here()
            for _ in range(sizes[opt]):
                cache.image.append(Bundle([nop("M"), nop("I"), nop("I")]))
            version = TraceVersion(opt, entry, 0, sizes[opt], ())
            vs.versions[opt] = version
            versions[(head, opt)] = version
        cache.version_sets[head] = vs
    for tick, key in enumerate(order, start=1):
        versions[key].last_used = tick


@st.composite
def _cache_plans(draw):
    n_loops = draw(st.integers(min_value=1, max_value=4))
    spec = []
    for i in range(n_loops):
        head = 0x4000_0000 + i * 64
        opts = draw(
            st.lists(
                st.sampled_from(["noprefetch", "excl", "ld"]),
                min_size=1, max_size=3, unique=True,
            )
        )
        active = draw(st.sampled_from(list(opts) + [UNTOUCHED]))
        sizes = {opt: draw(st.integers(min_value=1, max_value=3)) for opt in opts}
        spec.append((head, tuple(opts), active, sizes))
    keys = [(head, opt) for head, opts, _, _ in spec for opt in opts]
    order = draw(st.permutations(keys))
    target = draw(st.integers(min_value=0, max_value=12))
    return spec, order, target


class TestEvictionDeterminism:
    @given(plan=_cache_plans())
    def test_victim_order_is_a_pure_function_of_cache_state(self, plan):
        spec, order, target = plan
        last_used = {key: tick for tick, key in enumerate(order, start=1)}
        sizes = {
            (head, opt): s[opt] for head, opts, _, s in spec for opt in opts
        }
        active = {head: act for head, _, act, _ in spec}

        caches = []
        for _ in range(2):
            cache = _empty_cache()
            _populate(cache, spec, order)
            caches.append(cache)
        victims = [cache.evict_cold(target) for cache in caches]

        # byte-identical victim order (and log) across identical builds
        assert victims[0] == victims[1]
        assert caches[0].recovery_log == caches[1].recovery_log

        # matches the specified semantics exactly: coldest-first over
        # the inactive versions, stopping once under the target
        used = sum(sizes.values())
        expected = []
        candidates = sorted(
            (last_used[(head, opt)], head, opt)
            for head, opts, act, _ in spec
            for opt in opts
            if opt != act
        )
        for _, head, opt in candidates:
            if used <= target:
                break
            expected.append((head, opt, sizes[(head, opt)]))
            used -= sizes[(head, opt)]
        assert victims[0] == expected

        # the live copy is never a victim, and every victim left the set
        for head, opt, _ in victims[0]:
            assert opt != active[head]
            assert opt not in caches[0].version_sets[head].versions


class TestAdmission:
    def test_admit_keeps_live_footprint_under_recovery_headroom(self):
        gov = _governor(trace_cache_budget=100)
        assert gov.admit_deploy(0, 60)
        assert not gov.admit_deploy(0, 61)
        assert gov.admit_deploy(50, 10)
        assert not gov.admit_deploy(50, 11)

    def test_budget_clamped_to_capacity(self):
        gov = ResourceGovernor(
            GovernorConfig(trace_cache_budget=10_000), capacity=100
        )
        assert gov.trace_budget == 100


class TestLedgerAccounting:
    def test_refusals_count_every_time_but_log_once_per_budget(self):
        gov = _governor()
        gov.note_refused(0x4000_0000, 8)
        gov.note_refused(0x4000_0000, 8)
        assert gov.deploys_refused == 2
        refused = [e for e in gov.faults.events if e.kind == "deploy_refused"]
        assert len(refused) == 1

    def test_refusal_relogs_after_a_budget_change(self):
        gov = _governor()
        gov.note_refused(0x4000_0000, 8)
        gov.trace_budget -= 1
        gov.note_refused(0x4000_0000, 8)
        refused = [e for e in gov.faults.events if e.kind == "deploy_refused"]
        assert len(refused) == 2

    def test_private_ledger_stays_accounted(self):
        gov = _governor()
        assert gov.private_ledger
        gov.note_evicted([(0x4000_0000, "noprefetch", 4)])
        gov.note_shed_samples(3, cpu_id=1)
        gov.note_compacted(2)
        assert gov.faults.ledger().accounted
        assert gov.evictions == 1 and gov.evicted_bundles == 4
        assert gov.shed_samples == 3 and gov.db_compacted == 2

    def test_shared_ledger_is_reused_not_replaced(self):
        injector = FaultInjector(
            FaultConfig(seed=1, sample_rate=0.0, patch_rate=0.0, loop_rate=0.0)
        )
        gov = _governor(faults=injector)
        assert not gov.private_ledger
        gov.note_shed_samples(1, cpu_id=0)
        assert injector.events[-1].kind == "samples_shed"


class TestGovernedWake:
    def test_budget_shrink_clamps_to_floor_and_is_detected(self):
        gov = _governor(
            budget_floor=64,
            overload=OverloadConfig(seed=0, shrink_rate=1.0),
        )
        cache = _empty_cache()
        for _ in range(6):
            gov.on_wake(0, cache)
        assert gov.trace_budget == 64
        shrinks = [e for e in gov.faults.events if e.kind == "budget_shrink"]
        assert shrinks and all(e.status == "detected" for e in shrinks)
        assert gov.faults.ledger().accounted

    def test_sustained_flood_walks_the_ladder_down(self):
        gov = _governor(
            overload=OverloadConfig(seed=0, flood_rate=1.0, flood_windows=2),
        )
        cache = _empty_cache()
        for _ in range(8):
            gov.on_wake(0, cache)
        assert gov.rung == "off"
        walk = [(t["from"], t["to"]) for t in gov.transitions]
        assert walk == [
            ("full", "no-new-compiles"),
            ("no-new-compiles", "monitor-only"),
            ("monitor-only", "frozen"),
            ("frozen", "off"),
        ]

    def test_calm_wakes_recover_to_full_within_the_guaranteed_horizon(self):
        config = GovernorConfig(
            overload=OverloadConfig(
                seed=0, flood_rate=1.0, flood_windows=1, max_events=4
            ),
        )
        gov = ResourceGovernor(config, capacity=100)
        cache = _empty_cache()
        for _ in range(4):
            gov.on_wake(0, cache)      # schedule exhausts (max_events)
        for _ in range(MAX_RECOVERY_WAKES + 1):
            gov.on_wake(0, cache)
        assert gov.rung == "full"
        assert gov.overload.injected == 4

    def test_outbox_batches_shed_oldest_with_accounting(self, monkeypatch):
        monkeypatch.setattr("repro.governor.core.OUTBOX_BATCHES", 2)
        gov = _governor()
        outbox = SimpleNamespace(windows=["b0", "b1", "b2", "b3"])
        gov.on_wake(0, _empty_cache(), outbox=outbox)
        assert outbox.windows == ["b2", "b3"]
        assert gov.shed_batches == 2
        assert any(e.kind == "batches_shed" for e in gov.faults.events)

    def test_slow_disk_is_tolerated_and_decays(self):
        gov = _governor(
            overload=OverloadConfig(seed=0, disk_rate=1.0, max_events=1),
        )
        cache = _empty_cache()
        gov.on_wake(0, cache)
        assert gov.last_pressure == 1.0
        slow = [e for e in gov.faults.events if e.kind == "slow_disk"]
        assert len(slow) == 1 and slow[0].status == "tolerated"
        gov.on_wake(0, cache)
        assert gov.last_pressure == 0.5   # gauge halves per wake
        assert gov.faults.ledger().accounted

    def test_identical_seeds_produce_identical_reports(self):
        def run():
            gov = _governor(
                overload=OverloadConfig(
                    seed=9, shrink_rate=0.3, flood_rate=0.3,
                    disk_rate=0.3, storm_rate=0.3, max_events=10,
                ),
            )
            cache = _empty_cache()
            for retired in range(0, 300, 10):
                gov.on_wake(retired, cache)
            return gov.report()

        assert run() == run()


def _jit_node(head: int, n_bundles: int, stamp: int):
    from repro.cpu.tracejit import CompiledTrace

    node = CompiledTrace(
        fn=lambda *args: None, head=head, sor=0, addrs=(head,), keys=(None,),
        n_bundles=n_bundles, kind="loop", body=(), bpc=2,
    )
    node.last_used = stamp
    return node


class TestJitFootprintBudget:
    def _core_with_nodes(self, sizes):
        from repro.cpu.tracejit import TraceJit

        tjit = TraceJit()
        for i, n in enumerate(sizes):
            node = _jit_node(0x4000_0000 + 64 * i, n, stamp=i)
            tjit.traces[node.head] = node
        return SimpleNamespace(cpu_id=1, trace_jit=tjit)

    def test_cold_tree_nodes_evicted_to_budget_with_ledger(self, monkeypatch):
        monkeypatch.setattr("repro.governor.core.JIT_NODE_BUDGET", 4)
        gov = _governor()
        core = self._core_with_nodes((3, 2, 2))
        gov.on_wake(0, _empty_cache(), cores=[core])
        tjit = core.trace_jit
        assert tjit.compiled_footprint() <= 4
        # coldest-entered first: the stamp-0 node (3 bundles) goes
        assert 0x4000_0000 not in tjit.traces
        assert gov.jit_evictions == 1
        assert gov.jit_evicted_bundles == 3
        report = gov.report()
        assert report["jit_evictions"] == 1
        assert report["jit_evicted_bundles"] == 3
        # evicted heads must re-prove hotness from zero (the compile
        # trigger is exact-equality on the threshold)
        assert tjit.hot[0x4000_0000] == 0
        assert tjit.generation >= 1

    def test_within_budget_is_a_noop(self):
        gov = _governor()
        core = self._core_with_nodes((3, 2))
        gov.on_wake(0, _empty_cache(), cores=[core])
        assert len(core.trace_jit.traces) == 2
        assert gov.jit_evictions == 0


class TestRecoveryHorizon:
    def test_max_recovery_wakes_covers_the_whole_ladder(self):
        assert MAX_RECOVERY_WAKES == 12   # 4 rungs x 3 windows
