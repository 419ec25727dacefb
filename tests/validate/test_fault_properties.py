"""Property tests: interleaved fault schedules vs the patch journal.

Hypothesis drives arbitrary interleavings of deployment attempts (clean
or carrying an injected patch fault) and rollbacks against one program
image, then checks the transactional invariants the runtime promises:

* a failed deployment is all-or-nothing — the loop head bundle and the
  trace-cache occupancy are byte-identical to the pre-call state;
* at every step the loop head is either the original bundle or a
  redirect to the currently active deployment, never a torn hybrid;
* rollback is idempotent, and after rolling everything back the image
  equals its pristine self bundle-for-bundle;
* the patch journal replays: patches and reverts pair off, and every
  injected patch fault ends the run detected or tolerated.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler import StreamLoop, Term
from repro.config import FaultConfig, itanium2_smp
from repro.core.filters import MissStats
from repro.core.opts import make_noprefetch_rewrite
from repro.core.tracecache import TraceCache
from repro.core.tracesel import LoopTrace
from repro.cpu import Machine
from repro.errors import TraceCacheError
from repro.faults import FaultInjector
from repro.isa import Op
from repro.runtime import ParallelProgram

ACTIONS = ("deploy", "deploy:torn_patch", "deploy:stale_image",
           "deploy:cache_exhaustion", "rollback", "rollback")

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _build_program():
    machine = Machine(itanium2_smp(2, scale=16))
    prog = ParallelProgram(machine, "prop")
    prog.array("x", 64, 1.0)
    prog.array("y", 64, 0.0)
    fn = prog.kernel(
        StreamLoop("k", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0)))
    )
    prog.parallel_for(fn, 64, 1)
    prog.build(outer_reps=1)
    image = prog.image
    head = image.labels[".k_loop"]
    back = None
    for addr, slot in image.find_ops(Op.BR_CTOP, fn.region):
        back = addr + slot
    trace = LoopTrace(head=head, back_branch=back, hotness=10)
    trace.lfetch_sites = image.find_ops(Op.LFETCH, (head, addr))
    trace.misses = [MissStats(pc=head, samples=10, coherent=10, total_latency=2000)]
    return image, trace


def _injector_for(action):
    kind = action.partition(":")[2]
    if not kind:
        return None
    return FaultInjector(FaultConfig(patch_rate=1.0, kinds=(kind,)))


@settings(max_examples=40, **COMMON)
@given(actions=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=12))
def test_fault_interleavings_respect_the_journal(actions):
    image, trace = _build_program()
    pristine = {addr: bundle for addr, bundle in image.iter_bundles()}
    original_head = image.fetch_bundle(trace.head)
    cache = TraceCache()
    injectors = []
    active = None

    for action in actions:
        if action.startswith("deploy"):
            if cache.active_deployment(trace.head) is not None:
                continue  # overlap rule: one active trace per loop
            cache.faults = _injector_for(action)
            if cache.faults is not None:
                injectors.append(cache.faults)
            used_before = cache.used_bundles
            journal_before = len(image.patches)
            try:
                active = cache.deploy(
                    image, trace, make_noprefetch_rewrite(), "np"
                )
            except TraceCacheError:
                # all-or-nothing: nothing may have leaked
                assert cache.used_bundles == used_before
                head = image.fetch_bundle(trace.head)
                if active is not None and active.active:
                    assert head == active.head_patch.new
                else:
                    assert head == original_head
                # journal replays: any writes were paired with reverts
                for patch in image.patches[journal_before:]:
                    assert image.fetch_bundle(patch.address) == original_head
        else:
            if active is None:
                continue
            was_active = active.active
            assert cache.rollback(image, active) is was_active
            assert image.fetch_bundle(trace.head) == original_head
            # idempotency, immediately
            assert cache.rollback(image, active) is False
            assert image.fetch_bundle(trace.head) == original_head

    # drain: revert everything and compare against the pristine image
    for deployment in cache.deployments:
        cache.rollback(image, deployment)
    for addr, bundle in pristine.items():
        assert image.fetch_bundle(addr) == bundle

    # every injected patch fault was settled by the transaction logic
    for injector in injectors:
        assert injector.ledger().accounted, injector.ledger().summary()


@settings(max_examples=25, **COMMON)
@given(
    seed=st.integers(0, 1_000_000),
    n_ops=st.integers(1, 10),
)
def test_seeded_schedules_replay(seed, n_ops):
    """The same seed must produce the same draw sequence — the chaos
    harness depends on failures being replayable from their seed."""
    def draws(injector):
        out = []
        for _ in range(n_ops):
            event = injector.patch_fault()
            out.append(None if event is None else event.kind)
            event = injector.sample_fault()
            out.append(None if event is None else event.kind)
        return out

    cfg = FaultConfig(seed=seed, sample_rate=0.4, patch_rate=0.4)
    assert draws(FaultInjector(cfg)) == draws(FaultInjector(cfg))
