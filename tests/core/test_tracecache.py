"""Trace cache: copy semantics, redirection, rollback, capacity."""

import numpy as np
import pytest

from repro.compiler import StreamLoop, Term
from repro.config import itanium2_smp
from repro.core.filters import MissStats
from repro.core.opts import make_excl_rewrite, make_noprefetch_rewrite
from repro.core.tracecache import TraceCache
from repro.core.tracesel import LoopTrace
from repro.cpu import Machine
from repro.errors import TraceCacheError
from repro.isa import Op
from repro.runtime import ParallelProgram


def _program(machine, n=256):
    prog = ParallelProgram(machine, "tc")
    prog.array("x", n, np.arange(n, dtype=float))
    prog.array("y", n, 1.0)
    fn = prog.kernel(StreamLoop("k", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0))))
    prog.parallel_for(fn, n, 1)
    prog.build(outer_reps=3)
    return prog, fn


def _loop_of(prog, fn):
    image = prog.image
    head = image.labels[".k_loop"]
    # find the loop-closing br.ctop
    back = None
    for addr, slot in image.find_ops(Op.BR_CTOP, fn.region):
        back = addr + slot
    trace = LoopTrace(head=head, back_branch=back, hotness=10)
    trace.lfetch_sites = image.find_ops(Op.LFETCH, (head, addr))
    trace.misses = [MissStats(pc=head, samples=10, coherent=10, total_latency=2000)]
    return trace


class TestDeployment:
    def test_semantics_preserved_under_noprefetch(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        smp2.load_image(cache.image)
        deployment = cache.deploy(
            prog.image, _loop_of(prog, fn), make_noprefetch_rewrite(), "noprefetch"
        )
        assert deployment.n_rewrites >= 1
        prog.run(max_bundles=5_000_000)
        assert np.allclose(prog.f64("y")[:256], 1.0 + 6.0 * np.arange(256))

    def test_semantics_preserved_under_excl(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        smp2.load_image(cache.image)
        cache.deploy(prog.image, _loop_of(prog, fn), make_excl_rewrite(), "excl")
        prog.run(max_bundles=5_000_000)
        assert np.allclose(prog.f64("y")[:256], 1.0 + 6.0 * np.arange(256))

    def test_redirect_bundle_and_internal_branch_remap(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        deployment = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "np")
        # loop head now branches to the trace entry
        head_bundle = prog.image.fetch_bundle(loop.head)
        assert head_bundle.slots[2].op is Op.BR
        assert head_bundle.slots[2].imm == deployment.entry
        # the trace's back branch targets the trace-local head
        trace_back = cache.image.fetch_bundle(
            deployment.entry + (loop.end_bundle - loop.head)
        )
        assert trace_back.slots[2].imm == deployment.entry
        # the exit branch returns to the bundle after the original loop
        exit_bundle = cache.image.fetch_bundle(
            deployment.entry + (loop.n_bundles) * 16
        )
        assert exit_bundle.slots[2].imm == loop.end_bundle + 16

    def test_rewrites_replace_lfetch_with_nop(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        deployment = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "np")
        trace_lfetch = cache.image.count_ops(
            Op.LFETCH, (deployment.entry, deployment.entry + loop.n_bundles * 16)
        )
        assert trace_lfetch == 0
        # bundle shape preserved: same slot count, unit-compatible nop
        assert deployment.n_rewrites == len(loop.lfetch_sites)

    def test_rollback_restores_original(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        original = prog.image.fetch_bundle(loop.head)
        deployment = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "np")
        assert cache.rollback(prog.image, deployment) is True
        assert prog.image.fetch_bundle(loop.head) == original
        assert not deployment.active
        # idempotent: a second rollback is a recorded no-op, not an error
        assert cache.rollback(prog.image, deployment) is False
        assert prog.image.fetch_bundle(loop.head) == original
        assert any("rollback-noop" in line for line in cache.recovery_log)
        # correctness after rollback
        prog.run(max_bundles=5_000_000)
        assert np.allclose(prog.f64("y")[:256], 1.0 + 6.0 * np.arange(256))

    def test_overlap_rejected(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "np")
        with pytest.raises(TraceCacheError):
            cache.deploy(prog.image, loop, make_excl_rewrite(), "excl")
        assert cache.active_deployment(loop.head) is not None
        assert cache.overlaps_active(loop.head, loop.end_bundle)

    def test_capacity_enforced(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache(capacity_bundles=1)
        with pytest.raises(TraceCacheError):
            cache.deploy(prog.image, _loop_of(prog, fn), make_noprefetch_rewrite(), "np")

    def test_redeploy_after_rollback_allowed(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        d1 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "np")
        cache.rollback(prog.image, d1)
        d2 = cache.deploy(prog.image, loop, make_excl_rewrite(), "excl")
        assert d2.active
