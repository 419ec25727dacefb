"""Multi-version loop dispatch in the trace cache.

A rolled-back trace stays resident; redeploying the same optimization
reuses the copy (no new bundles, no rebuild) as long as the program
range still matches the source it was built from.  Every live-version
transition after the initial deployment counts as a flip — including
the rollback to the untouched original — and the whole history is
exposed through ``version_report()``.
"""

from __future__ import annotations

import numpy as np

from repro.compiler import StreamLoop, Term
from repro.core.filters import MissStats
from repro.core.opts import make_excl_rewrite, make_noprefetch_rewrite
from repro.core.tracecache import UNTOUCHED, TraceCache
from repro.core.tracesel import LoopTrace
from repro.isa import Op
from repro.runtime import ParallelProgram


def _program(machine, n=256):
    prog = ParallelProgram(machine, "mv")
    prog.array("x", n, np.arange(n, dtype=float))
    prog.array("y", n, 1.0)
    fn = prog.kernel(
        StreamLoop("k", dest="y", terms=(Term("y", 1.0, 0), Term("x", 2.0, 0)))
    )
    prog.parallel_for(fn, n, 1)
    prog.build(outer_reps=3)
    return prog, fn


def _loop_of(prog, fn):
    image = prog.image
    head = image.labels[".k_loop"]
    back = None
    for addr, slot in image.find_ops(Op.BR_CTOP, fn.region):
        back = addr + slot
    trace = LoopTrace(head=head, back_branch=back, hotness=10)
    trace.lfetch_sites = image.find_ops(Op.LFETCH, (head, addr))
    trace.misses = [MissStats(pc=head, samples=10, coherent=10, total_latency=2000)]
    return trace


class TestResidentReuse:
    def test_redeploy_reuses_resident_copy(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        d1 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        used_after_first = cache.used_bundles
        cache.rollback(prog.image, d1)
        d2 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        # same copy, same entry, zero new bundles
        assert d2.entry == d1.entry
        assert cache.used_bundles == used_after_first
        vs = cache.version_sets[loop.head]
        assert vs.reuses == 1
        # noprefetch -> untouched (rollback) -> noprefetch (redeploy)
        assert vs.flips == 2
        assert vs.active == "noprefetch"

    def test_two_versions_stay_resident(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        d1 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        cache.rollback(prog.image, d1)
        cache.deploy(prog.image, loop, make_excl_rewrite(), "excl")
        vs = cache.version_sets[loop.head]
        assert sorted(vs.versions) == ["excl", "noprefetch"]
        assert vs.active == "excl"
        assert cache.active_deployment(loop.head).optimization == "excl"

    def test_version_report_shape(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        d1 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        cache.rollback(prog.image, d1)
        cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        assert cache.version_report() == [
            {
                "head": loop.head,
                "versions": ["noprefetch"],
                "active": "noprefetch",
                "flips": 2,
                "reuses": 1,
            }
        ]

    def test_rollback_flips_to_untouched(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        d1 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        vs = cache.version_sets[loop.head]
        assert vs.flips == 0  # initial deployment is not a flip
        cache.rollback(prog.image, d1)
        assert vs.active == UNTOUCHED
        assert vs.flips == 1
        # idempotent rollback does not double-count
        cache.rollback(prog.image, d1)
        assert vs.flips == 1

    def test_stale_resident_is_rebuilt_not_reused(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        loop = _loop_of(prog, fn)
        d1 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        cache.rollback(prog.image, d1)
        vs = cache.version_sets[loop.head]
        # simulate the program range drifting from the stored source
        vs.versions["noprefetch"].source = ()
        used_before = cache.used_bundles
        d2 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        assert cache.used_bundles > used_before  # fresh build, not reuse
        assert vs.reuses == 0
        assert d2.entry != d1.entry
        assert any("stale" in line for line in cache.recovery_log)

    def test_semantics_preserved_across_reuse(self, smp2):
        prog, fn = _program(smp2)
        cache = TraceCache()
        smp2.load_image(cache.image)
        loop = _loop_of(prog, fn)
        d1 = cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        cache.rollback(prog.image, d1)
        cache.deploy(prog.image, loop, make_noprefetch_rewrite(), "noprefetch")
        prog.run(max_bundles=5_000_000)
        assert np.allclose(prog.f64("y")[:256], 1.0 + 6.0 * np.arange(256))
