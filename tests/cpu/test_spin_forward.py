"""Closed-form spin-wait forwarding against its one-iteration oracles.

A compiled spin-wait trace advances, at its taken back-edge, every
iteration that no per-bundle exit can interrupt (DESIGN.md §9).  That is
a state mapping, so it is only admissible with an oracle: ``osr-off``
and the generic interpreter replay every iteration, and all three must
agree on everything a run can observe, for any slice budget, clock
margin, sampling interval and arrival skew.
"""

from __future__ import annotations

import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler, tracejit
from repro.cpu import scheduler as scheduler_module
from repro.isa import assemble
from repro.isa.decode import DecodeCache

#: the spin bodies under test (the closing ``br.cond`` is appended):
#: runtime/barrier.py's one-bundle shape, a two-bundle two-load body, and
#: nine loads of one L2 set — one more than its ways, so every iteration
#: misses and nothing may be forwarded
SPIN_BODIES = {
    "barrier": "ld8 r28=[r26]\ncmp.eq p8,p9=r28,r27",
    "two-bundle": (
        "ld8 r28=[r26]\nld8 r29=[r24]\nadd r30=r28,r29\n"
        "cmp.eq p8,p9=r28,r27"
    ),
    "thrash": (
        "\n".join(f"ld8 r{40 + i}=[r{50 + i}]" for i in range(9))
        + "\nld8 r28=[r26]\ncmp.eq p8,p9=r28,r27"
    ),
}

EPISODES = 2


def _program(n_threads: int, body: str) -> str:
    """``EPISODES`` skewed arrivals at a sense-reversing barrier, unrolled.

    Inputs arrive in registers: r25/r26 the counter and generation
    words, r24 a word on a third line, r50..r58 nine lines of one L2 set,
    r10+e the skew before episode e.
    """
    lines = []
    for e in range(EPISODES):
        lines += [
            f"mov ar.lc=r{10 + e}",
            f".skew{e}:",
            "add r11=1,r11",
            f"br.cloop.sptk .skew{e}",
            "ld8 r27=[r26]",
            "fetchadd8 r28=[r25],1",
            f"cmp.eq p8,p9=r28,{n_threads - 1}",
            f"(p9) br.cond .wait{e}",
            "st8 [r25]=r0",
            "add r27=1,r27",
            "st8 [r26]=r27",
            f"br .done{e}",
            f".wait{e}:",
            body,
            f"(p8) br.cond .wait{e}",
            f".done{e}:",
        ]
    return "\n".join(lines + ["halt"])


def _run(mode, n_threads, body, skews, slice_bundles, margin, interval,
         overhead, threshold=tracejit.HOT_THRESHOLD, l2_hit=0):
    """Everything observable of one run under ``mode`` = (jit, osr).

    ``threshold`` 0 compiles the spin-waits before the first instruction
    (a warm-seeded run): the first forward then meets a BTB that holds
    one copy of the back-edge, not four.
    """
    config = itanium2_smp(n_threads)
    config = replace(config, latency=replace(config.latency, l2_hit=l2_hit))
    machine = Machine(config)
    image = assemble(_program(n_threads, SPIN_BODIES[body]))
    machine.load_image(image)
    state = machine.mem.alloc("barrier_state", 384)
    set_stride = machine.caches[0]._l2_nsets * 128
    same_set = machine.mem.alloc("one_l2_set", 9 * set_stride)
    samples: list = []
    slices: list = []

    def on_sample(core):
        samples.append(
            (core.cpu_id, core.pc, core.cycles, core.retired,
             tuple(core.btb), core.dear)
        )

    for core in machine.cores:
        core.jit_enabled, core.osr_enabled = mode
        core.trace_jit.threshold = threshold
        if mode[0] and not threshold:
            dcache = core.decode_cache
            for e in range(EPISODES):
                core.trace_jit.compile(
                    image.labels[f".wait{e}"], dcache.sync(), dcache.keys,
                    0, core.bundles_per_cycle,
                )
        regs = core.regs
        regs.write_gr(25, state.base)
        regs.write_gr(26, state.base + 128)
        regs.write_gr(24, state.base + 256)
        for i in range(9):
            regs.write_gr(50 + i, same_set.base + i * set_stride)
        for e in range(EPISODES):
            regs.write_gr(10 + e, skews[core.cpu_id][e])
        if interval:
            core.enable_sampling(interval, on_sample, overhead)
        core.start(image.base)

    # the real min-clock scheduler, with the slice budget and margin drawn
    scheduler = Scheduler(machine.cores, margin=margin)
    with mock.patch.object(scheduler_module, "_SLICE_BUNDLES", slice_bundles):
        for _ in range(200_000):
            if not scheduler.step():
                break
            # every slice must end on the same bundle, in the same state
            slices.append(
                [(c.pc, c.cycles, c.retired, tuple(c.btb)) for c in machine.cores]
            )
        else:  # pragma: no cover
            raise AssertionError("barrier program did not halt")

    observed = [
        (
            c.cycles, c.retired, c.bundles_executed, c.taken_branches,
            tuple(c.btb), c.dear, c._issue_tick, c._sample_countdown,
            tuple(c.regs.read_gr(r) for r in range(32)),
            tuple(c.regs.read_pr(p) for p in range(16)),
            tuple(sorted(machine.caches[c.cpu_id].events.snapshot().items())),
        )
        for c in machine.cores
    ]
    stats = [c.trace_jit.stats() for c in machine.cores]
    return (observed, slices), samples, stats


JIT_ON, OSR_OFF, JIT_OFF = (True, True), (True, False), (False, False)


def _assert_forwarding_exact(*args):
    """Run all oracles against the forwarding run; return its stats."""
    fast, fast_samples, fast_stats = _run(JIT_ON, *args)
    for mode in (OSR_OFF, JIT_OFF):
        replay, replay_samples, replay_stats = _run(mode, *args)
        assert fast == replay
        assert fast_samples == replay_samples
        assert all(s["spin_iters_skipped"] == 0 for s in replay_stats)
    # the same compiled traces with the classifier off replay every
    # iteration: skipped iterations must count wherever replayed ones
    # do, and every dispatch, exit and resume must land where it did
    with mock.patch.object(tracejit, "_TRACE_FNS", {}), mock.patch.object(
        tracejit, "_idempotent_iteration", lambda head, body: False
    ):
        replay, replay_samples, replay_stats = _run(JIT_ON, *args)
    assert fast == replay
    assert fast_samples == replay_samples
    for forwarded, replayed in zip(fast_stats, replay_stats):
        assert replayed["spin_forwards"] == replayed["spin_iters_skipped"] == 0
        assert {**forwarded, "spin_forwards": 0, "spin_iters_skipped": 0} == replayed
    return fast_stats


@settings(
    deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data=st.data(),
    n_threads=st.integers(2, 4),
    body=st.sampled_from(sorted(SPIN_BODIES)),
    slice_bundles=st.sampled_from((1, 2, 3, 4, 5, 7, 64, 512)),
    margin=st.integers(0, 40),
    # below one iteration's slots, on an iteration boundary, off, far apart
    interval=st.sampled_from((0, 1, 2, 3, 6, 7, 30, 100, 1000)),
    overhead=st.sampled_from((0, 5)),
    threshold=st.sampled_from((0, 1, tracejit.HOT_THRESHOLD)),
    # the shipped configs charge an L2 hit no stall; the closed form may not
    l2_hit=st.sampled_from((0, 1, 5)),
)
def test_forwarding_is_exact(
    data, n_threads, body, slice_bundles, margin, interval, overhead,
    threshold, l2_hit,
):
    skews = data.draw(
        st.lists(
            st.lists(st.integers(0, 150), min_size=EPISODES, max_size=EPISODES),
            min_size=n_threads, max_size=n_threads,
        )
    )
    stats = _assert_forwarding_exact(
        n_threads, body, skews, slice_bundles, margin, interval, overhead,
        threshold, l2_hit,
    )
    if body == "thrash":
        assert all(s["spin_forwards"] == 0 for s in stats)


@pytest.mark.parametrize("l2_hit", [0, 3])
@pytest.mark.parametrize("body", ["barrier", "two-bundle"])
def test_long_wait_is_forwarded_not_replayed(body, l2_hit):
    # thread 0 arrives at once and waits ~400 skew iterations for thread 1
    waiter = _assert_forwarding_exact(
        2, body, [[0, 0], [400, 400]], 512, 16, 0, 0,
        tracejit.HOT_THRESHOLD, l2_hit,
    )[0]
    assert waiter["spin_forwards"] > 0
    assert waiter["spin_iters_skipped"] > 10 * waiter["spin_forwards"]


#: seeded faults in a spin trace's source: what a mid-body entry and the
#: head argument added to the forward (tests/cpu/test_whole_iteration.py
#: seeds the rest of the closure)
FAULTS = {
    "a mid-body entry forwards on the loads it did not see":
        (r"hits = forward and not start", "hits = forward"),
    "forwarded BTB entries: H + dropped":
        (r"btb\.extend\(\(\(H \+ (\d+), H\),\) \* min\(m, ", r"btb.extend(((\1, H),) * min(m, "),
    "forwarded BTB entries: target's H dropped":
        (r"btb\.extend\(\(\((.*), H\),\) \* min\(m, ", r"btb.extend(((\1, 0),) * min(m, "),
}
#: a long wait in slices that end inside the four-bundle thrash body, so
#: that the next enters it past the nine loads that miss; one in whole slices
FAULT_RUNS = (
    (2, "thrash", [[0, 0], [3000, 1500]], 7, 16, 0, 0, 1),
    (2, "barrier", [[0, 0], [150, 90]], 512, 16, 30, 5),
)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_seeded_faults_are_caught(fault):
    pattern, change = FAULTS[fault]
    generate = tracejit._generate
    seeded = []

    def faulty(*shape):
        source = generate(*shape)
        seeded.append(len(re.findall(pattern, source)))
        return re.sub(pattern, change, source)

    caught = False
    for run in FAULT_RUNS:
        oracle = _run(JIT_OFF, *run)[:2]
        with mock.patch.multiple(tracejit, _TRACE_FNS={}, _generate=faulty):
            try:
                caught |= _run(JIT_ON, *run)[:2] != oracle
            except Exception:   # noqa: BLE001 - a crashing mutant is a caught one
                caught = True
    assert any(seeded) and caught


def _classify(body: str, closer: str = "(p8) br.cond .wait") -> bool:
    image = assemble(f".wait:\n{body}\n{closer}\nhalt\n")
    cache = DecodeCache()
    cache.attach(image)
    head = image.labels[".wait"]
    walked = tracejit._walk(head, cache.sync(), relax=True)
    return tracejit._idempotent_iteration(head, tuple(walked))


class TestIdempotentIterationCriterion:
    @pytest.mark.parametrize("body", sorted(SPIN_BODIES.values()))
    def test_spin_waits_classify(self, body):
        assert _classify(body)

    def test_multi_load_with_float_and_alu_ops_classifies(self):
        assert _classify(
            "ld8 r28=[r26]\nldfd f8=[r24]\nfadd f9=f8,f8\n"
            "shl r29=r28,3\ncmp.eq p8,p9=r28,r27"
        )

    @pytest.mark.parametrize(
        "body, closer",
        [
            ("ld8 r28=[r26]\nst8 [r25]=r28\ncmp.eq p8,p9=r28,r27", None),
            ("ld8 r28=[r26],8\ncmp.eq p8,p9=r28,r27", None),
            ("ld8.bias r28=[r26]\ncmp.eq p8,p9=r28,r27", None),
            ("lfetch.nt1 [r26]\nld8 r28=[r26]\ncmp.eq p8,p9=r28,r27", None),
            ("fetchadd8 r28=[r26],1\ncmp.eq p8,p9=r28,r27", None),
            # loop-carried: r27 is read, then written for the next iteration
            ("ld8 r28=[r26]\ncmp.eq p8,p9=r28,r27\nadd r27=1,r27", None),
            # carried from the previous iteration: r28 is read before its load
            ("cmp.eq p8,p9=r28,r27\nld8 r28=[r26]", None),
            # the address register moves
            ("ld8 r28=[r26]\ncmp.eq p8,p9=r28,r27\nmov r26=r28", None),
            ("(p6) ld8 r28=[r26]\ncmp.eq p8,p9=r28,r27", None),
            ("ld8 r28=[r26]\n(p6) cmp.eq p8,p9=r28,r27", None),
            ("ld8 r28=[r26]\ncmp.eq p8,p9=r28,r27", "br.cloop.sptk .wait"),
            ("ld8 r28=[r26]\ncmp.eq p8,p9=r28,r27", "br.ctop.sptk .wait"),
            ("ld8 r28=[r26]\ncmp.eq p8,p9=r28,r27", "br.cond .wait"),
        ],
    )
    def test_near_misses_do_not_classify(self, body, closer):
        assert not _classify(body, closer or "(p8) br.cond .wait")
