"""The whole-iteration body of a loop trace against its per-bundle oracles.

A steady-state closure runs an iteration without budget or sampling
tests when a loop-head guard proves neither can fire, defers the lock-
step counters, the back-edge BTB entries and the L2-hit event counts,
and hands over to the per-bundle body for the iteration where an exit
can fire (DESIGN.md §9 "Whole iterations").  That is a second version
of the same code, so it is only admissible with oracles: ``osr-off``
runs the same closures from loop heads only, the generic interpreter
runs one bundle at a time, and the same closures with the guard forced
false never leave the per-bundle body.  All must agree on everything a
run can observe.  The same comparison holds the entry index ``start`` and
the head ``H`` every closure takes as arguments (DESIGN.md §9 "OSR entry").
The seeded faults at the end show the comparison has teeth.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler, tracejit
from repro.cpu import scheduler as scheduler_module
from repro.isa import assemble

#: one bundle each; p16/p17/p18 are the stages of the software pipeline.
#: r13 steps across +2^63 and r14 across -2^63-1; ``shr`` and ``setf``,
#: unlike the modular ops, show a value left unwrapped for one iteration,
#: and r29/f11 keep what they showed
FILL = (
    "(p16) ldfd f32=[r18],8\n(p16) ld8 r32=[r19],8\n(p17) add r36=r33,r20",
    "add r13=r13,r23\nshr r30=r13,3\nxor r29=r29,r30",
    "sub r14=r14,r23\nsetf f10=r14\nfadd f11=f11,f10",
    "(p17) fma f40=f8,f33,f9\n(p18) stfd [r17]=f41,8\n(p18) st8 [r16]=r37,8",
    "lfetch.nt1 [r21],64\nlfetch.excl.nt1 [r22],8\n(p17) getf r38=f33",
    "(p16) ld8.bias r39=[r27],8\nshladd r15=r11,3,r13\nshl r28=r14,1",
)
CLOSERS = ("ctop", "cloop", "wtop")
#: p16 alone, so that prolog and epilog stages run predicated off; a
#: counted loop does not rotate, so all three stages are on throughout
PR_ROT = {"ctop": 0x10000, "wtop": 0x10000, "cloop": 0x70000}


#: where the closing branch sits: the last slot; slot 1 (its taken path
#: retires two slots, its fall-through rotates and then runs slot 2 on
#: the rotated registers); or behind a second back-edge site in slot 1
CLOSINGS = ("last", "mid", "two")


def _program(closer: str, fill: int, side: bool, closing: str) -> str:
    """A loop under ``closer`` holding the ``FILL`` bundles whose bit is
    set in ``fill``; ``side`` adds a mid-body exit (retiring one or two
    slots of its bundle) to a block that comes back to the head."""
    wtop = closer == "wtop"
    lines = ["alloc rot=8", "mov ar.lc=r10", "mov ar.ec=3",
             f"mov pr.rot={PR_ROT[closer]}"]
    if wtop:
        lines.append("cmp.lt p8,p9=r11,r10")
    lines += [".loop:", "add r11=1,r11"]
    if wtop:
        lines.append("cmp.eq p16,p7=r0,r0")     # a while loop feeds stage 0 itself
    lines += [bundle for bit, bundle in enumerate(FILL) if fill >> bit & 1]
    if side:
        lines += ["cmp.eq p6,p7=r11,r12", "(p6) br.cond .side"]
    if closing == "two":
        lines += ["and r26=r11,r23", "cmp.eq p10,p11=r26,r0"]
    if wtop:
        lines.append("cmp.lt p8,p9=r11,r10")
    branch = f"{'(p8) ' if wtop else ''}br.{closer}.sptk .loop"
    if closing == "mid":
        lines += ["{ .mbi", "(p16) ld8 r34=[r24],8", branch, "add r35=r32,r23", "}"]
    elif closing == "two":
        lines += ["{ .mbb", "(p16) ld8 r34=[r24],8", "(p10) br.cond .loop", branch, "}"]
    else:
        lines.append(branch)
    lines += [".tail:", "add r25=r11,r13", "halt",
              ".side:", "add r12=7,r12", "br .loop"]
    return "\n".join(lines)


def _run(mode, shape, trips, slice_bundles, margin, interval, overhead,
         threshold, l2_hit=0, layout=0):
    """Everything observable of one two-core run under ``mode`` = (jit, osr).

    ``threshold`` 0 compiles the loop before the first instruction (a
    warm-seeded run): its first whole iteration meets an empty BTB.
    ``layout`` moves where in its cache line each stream starts, and so
    the iterations in which each one misses.
    """
    config = itanium2_smp(2)
    config = replace(config, latency=replace(config.latency, l2_hit=l2_hit))
    machine = Machine(config)
    image = assemble(_program(*shape))
    machine.load_image(image)
    samples: list = []
    slices: list = []
    calls: list = []

    def watch(core, cache):
        """An access hook (what a validator or tracer would be): no call
        out of a trace may find BTB entries or event counts unpublished."""
        access, events = cache.access_fn, cache.events

        def hook(now, addr, kind):
            calls.append((core.cpu_id, now, addr, kind, tuple(core.btb),
                          events.loads, events.stores, events.prefetches))
            return access(now, addr, kind)

        cache.access_fn = hook

    def on_sample(core):
        samples.append((core.cpu_id, core.pc, core.cycles, core.retired,
                        tuple(core.btb), core.dear))

    for core, n in zip(machine.cores, trips):
        core.jit_enabled, core.osr_enabled = mode
        core.trace_jit.threshold = threshold
        watch(core, machine.caches[core.cpu_id])
        machine.caches[core.cpu_id].dear_threshold = 8     # as armed by the HPM
        if mode[0] and not threshold:
            dcache = core.decode_cache
            core.trace_jit.compile(
                image.labels[".loop"], dcache.sync(), dcache.keys, 8,
                core.bundles_per_cycle,
            )
        words = 2 * n + 64
        arrays = {
            name: machine.mem.alloc(f"{name}{core.cpu_id}", 8 * words)
            for name in ("x", "i", "y", "j", "b", "m", "p")
        }
        x, i = machine.mem.view_f64(arrays["x"]), machine.mem.view_i64(arrays["i"])
        x[:] = [0.5 * k + 1 for k in range(len(x))]
        i[:] = [k * k - 7 for k in range(len(i))]
        regs = core.regs
        for nth, (reg, name) in enumerate(
            ((18, "x"), (19, "i"), (17, "y"), (16, "j"), (27, "b"), (24, "m"),
             (21, "p"), (22, "y"))   # lfetch.excl hits a line stfd made its own
        ):
            regs.write_gr(reg, arrays[name].base + 8 * (layout * (2 * nth + 3) % 16))
        regs.write_gr(10, n)
        regs.write_gr(12, 5)            # first side exit
        regs.write_gr(13, (1 << 63) - 3)    # add 1: crosses +2^63 exactly
        regs.write_gr(14, -(1 << 63) + 2)   # sub 1: crosses -2^63 exactly
        regs.write_gr(20, 16)
        regs.write_gr(23, 1)
        regs.write_fr(8, 3.0)
        regs.write_fr(9, 0.25)
        if interval:
            core.enable_sampling(interval, on_sample, overhead)
        core.start(image.base)

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
            raise AssertionError("loop program did not halt")

    observed = [
        (
            c.cycles, c.retired, c.bundles_executed, c.taken_branches,
            tuple(c.btb), c.dear, c._issue_tick, c._sample_countdown,
            tuple(c.regs.gr), tuple(c.regs.fr), tuple(c.regs.pr),
            (c.regs.lc, c.regs.ec, c.regs.rrb_gr, c.regs.rrb_fr, c.regs.rrb_pr),
            tuple(sorted(machine.caches[c.cpu_id].events.snapshot().items())),
        )
        for c in machine.cores
    ]
    memory = hashlib.sha256(machine.mem._i64.tobytes()).hexdigest()
    stats = [c.trace_jit.stats() for c in machine.cores]
    return (observed, memory, slices, samples, calls), stats


JIT_ON, OSR_OFF, JIT_OFF = (True, True), (True, False), (False, False)
_GUARD = re.compile(r"if executed \+ \d+ <= max_bundles and ")


def _with_source(rewrite):
    """Run with every generated trace source passed through ``rewrite``."""
    generate = tracejit._generate

    def rewritten(*key):
        return rewrite(generate(*key))

    return mock.patch.multiple(tracejit, _TRACE_FNS={}, _generate=rewritten)


def _per_bundle_only(source: str) -> str:
    return _GUARD.sub("if False and ", source)


@functools.lru_cache(maxsize=None)
def _loop_trace(shape) -> tracejit.CompiledTrace:
    """The steady-state closure of ``shape`` (bundle count, source)."""
    machine = Machine(itanium2_smp(1))
    image = assemble(_program(*shape))
    machine.load_image(image)
    dcache = machine.cores[0].decode_cache
    return tracejit.compile_trace(
        image.labels[".loop"], dcache.sync(), dcache.keys, 8, 2, relax=True
    )


def _loop_source(shape) -> str:
    """What ``_generate`` returns for ``shape``: below the line naming a head."""
    return _loop_trace(shape).source().split("\n", 1)[1]


def _agrees(fast, oracle) -> bool:
    """Whether a run matches one that interprets more of the program.

    State, memory, slices and samples must be equal.  The interpreter
    calls out on every access and a trace only past its inline L2-hit
    arm, so every call the faster run makes must be one the oracle
    made, in the same order and finding the same published state.
    """
    made = iter(oracle[-1])
    return fast[:-1] == oracle[:-1] and all(call in made for call in fast[-1])


def _assert_exact(shape, *args):
    """Run every oracle against the whole-iteration run; return its stats."""
    fast, fast_stats = _run(JIT_ON, shape, *args)
    for mode in (OSR_OFF, JIT_OFF):
        replay, _ = _run(mode, shape, *args)
        for name, got, want in zip(("state", "memory", "slices", "samples"),
                                   fast, replay):
            assert got == want, f"{name} differs from {mode}:\n{_loop_source(shape)}"
        assert _agrees(fast, replay), (
            f"calls are not a subsequence of {mode}'s:\n{_loop_source(shape)}")
    # the same closures, never entering the whole-iteration body: every
    # dispatch, exit, resume and iteration count must land where it did
    with _with_source(_per_bundle_only):
        replay, replay_stats = _run(JIT_ON, shape, *args)
    assert fast == replay, _loop_source(shape)
    assert fast_stats == replay_stats, _loop_source(shape)
    return fast_stats


shapes = st.tuples(
    st.sampled_from(CLOSERS),
    st.integers(0, 63).filter(lambda fill: fill.bit_count() <= 4),
    st.booleans(),
    st.sampled_from(CLOSINGS),
)


@settings(
    deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    data=st.data(),
    shape=shapes,
    trips=st.tuples(st.integers(1, 60), st.integers(1, 60)),
    margin=st.integers(0, 40),
    overhead=st.sampled_from((0, 5)),
    threshold=st.sampled_from((0, 1, tracejit.HOT_THRESHOLD)),
    # the shipped configs charge an L2 hit no stall
    l2_hit=st.sampled_from((0, 1, 5)),
    layout=st.integers(0, 15),
)
def test_whole_iterations_are_exact(
    data, shape, trips, margin, overhead, threshold, l2_hit, layout,
):
    k = _loop_trace(shape).n_bundles
    slots = 3 * k
    # budgets below, at and above one iteration; the scheduler's own
    slice_bundles = data.draw(st.sampled_from((*range(1, k + 3), 64, 512)))
    # off; below one bundle; around one iteration's slots, also counted
    # from the loop head (6 slots in) of a warm-seeded or a hot loop
    interval = data.draw(st.one_of(
        st.sampled_from((0, 1, 2, slots - 1, slots, slots + 1, slots + 6,
                         4 * slots + 6, 1000)),
        st.integers(1, 5 * slots),
    ))
    _assert_exact(
        shape, trips, slice_bundles, margin, interval, overhead, threshold,
        l2_hit, layout,
    )


def test_a_rename_base_left_stale_by_a_shrinking_alloc():
    """``alloc rot=16``, a ctop loop that leaves ``rrb_gr`` = 11, ``alloc
    rot=8``, then a hot loop that does not rotate: the interpreter reads
    the stale base modulo ``sor``, a whole-iteration body indexes a table
    of ``sor`` rows with it — so a trace is not entered on such a base."""
    source = """
        alloc rot=16
        mov ar.lc=4
        mov ar.ec=1
        mov pr.rot=0x10000
        .a:
        add r40=1,r40
        br.ctop.sptk .a
        alloc rot=8
        mov ar.lc=50
        .b:
        add r33=1,r33
        add r9=r9,r33
        br.cloop.sptk .b
        halt
    """
    runs = []
    for mode in (JIT_OFF, OSR_OFF, JIT_ON):
        machine = Machine(itanium2_smp(1))
        image = assemble(source)
        machine.load_image(image)
        (core,) = machine.cores
        core.jit_enabled, core.osr_enabled = mode
        core.start(image.base)
        Scheduler(machine.cores).run_until_halt(100_000)
        regs = core.regs
        runs.append((
            (regs.rrb_gr, regs.sor, regs.read_gr(9), core.cycles, core.retired),
            tuple(regs.gr), tuple(regs.fr), tuple(regs.pr),
            (regs.lc, regs.ec, regs.rrb_fr, regs.rrb_pr),
            core.pc, core.bundles_executed, core.taken_branches, tuple(core.btb),
            tuple(sorted(machine.caches[0].events.snapshot().items())),
        ))
    assert runs[0][0] == (11, 8, 1377, 30, 178)
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_only_steady_state_closures_hold_the_body_twice():
    shape = ("ctop", 0b001001, True, "mid")
    trace = _loop_trace(shape)
    k = trace.n_bundles
    steady = trace.source()
    assert len(_GUARD.findall(steady)) == 1
    assert steady.count("# -- bundle") == 2 * k
    # every bundle of the per-bundle body but the last can be entered past
    assert [int(n) for n in re.findall(r"if start <= (\d+):", steady)] == [*range(k - 1)]
    # a linear region runs once per call: one body
    region = tracejit._generate(tracejit._relative(trace.head, trace.body), 8, 2, "linear")
    assert not _GUARD.search(region) and "ROT_" not in region and "while" not in region
    assert region.count("# -- bundle") == region.count("if start <=") + 1
    # a spin-wait is forwarded in closed form instead (PR 13)
    spin = assemble(".wait:\nld8 r28=[r26]\ncmp.eq p8,p9=r28,r27\n(p8) br.cond .wait\nhalt\n")
    machine = Machine(itanium2_smp(1))
    machine.load_image(spin)
    dcache = machine.cores[0].decode_cache
    waiting = tracejit.compile_trace(spin.labels[".wait"], dcache.sync(), dcache.keys, 0, 2)
    assert "spin_forwards" in waiting.source() and not _GUARD.search(waiting.source())
    # a loop around an inner loop leaves by the inner back-edge
    nest = assemble(
        ".outer:\nmov ar.lc=r10\n.inner:\nadd r11=1,r11\nbr.cloop.sptk .inner\n"
        "add r12=1,r12\ncmp.lt p6,p7=r12,r13\n(p6) br.cond .outer\nhalt\n"
    )
    machine = Machine(itanium2_smp(1))
    machine.load_image(nest)
    dcache = machine.cores[0].decode_cache
    compiled = {
        label: tracejit.compile_trace(
            nest.labels[label], dcache.sync(), dcache.keys, 0, 2, relax=True)
        for label in (".outer", ".inner")
    }
    assert not _GUARD.search(compiled[".outer"].source())
    assert _GUARD.search(compiled[".inner"].source())


def test_source_is_regenerated_not_stored():
    trace = _loop_trace(("cloop", 0b000011, False, "last"))
    assert not any("source" in slot for slot in tracejit.CompiledTrace.__slots__)
    namespace: dict = {}
    exec(compile(trace.source(), "<source>", "exec"), namespace)  # noqa: S102
    # the text on show is the text that runs, wherever it was assembled
    assert namespace["__trace__"].__code__.co_code == trace.fn.__code__.co_code
    assert namespace["__trace__"].__code__.co_consts == trace.fn.__code__.co_consts
    assert trace.source().startswith(f"# entered with H = {trace.head:#x}\n")
    assert f"{trace.head:#x}" not in trace.source().split("\n", 1)[1]
    assert trace.fn.__code__.co_filename == (
        f"<trace +0x0..+{16 * (trace.n_bundles - 1):#x} loop>")


# -- the comparison has teeth --------------------------------------------------

_B63 = 1 << 63
_ROW = r"out = \((H(?: [+-] \d+)?), (\d+), (\d+), (\d)\); break"
_ROW_PAST_0 = r"out = \((H(?: [+-] \d+)?), (\d+), ([1-9]\d*), (\d)\); break"
_BACK_EDGE = (r"iters \+= 1\n *retired \+= (\d+)\n *bundles_executed \+= (\d+)\n"
              r" *executed \+= (\d+)\n *if sampling:\n *countdown -= (\d+)\n")
#: the rest of a flush block, then what the flush was emitted ahead of
_REST = r"(?=(?:\n *(?:del btb\[:-4\]|n_\w+ = 0|mem_events\.\w+ \+= n_\w+))*\n *"
_AHEAD_OF = {
    "a call out": _REST + r"(?:stall \+= )?cache\.access_fn\()",
    "a side exit's BTB entry": _REST + r"btb_append\()",
    "the hand-over": _REST + r"# -- bundle)",
    "the epilogue": _REST + r"pc, done, slots, flag = out)",
}

#: seeded faults in the generated source: name -> (pattern, change), the
#: change a replacement template or (group, delta) to move one number.
#: ``SITE`` faults are seeded at one occurrence at a time and each must be
#: caught on its own shape; ``EVERYWHERE`` ones go in everywhere at once
#: (most of their sites cannot show them: a BTB that already holds four
#: copies of the back-edge, a wrap that never sees a boundary value) and
#: must be caught on at least one shape; ``ANY_SITE`` ones — the entry
#: index and the head, mostly in the per-bundle body the battery was not
#: drawn to cover — go in at one occurrence at a time until one shows.
SITE = {
    "sample guard > becomes >=": (r"countdown > (\d+)\):", r"countdown >= \1):"),
    "budget guard admits k-1": (r"if executed \+ (\d+) <= max_bundles", (1, -1)),
    "exit row: bundles +1": (_ROW, (2, 1)),
    "exit row: slots +1": (_ROW, (3, 1)),
    "exit row: slots -1": (_ROW_PAST_0, (3, -1)),
    "back-edge: retired -1": (_BACK_EDGE, (1, -1)),
    "back-edge: bundles_executed +1": (_BACK_EDGE, (2, 1)),
    "back-edge: executed -1": (_BACK_EDGE, (3, -1)),
    "back-edge: countdown +1": (_BACK_EDGE, (4, 1)),
    "L2-hit load not counted": (r"n_loads \+= 1", "pass"),
    "L2-hit store not counted": (r"n_stores \+= 1", "pass"),
    "L2-hit prefetch not counted": (r"n_prefetches \+= 1", "pass"),
    "exit row: H + dropped": (r"out = \(H \+ (\d+), ", r"out = (\1, "),
}
ANY_SITE = {
    "entry index: start <= n becomes start < n":
        (r"if start <= (\d+):", r"if start < \1:"),
    "entry index not reset at the back-edge": (r"start = 0", "pass"),
    "whole iterations from a mid-body entry":
        (r"max_bundles and not start and ", "max_bundles and "),
    "return: H + dropped": (r"return \(H \+ (\d+), lc", r"return (\1, lc"),
    "BTB entry: H + dropped": (r"btb_append\(\(H \+ (\d+), ", r"btb_append((\1, "),
    "BTB entry: target's H dropped": (r"btb_append\((.*), H [+-] (\d+)\)\)",
                                      r"btb_append(\1, \2))"),
    "deferred BTB entries: H + dropped":
        (r"btb\.extend\(\(\(H \+ (\d+), H\)", r"btb.extend(((\1, H)"),
    "DEAR pc: H + dropped": (r"core\.dear = \(H \+ (\d+), ", r"core.dear = (\1, "),
}
EVERYWHERE = {
    "back-edge BTB entry not counted": (r"n_back \+= 1", "pass"),
    **{f"BTB flush dropped ahead of {site}": (r"btb\.extend\(.*\)" + ahead, "pass")
       for site, ahead in _AHEAD_OF.items()},
    **{f"event flush dropped ahead of {site}":
       (r"mem_events\.(\w+) \+= n_\1" + ahead, "pass")
       for site, ahead in _AHEAD_OF.items()},
    "BTB flush keeps 3 entries": (r"min\(n_back, 4\)", "min(n_back, 3)"),
    "BTB flush not trimmed": (r"del btb\[:-4\]", "pass"),
    # after a flush only a side exit's own entry can make a second
    # publication of the same back-edges show
    "BTB flush published twice":
        (r"n_back = 0" + _AHEAD_OF["a side exit's BTB entry"], "pass"),
    "event flush published twice":
        (r"n_(loads|stores|prefetches) = 0" + _AHEAD_OF["a call out"], "pass"),
    "predicate table off by one column":
        (r"ROT_p = \[tuple\(16 \+ \(o \+ r\)", "ROT_p = [tuple(16 + (o + r + 1)"),
    "GR table off by one row": (r"(ROT_g = .*)range\(8\)\]", r"\1(*range(1, 8), 0)]"),
    "FR table off by one row": (r"(ROT_f = .*)range\(96\)\]", r"\1(*range(1, 96), 0)]"),
    # (a closing branch in the last slot rotates into nothing but the exit)
    "rotating locals not reloaded after a fall-through rotation":
        (r"(?<=False\n)(?: *[gfp]\d.* = ROT_\w\[rrb_\wr\]\n)++(?! *issue_tick)", ""),
    "wrap test admits +2^63": (rf"<= v < {_B63}:", f"<= v < {_B63 + 1}:"),
    "wrap test admits -2^63-1": (rf"if not -{_B63} <= v", f"if not -{_B63 + 1} <= v"),
}

#: (closer, fill, side exit, closing): a long pipelined body; one with no
#: memory access (long runs of deferred back-edges); a while loop with two
#: back-edge sites and a call out in every iteration; a counted loop; and
#: loads only, so that side exits meet a BTB not yet full of back-edges
MUTATED_SHAPES = (
    ("ctop", 0b011111, True, "mid"),
    ("ctop", 0b000110, False, "last"),
    ("wtop", 0b100111, True, "two"),
    ("cloop", 0b001111, False, "last"),
    ("ctop", 0b000001, True, "last"),
)


def _moved(m: re.Match, change) -> str:
    if isinstance(change, str):
        return m.expand(change)
    group, delta = change
    a, b = (pos - m.start() for pos in m.span(group))
    return m.group(0)[:a] + str(int(m.group(group)) + delta) + m.group(0)[b:]


def _mutants(source: str):
    """``(fault, site or None, mutated source)`` for one closure."""
    for fault, (pattern, change) in (SITE | ANY_SITE).items():
        for n, m in enumerate(re.finditer(pattern, source)):
            yield fault, n, source[: m.start()] + _moved(m, change) + source[m.end():]
    for fault, (pattern, change) in EVERYWHERE.items():
        mutated = re.sub(pattern, lambda m: _moved(m, change), source)
        if mutated != source:
            yield fault, None, mutated


def _battery(k: int):
    """Runs that between them reach every exit row and flush site of a
    ``k``-bundle body: (trips, slice budget, margin, sampling interval,
    overhead, hot threshold, L2-hit latency, layout), budget and interval
    as (a, b) for a*k + b bundles and a*3k + b slots."""
    for trips, (ba, bb), margin, (ia, ib), overhead, threshold, l2_hit, layout in BATTERY:
        yield (trips, ba * k + bb, margin, ia * 3 * k + ib, overhead, threshold,
               l2_hit, layout)


#: a greedy cover of the kill matrix over ~100 drawn runs, most kills
#: first — plus, for the cycle limit to fall right after a bundle that
#: cannot stall, tight margins with a one-cycle L2 hit
BATTERY = (
    ((40, 30), (0, 512), 0, (0, 0), 0, 0, 1, 3),
    ((1, 19), (0, 64), 1, (4, 6), 5, 0, 1, 13),
    ((11, 32), (1, 1), 3, (0, 0), 0, 3, 0, 0),
    ((40, 30), (0, 512), 0, (0, 0), 0, 0, 1, 6),
    ((30, 40), (0, 512), 60, (4, 6), 5, 3, 0, 2),
    ((40, 30), (0, 512), 0, (0, 0), 0, 0, 1, 9),
    ((40, 30), (0, 512), 1, (0, 0), 0, 0, 1, 9),
    ((3, 39), (0, 64), 0, (1, 5), 5, 0, 0, 4),
    ((40, 30), (0, 64), 60, (0, 0), 0, 0, 0, 3),
    ((2, 8), (0, 512), 5, (1, 0), 5, 0, 1, 14),
    ((40, 30), (4, 1), 60, (0, 0), 0, 0, 0, 5),
)


def _no_line_runs():
    """Compile loop bodies without a line run (DESIGN.md §9 "Line runs"):
    the faults are seeded in the whole-iteration body, and a line run
    would take over the iterations that show them (tests/cpu/
    test_line_runs.py seeds its own)."""
    return mock.patch.object(tracejit, "_line_run", lambda body, sor: None)


@functools.lru_cache(maxsize=None)
def _survivors(shape) -> frozenset:
    """The ``(fault, site)`` mutants of ``shape`` that no battery run shows."""
    with _no_line_runs():
        return _survivors_of(shape)


def _survivors_of(shape) -> frozenset:
    source = _loop_source(shape)
    runs = list(_battery(_loop_trace(shape).n_bundles))
    oracle: dict = {}

    def shows(run) -> bool:
        if run not in oracle:
            oracle[run] = _run(JIT_OFF, shape, *run)[0]
        try:
            return not _agrees(_run(JIT_ON, shape, *run)[0], oracle[run])
        except Exception:   # noqa: BLE001 - a crashing mutant is a caught one
            return True

    alive = set()
    hidden: dict = {}   # an ``ANY_SITE`` fault -> no site tried so far shows it
    for fault, site, mutated in _mutants(source):
        if hidden.get(fault) is False:
            continue    # one site is enough
        with _with_source(lambda text, mutated=mutated: mutated if text == source else text):
            caught = any(shows(run) for run in runs)
        if fault in ANY_SITE:
            hidden[fault] = not caught
        elif not caught:
            alive.add((fault, site))
    return frozenset(alive | {(fault, None) for fault, still in hidden.items() if still})


#: faults seeded everywhere at once that a shape cannot show, by index
#: into ``MUTATED_SHAPES`` — the survivors, each caught on another shape
INVISIBLE = {
    # a prefetch misses every other iteration and flushes: never four
    # deferred back-edges, and a BTB of back-edges before every side exit
    0: {"BTB flush keeps 3 entries",
        "BTB flush dropped ahead of a side exit's BTB entry"},
    1: set(),
    # ld8.bias calls out (and flushes) in every iteration: nothing is
    # pending at the hand-over; the closing branch sits in the last slot
    2: {"event flush dropped ahead of the hand-over"},
    # the first store misses in iteration 3: the BTB holds back-edges
    # before any flush could publish four
    3: {"BTB flush keeps 3 entries"},
    # no r13/r14 bundles: no wrap ever sees a boundary value
    4: {"wrap test admits +2^63", "wrap test admits -2^63-1"},
}


@pytest.mark.parametrize("nth", range(len(MUTATED_SHAPES)))
def test_seeded_faults_are_caught(nth):
    shape = MUTATED_SHAPES[nth]
    survivors = _survivors(shape)
    assert not sorted(m for m in survivors if m[1] is not None), _loop_source(shape)
    assert {fault for fault, _ in survivors} == INVISIBLE[nth], _loop_source(shape)


def test_every_fault_is_seeded_and_caught_somewhere():
    seeded, caught = set(), set()
    for shape in MUTATED_SHAPES:
        with _no_line_runs():
            faults = {fault for fault, _, _ in _mutants(_loop_source(shape))}
        seeded |= faults
        caught |= faults - {fault for fault, _ in _survivors(shape)}
    # a pattern that no longer matches the generated source seeds nothing
    assert seeded == set(SITE) | set(EVERYWHERE) | set(ANY_SITE)
    assert caught == seeded
