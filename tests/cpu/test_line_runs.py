"""Line runs of a loop trace against their one-iteration oracles.

A loop body whose memory slots each walk one stream through a static GR
runs, while every slot stays on a line already in L2, as a *line run*:
a guard at the loop head bounds how many whole iterations cannot make a
cache call or an exit, the first iteration's LRU promotions and store
transitions are made once, and the iterations run with no cache work
(DESIGN.md §9 "Line runs").  That is a third version of the same body,
so it is only admissible with oracles: ``osr-off`` runs the same
closures without line runs, the generic interpreter runs one bundle at a
time, and the same closures with the run forced off (``_line_run``
mocked) never leave the whole-iteration and per-bundle bodies.  All must
agree on everything a run can observe — the caches' tags, LRU order and
line states included.  The seeded faults show the comparison has teeth;
the coverage pins show the runs take the iterations they are meant to.
Run as a script for the coverage table::

    python tests/cpu/test_line_runs.py
"""

from __future__ import annotations

import functools
import hashlib
import re
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import CacheConfig, itanium2_smp
from repro.cpu import Machine, Scheduler, tracejit
from repro.cpu import scheduler as scheduler_module
from repro.isa import assemble
from repro.memory.hierarchy import LOAD

#: the memory slots a shape may hold: name -> (GR, the stream it walks,
#: the slot under ``ctop``, under ``cloop``).  The int store walks the int
#: load's stream (its lines arrive clean and turn MODIFIED in a run), and
#: the lfetch.excl four steps behind the load, ahead of the store in slot
#: order, so that it finds lines the store made its own iterations ago;
#: the lfetch runs four steps ahead of the fp load
STREAMS = {
    "ld8": (19, "i", "(p16) ld8 r32=[r19],{s}", "ld8 r32=[r19],{s}"),
    "ldfd": (18, "x", "(p16) ldfd f32=[r18],{s}", "(p6) ldfd f32=[r18],{s}"),
    "lfetch.excl": (22, "i", "lfetch.excl.nt1 [r22],{s}", "(p6) lfetch.excl.nt1 [r22],{s}"),
    "stfd": (17, "y", "(p18) stfd [r17]=f41,{s}", "(p6) stfd [r17]=f40,{s}"),
    "st8": (16, "i", "(p18) st8 [r16]=r34,{s}", "st8 [r16]=r32,{s}"),
    "lfetch": (21, "x", "lfetch.nt1 [r21],{s}", "lfetch.nt1 [r21],{s}"),
}
#: what the body computes besides; the add reads an address GR
COMPUTE = {
    "ctop": ("(p17) fma f40=f8,f33,f9", "(p17) add r13=r13,r18"),
    "cloop": ("(p6) fma f40=f8,f32,f9", "add r13=r13,r18"),
}
STRIDES = (8, -8, 16, 64)
#: the L2 of itanium2_smp at the default scale: 16 sets of 128-byte lines
SET_SPAN = 16 * 128


def _program(closer: str, kinds: tuple, stride: int) -> str:
    cloop = closer == "cloop"
    lines = ["alloc rot=8", "mov ar.lc=r10", "mov ar.ec=3", "mov pr.rot=0x10000",
             "cmp.eq p6,p7=r0,r0", ".loop:"]
    lines += [slots[2 + cloop].format(s=stride) for kind, slots in STREAMS.items()
              if kind in kinds]
    lines += [*COMPUTE[closer], f"br.{closer}.sptk .loop", "add r25=r13,r11", "halt"]
    return "\n".join(lines)


#: further loops that must never run as line runs: a gather (an address
#: loaded, not stepped) and a while loop (``br.wtop``)
OTHER_PROGRAMS = {
    "gather": "\n".join([
        "alloc rot=8", "mov ar.lc=r10", "mov ar.ec=3", "mov pr.rot=0x10000", ".loop:",
        "(p16) ld8 r32=[r19],8", "(p17) shladd r34=r33,3,r18", "(p18) ldfd f32=[r35]",
        "(p18) fadd f10=f10,f32", "br.ctop.sptk .loop", "halt",
    ]),
    "wtop": "\n".join([
        "alloc rot=8", "mov ar.ec=3", "mov pr.rot=0x10000", "cmp.lt p8,p9=r11,r10",
        ".loop:", "add r11=1,r11", "cmp.eq p16,p7=r0,r0", "(p16) ldfd f32=[r18],8",
        "(p17) fadd f10=f10,f33", "cmp.lt p8,p9=r11,r10", "(p8) br.wtop.sptk .loop",
        "halt",
    ]),
}


def _source(shape) -> str:
    return OTHER_PROGRAMS.get(shape[0]) or _program(*shape)


def _l2(cache) -> tuple:
    """The L2 as a line run sees it: every tag in LRU order, with its
    line state and whether it is dirty."""
    return tuple((line, cache.state[line], line in cache.l2_dirty)
                 for tags in cache._l2_sets for line in tags)


def _run(mode, shape, trips, slice_bundles=512, margin=0, interval=0, l2_hit=0,
         layout=0, same_set=False, ways=8, warm=0):
    """Everything observable of one two-core run of ``shape`` under
    ``mode`` = (jit, osr), and each core's trace-JIT stats.

    ``layout`` moves the word in its line each stream starts at; with
    ``same_set`` every stream starts in the same L2 set, else each in
    the next.  ``ways`` 2 leaves the L2 two lines a set (and the L3
    16 KB): lines of one set then evict each other in LRU order all the
    time.  ``warm`` 1 loads every line the streams will reach into their
    core's caches first, so that a run finds its next lines present; 2
    loads them into the other core's caches too, so that they start
    SHARED and a store crossing onto one must upgrade it.
    """
    config = itanium2_smp(2)
    config = replace(config, latency=replace(config.latency, l2_hit=l2_hit))
    if ways != 8:
        config = replace(config, l2=CacheConfig(16 * 128 * ways, associativity=ways),
                         l3=CacheConfig(32 * 128 * 4, associativity=4))
    machine = Machine(config)
    image = assemble(_source(shape))
    machine.load_image(image)
    stride = shape[2] or 8
    samples: list = []
    slices: list = []
    calls: list = []

    def watch(core, cache):
        """An access hook: no call out of a trace may find BTB entries,
        event counts or the L2 not brought up to date."""
        access, events = cache.access_fn, cache.events

        def hook(now, addr, kind):
            calls.append((core.cpu_id, now, addr, kind, tuple(core.btb),
                          events.loads, events.stores, events.prefetches, hash(_l2(cache))))
            return access(now, addr, kind)

        cache.access_fn = hook

    def on_sample(core):
        samples.append((core.cpu_id, core.pc, core.cycles, core.retired,
                        tuple(core.btb), core.dear))

    for core, n in zip(machine.cores, trips):
        core.jit_enabled, core.osr_enabled = mode
        watch(core, machine.caches[core.cpu_id])
        machine.caches[core.cpu_id].dear_threshold = 8
        # each stream in its own span of whole L2-set strides, long
        # enough for n + 8 steps; a falling stream starts at its top
        span = -(-(n + 8) * abs(stride) // SET_SPAN) * SET_SPAN + SET_SPAN
        block = machine.mem.alloc(f"streams{core.cpu_id}", 4 * span)
        bases = {}
        for nth, name in enumerate(("x", "i", "y", "g")):
            start = (block.base + nth * span + (0 if same_set else 128 * nth)
                     + 8 * (layout * (2 * nth + 3) % 16))
            bases[name] = start if stride > 0 else start + span - SET_SPAN
        words = machine.mem.view_i64(block)
        words[:] = [k * k - 7 for k in range(len(words))]
        fp = machine.mem.view_f64(block)
        fp[: span // 8] = [0.5 * k + 1 for k in range(span // 8)]
        regs = core.regs
        for kind, (reg, stream, *_) in STREAMS.items():
            ahead = {"lfetch": 4, "lfetch.excl": -4}.get(kind, 0)
            regs.write_gr(reg, bases[stream] + ahead * stride)
        if shape[0] == "gather":    # r19 walks its indices, small words
            regs.write_gr(19, bases["g"])
            words[(bases["g"] - block.base) // 8:][: n + 8] = range(n + 8)
        regs.write_gr(10, n)
        regs.write_gr(13, 5)
        regs.write_fr(8, 3.0)
        regs.write_fr(9, 0.25)
        if interval:
            core.enable_sampling(interval, on_sample, 0)
        core.start(image.base)

    for core, n in zip(machine.cores, trips if warm else ()):
        caches = [machine.caches[c] for c in (core.cpu_id, 1 - core.cpu_id)[:warm]]
        reach = (n + 12) * stride
        for reg, *_ in STREAMS.values():
            ends = sorted((core.regs.read_gr(reg), core.regs.read_gr(reg) + reach))
            for line in range(ends[0] >> 7, (ends[1] >> 7) + 1):
                for cache in caches:
                    cache.access(0, line << 7, LOAD)

    scheduler = Scheduler(machine.cores, margin=margin)
    # a few resumes at a bundle start runs there (the rule, not its threshold)
    with mock.patch.object(scheduler_module, "_SLICE_BUNDLES", slice_bundles), \
            mock.patch.object(tracejit, "ROTATE_THRESHOLD", 2):
        for _ in range(100_000):
            if not scheduler.step():
                break
            # every slice must end on the same bundle, in the same state
            slices.append([(c.pc, c.cycles, c.retired, tuple(c.btb), hash(_l2(cache)))
                           for c, cache in zip(machine.cores, machine.caches)])
        else:  # pragma: no cover
            raise AssertionError("loop program did not halt")

    observed = []
    for c in machine.cores:
        cache = machine.caches[c.cpu_id]
        observed.append((
            c.cycles, c.retired, c.bundles_executed, c.taken_branches, tuple(c.btb),
            c.dear, c._issue_tick, c._sample_countdown,
            tuple(c.regs.gr), tuple(c.regs.fr), tuple(c.regs.pr),
            (c.regs.lc, c.regs.ec, c.regs.rrb_gr, c.regs.rrb_fr, c.regs.rrb_pr),
            tuple(sorted(cache.events.snapshot().items())),
            _l2(cache), tuple(map(tuple, cache.l3._sets)), tuple(sorted(cache.state.items())),
            tuple(sorted(cache.l2_dirty)), tuple(sorted(cache.excl_alloc)),
        ))
    memory = hashlib.sha256(machine.mem._i64.tobytes()).hexdigest()
    stats = [c.trace_jit.stats() for c in machine.cores]
    return (observed, memory, slices, samples, calls), stats


JIT_ON, OSR_OFF, JIT_OFF = (True, True), (True, False), (False, False)
RUN_COUNTERS = tracejit._RUN_COUNTERS


def _no_line_runs():
    """The same closures, with the line run never emitted."""
    return mock.patch.multiple(tracejit, _TRACE_FNS={}, _line_run=lambda body, sor: None)


def _with_source(rewrite):
    """Run with every generated trace source passed through ``rewrite``."""
    generate = tracejit._generate
    return mock.patch.multiple(
        tracejit, _TRACE_FNS={}, _generate=lambda *key: rewrite(generate(*key)))


def _agrees(fast, oracle) -> bool:
    """State, memory, slices and samples equal; every call the faster run
    makes is one the oracle made, in order, finding the same state."""
    made = iter(oracle[-1])
    return fast[:-1] == oracle[:-1] and all(call in made for call in fast[-1])


def _without_run_counters(stats):
    return [{k: v for k, v in s.items() if k not in RUN_COUNTERS} for s in stats]


def _assert_exact(shape, *args, **kw):
    """Every oracle against the run with line runs; returns its stats."""
    fast, fast_stats = _run(JIT_ON, shape, *args, **kw)
    for mode in (OSR_OFF, JIT_OFF):
        replay, replay_stats = _run(mode, shape, *args, **kw)
        assert _agrees(fast, replay), f"differs from {mode}:\n{_loop_source(shape)}"
        assert all(s["line_runs"] == 0 for s in replay_stats)
    with _no_line_runs():
        replay, replay_stats = _run(JIT_ON, shape, *args, **kw)
    assert fast == replay, _loop_source(shape)
    assert _without_run_counters(fast_stats) == _without_run_counters(replay_stats)
    return fast_stats


@functools.lru_cache(maxsize=None)
def _loop_source(shape) -> str:
    machine = Machine(itanium2_smp(1))
    image = assemble(_source(shape))
    machine.load_image(image)
    dcache = machine.cores[0].decode_cache
    trace = tracejit.compile_trace(
        image.labels[".loop"], dcache.sync(), dcache.keys, 8, 2, relax=True)
    return trace.source().split("\n", 1)[1]


kind_sets = st.lists(st.sampled_from(tuple(STREAMS)), max_size=6,
                     unique=True).map(lambda kinds: tuple(k for k in STREAMS if k in kinds))
shapes = st.tuples(st.sampled_from(("ctop", "cloop")), kind_sets, st.sampled_from(STRIDES))


@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(
    shape=shapes,
    trips=st.tuples(st.integers(1, 48), st.integers(1, 48)),
    # slices that end at every bundle of an iteration and resume there
    slice_bundles=st.sampled_from((1, 2, 3, 4, 5, 7, 64, 512)),
    margin=st.sampled_from((0, 1, 3, 16)),
    # off; mid-run, every few iterations; rarely
    interval=st.sampled_from((0, 5, 17, 40, 1000)),
    l2_hit=st.sampled_from((0, 1, 5)),
    layout=st.integers(0, 15),
    same_set=st.booleans(),
    ways=st.sampled_from((2, 8)),
    # next lines absent, present, present and SHARED
    warm=st.sampled_from((0, 1, 2)),
)
def test_line_runs_are_exact(shape, trips, slice_bundles, margin, interval, l2_hit,
                             layout, same_set, ways, warm):
    _assert_exact(shape, trips, slice_bundles, margin, interval, l2_hit, layout, same_set,
                  ways, warm)


@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("closer", ("ctop", "cloop"))
def test_every_word_offset_and_stride(closer, stride):
    """Every place in its line a stream can start, each stride, both
    closers, and every memory slot kind at once."""
    in_runs = 0
    for layout in range(16):
        stats = _assert_exact((closer, tuple(STREAMS), stride), (40, 23), 512, 16, 0, 1,
                              layout, layout % 2 == 0)
        in_runs += sum(s["line_run_iters"] for s in stats)
    assert in_runs > 0


def test_qualifying_shapes():
    """The rules of :func:`tracejit._line_run`, one at a time."""
    def qualifies(text: str, sor: int = 8) -> bool:
        machine = Machine(itanium2_smp(1))
        image = assemble(text)
        machine.load_image(image)
        dcache = machine.cores[0].decode_cache
        trace = tracejit.compile_trace(
            image.labels[".loop"], dcache.sync(), dcache.keys, sor, 2, relax=True)
        return tracejit._line_run(tracejit._relative(trace.head, trace.body), sor) is not None

    def loop(*slots: str, closer: str = "br.ctop.sptk .loop") -> str:
        return "\n".join(["mov ar.lc=r10", ".loop:", *slots, closer, "halt"])

    assert qualifies(loop("(p16) ldfd f32=[r18],8", "(p18) stfd [r17]=f41,-8"))
    assert qualifies(loop("(p6) ld8 r9=[r19],120", "lfetch.excl [r22],1",
                          closer="br.cloop.sptk .loop"))
    assert not qualifies(loop("ldfd f32=[r18]"))                  # no post-increment
    assert not qualifies(loop("ldfd f32=[r18],128"))              # a line or more
    assert not qualifies(loop("ldfd f32=[r18],4"))                # not whole words
    assert not qualifies(loop("ldfd f32=[r33],8"))                # a rotating GR
    assert qualifies(loop("ldfd f32=[r33],8"), sor=0)             # ... unless none rotate
    assert not qualifies(loop("ldfd f32=[r18],8", "add r18=r18,r9"))  # another writer
    assert not qualifies(loop("ld8 r18=[r18],8"))                 # its own load writes it
    assert not qualifies(loop("ldfd f32=[r18],8", "stfd [r18]=f9,8"))  # two slots, one GR
    assert not qualifies(loop("ld8.bias r9=[r19],8"))
    assert not qualifies(loop("fetchadd8 r9=[r19],1", "ld8 r9=[r20],8"))
    assert not qualifies(loop("ldfd f32=[r18],8", "mov ar.lc=r9"))
    assert not qualifies(loop("(p6) ldfd f32=[r18],8", "cmp.eq p6,p7=r9,r0"))
    assert not qualifies(loop("(p17) ldfd f32=[r18],8", "cmp.eq p20,p7=r9,r0"))
    assert qualifies(loop("(p17) ldfd f32=[r18],8", "cmp.eq p20,p7=r9,r0",
                          closer="br.cloop.sptk .loop"))
    assert not qualifies(loop("ldfd f32=[r18],8", "cmp.eq p6,p7=r9,r0",
                              "(p6) br.cond .loop"))              # a second branch
    assert not qualifies(loop("ldfd f32=[r18],8", closer="(p6) br.cloop.sptk .loop"))
    assert qualifies(loop("add r9=r9,r9"))                        # no memory slot
    for name in OTHER_PROGRAMS:
        assert not qualifies(OTHER_PROGRAMS[name]), name
    # a loop that does not qualify compiles as before: no run emitted
    assert "line_runs" not in _loop_source(("gather", (), 0))


# -- the comparison has teeth --------------------------------------------------

#: seeded faults in the generated source: name -> (pattern, replacement)
#: pairs, each made at every site at once, in order
FAULTS = {
    "first-round promotion skipped": [(r"del (s\d+)\[(l\d+)\]\n *\1\[\2\] = None\n *", "")],
    "line bound off by one": [(r"(\((?:a\d+|b) & 127\)\) // \d+|\((?:a\d+|b) & 127\) // \d+) \+ 1",
                               r"\1 + 2")],
    "MODIFIED transition missing": [(r"line_state\[l\d+\] = 3\n *", "")],
    "event count missing": [(r"n_(loads|stores|prefetches) \+= t \* \d+", "pass")],
    # the chain's touch round leaves out the first promotion
    "crossing promotion skipped": [
        (r"(# chain: the crossing iteration's touches\n(?:[^\n]*\n)*?) *del (s\d+)\[(l\d+)\]\n"
         r" *\2\[\3\] = None\n", r"\1")],
    # the per-bundle body takes a crossing over at the cycle its run began
    "crossing charged at the run's start cycle": [
        (r"\n( *)(t = 0\n)", r"\n\1\2\1c0 = cycles\n"),
        (r"\n( *)(start = (?:-1|[1-9]\d*)\n\1continue\n)", r"\n\1cycles = c0\n\1\2")],
    # a run entered mid-iteration touches its lines one slot late: the
    # first slot of its iteration last
    "mid-iteration entry off by one slot": [
        (r"((?: *(?:line_state|l2_dirty|del s|s\d+\[)[^\n]*\n)+)(?= *n_line_runs \+= 1\n"
         r" *n_rotated_runs)", lambda found: _first_slot_last(found[1]))],
}


def _first_slot_last(touches: str) -> str:
    """A touch round with the first slot's touches moved to its end."""
    slots = re.findall(r"(?:(?: *(?:line_state|l2_dirty)[^\n]*\n)*) *del s[^\n]*\n[^\n]*\n",
                       touches)
    assert "".join(slots) == touches
    return "".join(slots[1:] + slots[:1])


#: (shape, trips, slice budget, margin, interval, L2-hit stall, layout,
#: same set, L2 ways[, warm]): runs that between them show every fault.  A fault
#: of the first touch round shows until the next whole iteration touches
#: the same lines again — so where a slice ends at the loop head after a
#: run, or where the slot that misses next comes first in the body
BATTERY = (
    (("ctop", ("ld8", "ldfd", "st8"), 8), (40, 30), 512, 0, 0, 0, 0, True, 8),
    (("ctop", ("ld8", "ldfd", "st8"), 8), (40, 30), 7, 16, 0, 1, 3, True, 2),
    (("ctop", ("ld8", "lfetch.excl", "st8", "lfetch"), -8), (40, 30), 512, 16, 0, 1, 9, False, 8),
    (("cloop", ("ld8", "ldfd", "lfetch.excl", "st8"), 8), (40, 30), 7, 16, 1000, 5, 11, True, 8),
    (("ctop", tuple(STREAMS), 8), (40, 30), 512, 0, 0, 1, 5, True, 8),
    # next lines present: runs chain across line boundaries, and slices
    # that end mid-iteration resume into runs that start there
    (("ctop", ("ldfd", "stfd"), 8), (48, 40), 5, 1, 0, 1, 7, False, 8, 1),
    (("ctop", ("ld8", "ldfd", "st8"), -8), (48, 40), 4, 3, 0, 5, 2, True, 8, 1),
    # ... and SHARED: the store crossing upgrades its next line
    (("ctop", ("ld8", "st8", "lfetch"), 8), (48, 40), 4, 0, 0, 1, 12, False, 2, 2),
    (("cloop", ("ld8", "lfetch.excl", "st8"), 16), (48, 40), 3, 3, 40, 1, 13, False, 8, 1),
)


def _caught(fault: str) -> bool:
    seeded = False
    for shape, *args in BATTERY:
        oracle, _ = _run(JIT_OFF, shape, *args)

        def rewrite(text):
            nonlocal seeded
            mutated = text
            for pattern, change in FAULTS[fault]:
                mutated = re.sub(pattern, change, mutated)
            seeded |= mutated != text
            return mutated

        with _with_source(rewrite):
            try:
                fast, _ = _run(JIT_ON, shape, *args)
            except Exception:   # noqa: BLE001 - a crashing mutant is a caught one
                return True
        if not _agrees(fast, oracle):
            return True
    assert seeded, f"{fault}: the pattern matches no generated source"
    return False


@pytest.mark.parametrize("fault", FAULTS)
def test_seeded_fault_is_caught(fault):
    assert _caught(fault)


def test_the_battery_agrees_unmutated():
    totals = dict.fromkeys(RUN_COUNTERS, 0)
    for shape, *args in BATTERY:
        stats = _assert_exact(shape, *args)
        assert sum(s["line_run_iters"] for s in stats) > 0, shape
        for key in totals:
            totals[key] += sum(s[key] for s in stats)
    # the battery chains runs across line boundaries and starts them mid-body
    assert all(totals.values()), totals


# -- coverage ----------------------------------------------------------------------

#: program -> [iterations run compiled, of them in line runs], both cores
#: (200 and 150 trips).  A program is a closer, the memory slots and the
#: stride of :func:`_program`, one of ``OTHER_PROGRAMS``, or stream_steady's
COVERAGE = {
    "ctop ld8 ldfd stfd st8 +8": [348, 303],
    "ctop ld8 st8 lfetch -8": [348, 303],
    "cloop ld8 lfetch.excl st8 +16": [344, 301],
    "cloop ldfd stfd +64": [344, 173],
    "cloop +8": [344, 344],     # no memory slot: the fma and the add
    "gather": [348, 0],
    "wtop": [346, 0],
    "stream_steady daxpy": [213_100, 170_518],
}
#: the share of its iterations the stream_steady program must run in line runs
STREAM_FLOOR = 0.7

#: what the stream_steady program's loop trace does per call: calls, run
#: entries, line boundaries runs went on past, runs started mid-body, and
#: passes into the per-bundle body mid-iteration (:func:`_probed`).  Runs
#: that ended at every line boundary and started only at the loop head
#: read 15,573 calls, 28,729 runs and 12,153 per-bundle resumes.
PATTERN = {
    "calls": 15_573,
    "line_runs": 17_011,
    "line_run_chains": 11_887,
    "rotated_runs": 11_044,
    "per-bundle resumes": 2_204,
}


def _probed(text: str) -> str:
    """``text`` counting, if it runs line runs, its calls and its
    per-bundle resumes: passes into the per-bundle body at a bundle past
    the first that get past that bundle's budget test."""
    if "n_line_runs" not in text:
        return text
    lines = text.split("\n")
    out, bundle = [], None
    for line in lines:
        out.append(line)
        if line.endswith("= env"):
            out.append("    LINE_RUN_PROBE['calls'] += 1")
        found = re.fullmatch(r" {8}# -- bundle \+(0x[0-9a-f]+)", line)
        if found:
            bundle = int(found[1], 16) // 16
        elif bundle and line.strip() == "stall = 0":
            indent = line[: len(line) - len(line.lstrip())]
            out[-1:] = [f"{indent}if start == {bundle}:",
                        f"{indent}    LINE_RUN_PROBE['per-bundle resumes'] += 1", line]
            bundle = None
    return "\n".join(out)


@functools.lru_cache(maxsize=None)
def _daxpy_run() -> dict:
    """stream_steady's program: the 2M DAXPY, 4 threads, 24 outer reps,
    under the adaptive strategy (benchmarks/e2e/sim_workloads.py): the
    trace-JIT stats summed over its cores, and the calls and per-bundle
    resumes of its loop trace (:func:`_probed`)."""
    import builtins
    from collections import Counter

    from repro import build_daxpy, itanium2_smp as smp, run_with_cobra
    from repro.workloads.daxpy import working_set_elems

    probe: Counter = Counter()
    machine = Machine(smp(4, scale=16))
    for core in machine.cores:
        core.jit_enabled = core.osr_enabled = True
    with _with_source(_probed), mock.patch.object(builtins, "LINE_RUN_PROBE", probe,
                                                  create=True):
        run_with_cobra(build_daxpy(machine, working_set_elems("2M", 16), 4, outer_reps=24),
                       "adaptive")
    stats = [c.trace_jit.stats() for c in machine.cores]
    return {**{key: sum(s[key] for s in stats) for key in stats[0]
               if isinstance(stats[0][key], int)}, **probe}


def _daxpy_counts() -> list[int]:
    run = _daxpy_run()
    return [run["iterations"], run["line_run_iters"]]


def _counts(name: str) -> list[int]:
    if name == "stream_steady daxpy":
        return _daxpy_counts()
    closer, *rest = name.split()
    shape = (closer, (), 0) if not rest else (closer, tuple(rest[:-1]), int(rest[-1]))
    _, stats = _run(JIT_ON, shape, (200, 150))
    return [sum(s[key] for s in stats) for key in ("iterations", "line_run_iters")]


@pytest.mark.parametrize("name", COVERAGE)
def test_line_run_coverage(name):
    assert _counts(name) == COVERAGE[name]


def test_stream_steady_runs_mostly_in_line_runs():
    iterations, in_runs = COVERAGE["stream_steady daxpy"]
    assert in_runs >= STREAM_FLOOR * iterations


def test_stream_steady_slices_are_one_run():
    """A steady-state slice is one entry, one run, then the crossing."""
    run = _daxpy_run()
    assert {key: run[key] for key in PATTERN} == PATTERN
    assert PATTERN["line_runs"] <= 1.2 * PATTERN["calls"]
    assert PATTERN["per-bundle resumes"] <= 0.25 * 12_153


if __name__ == "__main__":
    print(f"{'program':<34}{'iterations':>11}{'in runs':>9}{'share':>8}")
    failed = False
    for name, pinned in COVERAGE.items():
        counts = _counts(name)
        failed |= counts != pinned
        print(f"{name:<34}{counts[0]:>11,}{counts[1]:>9,}{counts[1] / counts[0]:>8.1%}"
              + ("" if counts == pinned else f"  (pinned {pinned[0]:,} / {pinned[1]:,})"))
    print("\nstream_steady's loop trace")
    run = _daxpy_run()
    for key, pinned in PATTERN.items():
        failed |= run[key] != pinned
        print(f"{key:<34}{run[key]:>11,}" + ("" if run[key] == pinned else f"  (pinned {pinned:,})"))
    sys.exit(1 if failed else 0)
