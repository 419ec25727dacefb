"""One front end per program image: shared decode, content-addressed traces.

Every core of a machine — and every machine of a process — that decodes
a trace to the same body runs the same generated function, and so does
every other head whose body differs from it in code addresses only; a
patched bundle is a different body and therefore a different function.
Sharing must be invisible: a run's digest, counters and report are those
of the same run made alone.
"""

from __future__ import annotations

import gc
import types
from dataclasses import replace
from unittest import mock

import pytest

from repro.config import env_value, itanium2_smp
from repro.cpu import Core, Machine, Scheduler, tracejit
from repro.cpu import scheduler as scheduler_module
from repro.errors import SimulationFault
from repro.isa import assemble
from repro.isa.binary import BinaryImage
from repro.scenario import MACHINES, daxpy_spec, run_cell

#: ``REPRO_TRACE_JIT=0`` interprets everything: no trace is ever compiled
needs_jit = pytest.mark.skipif(
    env_value("REPRO_TRACE_JIT") == "0",
    reason="asserts on the trace memo, which JIT-off never fills",
)

CLOOP_SRC = "mov ar.lc=299\nmov r1=0\n.loop:\nadd r1=2,r1\nbr.cloop.sptk .loop\nhalt\n"


def _one_core(src: str):
    machine = Machine(itanium2_smp(1))
    image = assemble(src)
    machine.load_image(image)
    core = machine.cores[0]
    core.start(image.base)
    return core, image


class TestFreedCode:
    """``BinaryImage.free``/``truncate`` with cores attached (trace-cache
    eviction and failed deploys do this on a live machine)."""

    def test_branch_into_freed_bundle_faults(self):
        core, image = _one_core("mov r1=1\nbr .far\n.far:\nmov r2=2\nhalt\n")
        core.decode_cache.sync()
        image.free(image.labels[".far"], 1)
        with pytest.raises(SimulationFault, match="no code at address"):
            core.run(8)

    @needs_jit
    def test_trace_over_freed_bundle_is_invalidated(self):
        core, image = _one_core(CLOOP_SRC)
        tjit = core.trace_jit
        while not tjit.traces:
            core.run(4)
        (head,) = tjit.traces
        image.free(head, 1)
        with pytest.raises(SimulationFault, match="no code at address"):
            core.run(8)
        assert tjit.traces == {} and tjit.dispatch == {}
        assert tjit.invalidations == 1


def _cell(strategy: str):
    """Everything a daxpy cell reports, and the trace shapes it generated."""
    generated = []
    generate = tracejit._generate

    def counting(*shape):
        generated.append(shape)
        return generate(*shape)

    recipe = replace(MACHINES["smp4"], scale=16)
    with mock.patch.object(tracejit, "_generate", counting):
        obs = run_cell(recipe, daxpy_spec(4096, 4, 4), strategy, tap=strategy != "none")
    report = obs.report.summary() if obs.report is not None else None
    return (
        obs.digest, obs.cycles, obs.retired, obs.events, obs.fastpath,
        obs.n_samples, obs.samples_sha, report,
    ), generated


def _memo_levels() -> tuple[set, set]:
    """The memo's keys, (absolute, head-relative): a shape is the key of
    the same trace at head 0."""
    keys = set(tracejit._TRACE_FNS)
    shapes = {key for key in keys if key[0] == 0}
    return keys - shapes, shapes


#: one kernel template, instantiated wherever the image's base puts it
RELOCATED_SRC = """
    alloc rot=8
    .outer:
    mov ar.lc=r10
    mov ar.ec=2
    mov pr.rot=0x10000
    mov r18=r17
    .loop:
    (p16) ld8 r32=[r18],8
    (p17) add r20=r20,r33
    cmp.eq p6,p7=r20,r12
    (p6) br.cond .out
    add r11=1,r11
    br.ctop.sptk .loop
    .out:
    add r13=r11,r20
    add r14=1,r14
    add r15=r13,r14
    add r16=1,r15
    cmp.lt p8,p9=r14,r19
    (p8) br.cond .outer
    halt
"""
BASES = (0x4000_0000, 0x4000_0400, 0x4123_4560)


def _relocated(base: int, jit: bool, n_cpus: int = 1, patch: bool = False):
    """Run ``RELOCATED_SRC`` assembled at ``base`` in two-bundle slices
    (every covered bundle becomes an entry index); everything observable
    with code addresses taken relative to ``base``, and the traces."""
    machine = Machine(itanium2_smp(n_cpus))
    image = assemble(RELOCATED_SRC, base=base)
    if patch:
        addr = image.labels[".loop"] + 32     # add r11=1,r11
        image.patch_slot(addr, 0, image.fetch(addr).clone(imm=9))
    machine.load_image(image)
    data = machine.mem.alloc("v", 8 * 64)
    machine.mem.view_i64(data)[:] = range(64)
    samples: list = []

    def btb(core):
        return tuple((at - base, to - base) for at, to in core.btb)

    for core in machine.cores:
        core.jit_enabled = core.osr_enabled = jit   # whatever the env says
        core.regs.write_gr(10, 9 + core.cpu_id)
        core.regs.write_gr(12, 300)
        core.regs.write_gr(17, data.base)
        core.regs.write_gr(19, 6)
        core.enable_sampling(7, lambda c: samples.append(
            (c.cpu_id, c.pc - base, c.cycles, c.retired, btb(c),
             c.dear and (c.dear[0] - base, *c.dear[1:]))))
        core.start(image.base)
    scheduler = Scheduler(machine.cores)
    with mock.patch.object(scheduler_module, "_SLICE_BUNDLES", 2):
        scheduler.run_until_halt(100_000)
    observed = [
        (c.pc - base, c.cycles, c.retired, c.bundles_executed, c.taken_branches,
         btb(c), tuple(c.regs.gr),
         tuple(c.regs.pr), c.regs.lc, c.regs.ec, c.regs.rrb_gr,
         tuple(sorted(machine.caches[c.cpu_id].events.snapshot().items())))
        for c in machine.cores
    ]
    traces = [tr for c in machine.cores for tr in c.trace_jit.traces.values()]
    osr_entries = sum(c.trace_jit.osr_entries for c in machine.cores)
    return (observed, samples), traces, osr_entries


@needs_jit
class TestTraceCodeSharing:
    def test_two_machines_share_equal_traces_and_only_those(self):
        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            plain_alone, plain_shapes = _cell("none")
            plain_keys, _ = _memo_levels()
        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            patched_alone, patched_shapes = _cell("noprefetch")
            patched_keys, _ = _memo_levels()
        # four cores, one program: each shape is generated once, not four
        # times, and no more shapes than heads
        assert len(plain_shapes) == len(set(plain_shapes)) <= len(plain_keys)
        assert len(patched_shapes) == len(set(patched_shapes)) <= len(patched_keys)
        # the deployment rewrote bundles under some traces and not others
        assert patched_keys - plain_keys and patched_keys & plain_keys
        assert set(patched_shapes) - set(plain_shapes)

        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            plain_shared, first = _cell("none")
            patched_shared, second = _cell("noprefetch")
            # the second machine generated exactly the shapes the first
            # never produced ...
            assert first == plain_shapes
            assert set(second) == set(patched_shapes) - set(plain_shapes)
            # ... and the memo holds each head once and each shape once
            keys, shapes = _memo_levels()
            assert keys == plain_keys | patched_keys
            assert {shape[1:] for shape in shapes} == set(first) | set(second)
        # neither run can tell it had company
        assert plain_shared == plain_alone
        assert patched_shared == patched_alone

    def test_memo_is_bounded(self):
        with mock.patch.object(tracejit, "_TRACE_FNS", {}), mock.patch.object(
            tracejit, "_TRACE_FNS_CAP", 3
        ):
            for lc in range(8):  # eight loops that differ in one immediate
                core, _ = _one_core(CLOOP_SRC.replace("add r1=2", f"add r1={lc + 2}"))
                while not core.halted:
                    core.run(64)
                assert core.regs.read_gr(1) == 300 * (lc + 2)
                assert core.trace_jit.compiles >= 1
                # a head's key and its shape's both count against the cap
                assert len(tracejit._TRACE_FNS) <= 3
            assert len(tracejit._TRACE_FNS) == 3

    def test_one_function_for_every_address_a_kernel_is_assembled_at(self):
        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            runs = {base: _relocated(base, jit=True, n_cpus=1 + (base == BASES[1]))
                    for base in BASES}
            keys, shapes = _memo_levels()
            fns = {}
            for base, (_, traces, osr_entries) in runs.items():
                assert osr_entries    # the shared function was entered mid-body
                for tr in traces:
                    # a trace of its own, at its own head, in its own tree
                    assert tr.head == tr.addrs[0] and tr.root in {t.head for t in traces}
                    assert base <= tr.head < base + 0x100
                    assert tr.source().startswith(f"# entered with H = {tr.head:#x}\n")
                    fns.setdefault((tr.head - base, tr.kind), set()).add(tr.fn)
            # the loop and the linear tail: two shapes, however many heads
            assert sorted(kind for _, kind in fns) == ["linear", "loop"]
            assert len(shapes) == 2 and len(keys) == 2 * len(BASES)
            assert all(len(shared) == 1 for shared in fns.values())
            for (fn,) in fns.values():
                assert "0x4" not in fn.__code__.co_filename     # named by shape
            # a patched bundle under one head splits its shape off again
            _, (patched, tail), _ = _relocated(BASES[0], jit=True, patch=True)
            assert patched.fn not in fns[patched.head - BASES[0], "loop"]
            assert tail.fn in fns[tail.head - BASES[0], "linear"]
            assert len(_memo_levels()[1]) == 3
        for base, (fast, _, _) in runs.items():
            oracle, traces, _ = _relocated(base, jit=False, n_cpus=1 + (base == BASES[1]))
            assert not traces and fast == oracle
        # two machines cannot tell their code apart but by its addresses
        assert runs[BASES[0]][0] == runs[BASES[2]][0]

    def test_memo_holds_no_machine_state(self):
        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            _cell("adaptive")
            assert tracejit._TRACE_FNS
            # everything reachable from the memo, stopping at modules (the
            # functions' globals name builtins, which reach everything)
            seen: dict[int, object] = {}
            stack: list = [tracejit._TRACE_FNS]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(obj, types.ModuleType):
                    continue
                if isinstance(obj, dict) and obj.get("__name__") == "builtins":
                    continue
                seen[id(obj)] = obj
                stack.extend(gc.get_referents(obj))
            held = [
                o for o in seen.values()
                if isinstance(o, (Machine, Core, BinaryImage, tracejit.TraceJit))
            ]
            assert held == []
            for fn in tracejit._TRACE_FNS.values():
                assert fn.__closure__ is None
