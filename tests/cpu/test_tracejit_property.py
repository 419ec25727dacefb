"""Property tests: compiled traces match the generic interpreter exactly.

Random straight-line kernels (ALU ops, compares, random qualifying
predicates over both static and rotating registers) inside ``br.ctop``
and ``br.wtop`` loops with random LC/EC are run twice — JIT disabled
and JIT enabled with a lowered hot threshold so even short loops
compile — and the full architectural state must come out bit-identical:
registers, predicates, rotation bases, loop counters, cycles, retirement
and branch-history counters.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import itanium2_smp
from repro.cpu import Machine, Scheduler, tracejit
from repro.isa import assemble

COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

# static scratch pool + two rotating names (alloc rot=8 below)
_REGS = tuple(range(1, 9)) + (32, 33)
#: (pt, pf) pairs: static, rotating, and mixed — always distinct
_PRED_PAIRS = ((6, 7), (16, 17), (7, 17))
_QPS = (None, 6, 7, 16, 17)

reg = st.sampled_from(_REGS)
qp = st.sampled_from(_QPS)
pred_pair = st.sampled_from(_PRED_PAIRS)


def _guard(q, text):
    return f"(p{q}) {text}" if q is not None else text


KERNEL_OP = st.one_of(
    st.builds(
        lambda q, op, d, a, b: _guard(q, f"{op} r{d}=r{a},r{b}"),
        qp, st.sampled_from(("add", "sub", "and", "or", "xor")), reg, reg, reg,
    ),
    st.builds(
        lambda q, d, i, a: _guard(q, f"add r{d}={i},r{a}"),
        qp, reg, st.integers(-512, 512), reg,
    ),
    st.builds(
        lambda q, op, d, a, n: _guard(q, f"{op} r{d}=r{a},{n}"),
        qp, st.sampled_from(("shl", "shr")), reg, reg, st.integers(0, 63),
    ),
    st.builds(
        lambda q, op, p, a, b: _guard(q, f"{op} p{p[0]},p{p[1]}=r{a},r{b}"),
        qp, st.sampled_from(("cmp.lt", "cmp.le", "cmp.eq", "cmp.ne")),
        pred_pair, reg, reg,
    ),
    st.builds(
        lambda q, d, i: _guard(q, f"mov r{d}={i}"),
        qp, reg, st.integers(0, 4096),
    ),
)

KERNEL = st.lists(KERNEL_OP, max_size=9)


def _arch_state(core):
    regs = core.regs
    return (
        tuple(regs.read_gr(r) for r in range(64)),
        tuple(regs.read_pr(p) for p in range(64)),
        regs.lc, regs.ec, regs.rrb_gr, regs.rrb_fr, regs.rrb_pr,
        core.pc, core.cycles, core.retired, core.bundles_executed,
        core.taken_branches, tuple(core.btb),
    )


def _execute(src: str, jit: bool):
    machine = Machine(itanium2_smp(1))
    image = assemble(src)
    machine.load_image(image)
    core = machine.cores[0]
    core.jit_enabled = jit
    if jit:
        # compile after two hot back-edges so short random loops still
        # exercise the fast path; the threshold is a policy knob and
        # must never affect semantics
        core.trace_jit.threshold = 2
    core.start(image.base)
    Scheduler(machine.cores).run_until_halt(1_000_000)
    return core


def _assert_equivalent(src: str):
    ref = _execute(src, jit=False)
    fast = _execute(src, jit=True)
    assert _arch_state(ref) == _arch_state(fast), src
    return fast


@given(kernel=KERNEL, lc=st.integers(0, 40), ec=st.integers(1, 4))
@settings(**COMMON)
def test_ctop_compiled_matches_generic(kernel, lc, ec):
    body = "\n".join(kernel)
    src = (
        "clrrrb\nalloc rot=8\nmov pr.rot=0x10000\n"
        f"mov ar.lc={lc}\nmov ar.ec={ec}\n"
        "mov r1=3\nmov r2=5\nmov r3=7\nmov r4=9\n"
        f".loop:\n{body}\nbr.ctop.sptk .loop\nhalt\n"
    )
    fast = _assert_equivalent(src)
    if lc + ec >= 4:  # enough back-edges to cross the lowered threshold
        assert fast.trace_jit.compiles + len(fast.trace_jit.blacklist) >= 1


@given(
    kernel=st.lists(
        # wtop termination rides on r9/p6, so kernels here stay off both:
        # predicates are restricted to the rotating pair
        st.one_of(
            st.builds(
                lambda q, op, d, a, b: _guard(q, f"{op} r{d}=r{a},r{b}"),
                st.sampled_from((None, 16, 17)),
                st.sampled_from(("add", "sub", "xor")), reg, reg, reg,
            ),
            st.builds(
                lambda q, op, a, b: _guard(q, f"{op} p16,p17=r{a},r{b}"),
                st.sampled_from((None, 16, 17)),
                st.sampled_from(("cmp.lt", "cmp.ne")), reg, reg,
            ),
        ),
        max_size=6,
    ),
    trip=st.integers(0, 30),
)
@settings(**COMMON)
def test_wtop_compiled_matches_generic(kernel, trip):
    body = "\n".join(kernel)
    src = (
        "clrrrb\nalloc rot=8\nmov ar.ec=1\n"
        "mov r9=0\nmov r1=3\nmov r2=5\nmov r3=7\n"
        f".loop:\n{body}\n"
        f"cmp.lt p6,p7=r9,{trip}\n"
        "(p6) add r9=1,r9\n"
        "(p6) br.wtop.sptk .loop\nhalt\n"
    )
    ref = _execute(src, jit=False)
    fast = _execute(src, jit=True)
    assert _arch_state(ref) == _arch_state(fast), src
    assert fast.regs.read_gr(9) == trip


@given(
    kernel=KERNEL,
    lc=st.integers(8, 40),
    ec=st.integers(1, 4),
    interval=st.integers(3, 23),
    slice_bundles=st.integers(1, 64),
)
@settings(**COMMON)
def test_osr_entry_matches_generic_from_mid_loop_state(
    kernel, lc, ec, interval, slice_bundles
):
    """OSR-entered execution is bit-identical from arbitrary mid-loop state.

    Random sampling intervals interrupt the compiled trace at arbitrary
    bundles (capturing rotation bases, predicates, LC/EC and the
    countdown mid-iteration) and random slice sizes force budget exits
    at arbitrary boundaries; with OSR on, every re-dispatch after either
    kind of interruption may enter the trace mid-body.  All three
    policies must agree on the full architectural state.
    """
    body = "\n".join(kernel)
    src = (
        "clrrrb\nalloc rot=8\nmov pr.rot=0x10000\n"
        f"mov ar.lc={lc}\nmov ar.ec={ec}\n"
        "mov r1=3\nmov r2=5\nmov r3=7\nmov r4=9\n"
        f".loop:\n{body}\nbr.ctop.sptk .loop\nhalt\n"
    )

    def execute(jit, osr):
        machine = Machine(itanium2_smp(1))
        image = assemble(src)
        machine.load_image(image)
        core = machine.cores[0]
        core.jit_enabled = jit
        core.osr_enabled = jit and osr
        if jit:
            core.trace_jit.threshold = 2
        core.enable_sampling(interval, lambda c: None)
        core.start(image.base)
        for _ in range(100_000):
            if core.halted:
                break
            core.run(slice_bundles)
        assert core.halted
        return core

    ref = execute(jit=False, osr=False)
    base = execute(jit=True, osr=False)
    osr = execute(jit=True, osr=True)
    assert _arch_state(ref) == _arch_state(base), src
    assert _arch_state(ref) == _arch_state(osr), src


@given(lc=st.integers(0, 60), step=st.integers(-64, 64))
@settings(**COMMON)
def test_cloop_counter_sweep(lc, step):
    src = (
        f"mov ar.lc={lc}\nmov r1=0\n"
        f".loop:\nadd r1={step},r1\nbr.cloop.sptk .loop\nhalt\n"
    )
    fast = _assert_equivalent(src)
    assert fast.regs.read_gr(1) & ((1 << 64) - 1) == (
        step * (lc + 1)
    ) & ((1 << 64) - 1)


@given(
    kernel=KERNEL,
    tail=st.lists(KERNEL_OP, min_size=6, max_size=12),
    lc=st.integers(2, 9),
    ec=st.integers(1, 3),
    interval=st.sampled_from((0, 4, 11)),
    slice_bundles=st.integers(1, 3),
)
@settings(**COMMON)
def test_every_covered_bundle_is_an_entry(
    kernel, tail, lc, ec, interval, slice_bundles
):
    """Slices of one to three bundles end a trace at every bundle, so the
    next slice enters the same closure with every covered index as
    ``start`` — a loop's and, in the region behind it, a linear trace's."""
    body, region = "\n".join(kernel), "\n".join(tail)
    src = (
        "clrrrb\nalloc rot=8\nmov r1=3\nmov r2=5\nmov r3=7\nmov r4=9\n"
        f".outer:\nmov pr.rot=0x10000\nmov ar.lc={lc}\nmov ar.ec={ec}\n"
        f".loop:\n{body}\nbr.ctop.sptk .loop\n"
        f".tail:\n{region}\n"
        "add r10=1,r10\ncmp.lt p8,p9=r10,r11\n(p8) br.cond .outer\nhalt\n"
    )
    image = assemble(src)
    started: set = set()
    trace_fn = tracejit._trace_fn

    def recording(head, *shape):
        fn, *traits = trace_fn(head, *shape)
        if not head:
            return fn, *traits   # the shape, looked up on behalf of a head

        def entered(env, *state):
            # (environment, registers and counters by value..., start, H)
            started.add((head, state[-2]))
            assert state[-1] == head
            assert env == tracejit.trace_env(env[0])   # the core's own
            return fn(env, *state)

        return entered, *traits

    def execute(jit):
        machine = Machine(itanium2_smp(1))
        machine.load_image(image)
        core = machine.cores[0]
        core.jit_enabled = core.osr_enabled = jit
        core.trace_jit.threshold = 2
        core.regs.write_gr(11, 8)       # trips of the outer loop
        if interval:
            core.enable_sampling(interval, lambda c: None)
        core.start(image.base)
        for _ in range(100_000):
            if core.halted:
                break
            core.run(slice_bundles)
        assert core.halted
        return core

    ref = execute(jit=False)
    with mock.patch.object(tracejit, "_trace_fn", recording):
        fast = execute(jit=True)
    assert _arch_state(ref) == _arch_state(fast), src
    traces = fast.trace_jit.traces
    # (a sampling interrupt that always falls on the loop's exit hides
    # the exit site the region would be promoted from)
    kinds = {tr.kind for tr in traces.values()}
    assert kinds == {"loop", "linear"} or interval and kinds == {"loop"}, src
    if slice_bundles == 1:
        for tr in traces.values():
            assert {idx for head, idx in started if head == tr.head} == {
                *range(tr.n_bundles)}, src
