"""Time-ordered scheduler: clock synchronization, hooks, budgets."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import itanium2_smp
from repro.core import Cobra
from repro.cpu import Machine, Scheduler
from repro.cpu.scheduler import _SLICE_BUNDLES
from repro.errors import MachineError
from repro.isa import assemble
from repro.workloads import build_daxpy, working_set_elems


def _spin_image(label: str, iters: int):
    return assemble(
        f"""
        __{label}:
        mov ar.lc={iters}
        .{label}_loop:
        br.cloop.sptk .{label}_loop
        halt
        """
    )


class TestScheduling:
    def test_all_cores_run_to_halt(self):
        machine = Machine(itanium2_smp(4))
        image = _spin_image("t", 100)
        machine.load_image(image)
        for core in machine.cores:
            core.start(image.labels["__t"])
        total = Scheduler(machine.cores).run_until_halt(100_000)
        assert total > 0
        assert all(core.halted for core in machine.cores)

    def test_clocks_stay_synchronized(self):
        """No core races far ahead of the others (time-ordered execution)."""
        machine = Machine(itanium2_smp(4))
        image = _spin_image("t", 5000)
        machine.load_image(image)
        for core in machine.cores:
            core.start(image.labels["__t"])
        sched = Scheduler(machine.cores)
        max_skew = 0
        while sched.step():
            clocks = [c.cycles for c in machine.cores if not c.halted]
            if len(clocks) > 1:
                max_skew = max(max_skew, max(clocks) - min(clocks))
        assert max_skew < 2000, f"cores drifted apart by {max_skew} cycles"

    def test_budget_guard(self):
        machine = Machine(itanium2_smp(1))
        image = assemble("fwd:\nbr fwd\n")  # infinite loop
        machine.load_image(image)
        machine.cores[0].start(image.base)
        with pytest.raises(MachineError):
            Scheduler(machine.cores).run_until_halt(max_bundles=1000)

    def test_tick_hooks_run(self):
        machine = Machine(itanium2_smp(2))
        image = _spin_image("t", 200)
        machine.load_image(image)
        for core in machine.cores:
            core.start(image.labels["__t"])
        ticks = []
        sched = Scheduler(machine.cores)
        sched.add_tick_hook(lambda: ticks.append(1))
        sched.run_until_halt(100_000)
        assert ticks

    def test_empty_scheduler_rejected(self):
        with pytest.raises(MachineError):
            Scheduler([])

    def test_step_false_when_done(self):
        machine = Machine(itanium2_smp(1))
        sched = Scheduler(machine.cores)  # core is halted by default
        assert sched.step() is False


def _steps(sched):
    """Drive ``sched`` one slice at a time; return how many slices ran."""
    n = 0
    while sched.step():
        n += 1
    return n


def _cobra_run(drive):
    """A DAXPY run under COBRA, waking often enough to deploy, driven by
    ``drive(scheduler)``; everything observable of it, and a log of a
    second (non-optimizer) tick hook."""
    machine = Machine(itanium2_smp(4, scale=4))
    prog = build_daxpy(machine, working_set_elems("128K", 4), 4, outer_reps=10)
    config = dataclasses.replace(machine.config.cobra, optimize_interval=10_000)
    cobra = Cobra(machine, prog.image, "adaptive", config)
    sched = Scheduler([th.core for th in prog.threads])
    cobra.install(sched)
    ticks = []
    sched.add_tick_hook(lambda: ticks.append(sched.retired))
    for th in prog.threads:
        th.start()
    slices = drive(sched)
    cobra.stop()
    report = cobra.report()
    assert sched.retired == machine.total_retired()
    observed = (
        [(c.cycles, c.retired, c.bundles_executed) for c in machine.cores],
        [e.row() for e in report.events],
        [d.record() for d in report.deployments],
        report.fastpath,
    )
    return observed, ticks, slices


class TestTickHooks:
    def test_step_matches_run_until_halt_under_cobra(self):
        whole, _, _ = _cobra_run(lambda sched: sched.run_until_halt())
        stepped, ticks, slices = _cobra_run(_steps)
        assert stepped == whole
        events = whole[1]
        assert [row[1] for row in events].count("deploy") == 1 and whole[2]
        # the non-optimizer hook publishes no wake point: every slice
        assert len(ticks) == slices

    def test_a_hook_runs_again_when_its_wake_point_is_due(self):
        machine = Machine(itanium2_smp(2))
        image = _spin_image("t", 2000)
        machine.load_image(image)
        for core in machine.cores:
            core.start(image.labels["__t"])
        sched = Scheduler(machine.cores)
        woken, every = [], []
        sched.add_tick_hook(lambda: woken.append(sched.retired) or 500)
        sched.add_tick_hook(lambda: every.append(sched.retired))
        slices = _steps(sched)
        assert len(every) == slices and len(woken) < slices
        # called after the first slice, then at the first slice that
        # reaches each published point
        assert woken[0] == every[0]
        for before, after in zip(woken, woken[1:]):
            assert after >= before + 500
            assert after == min(r for r in every if r >= before + 500)


class _Core:
    """A core as the scheduler sees it; its slice body logs what it is
    sent, then moves its clock by the next planned step (cycles, halts)
    and halts when the plan runs out."""

    def __init__(self, index: int, cycles: int, halted: bool, plan=(), log=None) -> None:
        self.index, self.cycles, self.halted, self.retired = index, cycles, halted, 0
        self.plan, self.log = list(plan), [] if log is None else log
        self._slices = self

    def send(self, request):
        self.log.append((self.index, request))
        advance, halts = self.plan.pop(0) if self.plan else (0, True)
        self.cycles += advance
        self.halted = halts
        return 1


def _oracle(cores, margin):
    """The pick of the former ``Scheduler._slice``, kept as the oracle of
    ``Scheduler._run``: (index of the core to run, its cycle limit), or
    None."""
    lowest = second = None
    for core in cores:
        if core.halted:
            continue
        if lowest is None or core.cycles < lowest.cycles:
            second = lowest.cycles if lowest is not None else None
            lowest = core
        elif second is None or core.cycles < second:
            second = core.cycles
    if lowest is None:
        return None
    return cores.index(lowest), (second if second is not None else lowest.cycles + 100_000) + margin


_CLOCKS = st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=8)
_PLANS = st.lists(st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=6),
                  min_size=8, max_size=8)


class TestPick:
    @settings(max_examples=300, deadline=None)
    @given(clocks=_CLOCKS, margin=st.integers(-4, 40))
    def test_the_same_core_and_limit_as_the_per_core_loop(self, clocks, margin):
        """Ties (clocks drawn from a few values) go to the first core in
        order; halted cores are skipped; a lone runnable core runs
        100,000 cycles past its own clock."""
        cores = [_Core(i, cycles, halted) for i, (cycles, halted) in enumerate(clocks)]
        expected = _oracle(cores, margin)
        ran = Scheduler(cores, margin=margin).step()
        sent = [(i, core.log) for i, core in enumerate(cores) if core.log]
        if expected is None:
            assert not ran and not sent
        else:
            index, limit = expected
            assert ran and sent == [(index, [(index, (_SLICE_BUNDLES, limit))])]

    @settings(max_examples=200, deadline=None)
    @given(clocks=_CLOCKS, plans=_PLANS, margin=st.integers(0, 40))
    def test_slice_after_slice_as_the_per_core_loop(self, clocks, plans, margin):
        """One ``run_until_halt``, cores moving and halting as planned:
        every slice goes to the core, with the limit, that the loop would
        pick from the clocks at that point."""
        log: list = []
        cores = [_Core(i, c, h, plans[i], log) for i, (c, h) in enumerate(clocks)]
        twins = [_Core(i, c, h, plans[i]) for i, (c, h) in enumerate(clocks)]
        expected = []
        while (pick := _oracle(twins, margin)) is not None:
            index, limit = pick
            expected.append((index, (_SLICE_BUNDLES, limit)))
            twins[index].send(None)
        Scheduler(cores, margin=margin).run_until_halt()
        assert log == expected
