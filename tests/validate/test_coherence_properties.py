"""Property tests: no access interleaving breaks coherence.

Hypothesis drives random sequences of (cpu, access kind, line) through
the coherent fabric in both topologies — one node (the SMP bus) and
several (the cc-NUMA machine) — with a strict CoherenceChecker attached.
Any sequence that broke a MESI invariant would raise and shrink to a
minimal counterexample.  ``TestExhaustiveSmallScope`` does the same
without sampling: every reachable state of a two-CPU, two-line machine.
"""

from __future__ import annotations

from collections import Counter, deque

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import LINE_SIZE, CacheConfig, MachineConfig, itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.memory.hierarchy import (
    ATOMIC,
    LOAD,
    LOAD_BIAS,
    PREFETCH,
    PREFETCH_EXCL,
    STORE,
)
from repro.memory import MODIFIED
from repro.validate import CoherenceChecker

BASE = 0x8000_0000
KINDS = (LOAD, STORE, PREFETCH, PREFETCH_EXCL, LOAD_BIAS, ATOMIC)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _ops(n_cpus: int, n_lines: int = 10, max_size: int = 80):
    """Random interleavings of reads/stores/lfetch/lfetch.excl/ld8.bias."""
    return st.lists(
        st.tuples(
            st.integers(0, n_cpus - 1),
            st.sampled_from(KINDS),
            st.integers(0, n_lines - 1),
        ),
        min_size=1,
        max_size=max_size,
    )


def _drive(machine: Machine, ops, mode: str = "strict") -> CoherenceChecker:
    checker = CoherenceChecker(machine, mode, structure_interval=16)
    with checker:
        for now, (cpu, kind, idx) in enumerate(ops):
            machine.caches[cpu].access(now, BASE + idx * LINE_SIZE, kind)
    return checker


@settings(max_examples=60, **COMMON)
@given(ops=_ops(4))
def test_snooping_bus_holds_invariants(ops):
    checker = _drive(Machine(itanium2_smp(4, scale=64)), ops)
    assert checker.checks == len(ops)
    assert checker.violations == []


@settings(max_examples=60, **COMMON)
@given(ops=_ops(4))
def test_numa_directory_holds_invariants(ops):
    checker = _drive(Machine(sgi_altix(4, scale=64)), ops)
    assert checker.checks == len(ops)
    assert checker.violations == []


@settings(max_examples=30, **COMMON)
@given(ops=_ops(2))
def test_record_mode_agrees_with_strict(ops):
    checker = _drive(Machine(itanium2_smp(2, scale=64)), ops, mode="record")
    assert checker.violations == []


@settings(max_examples=30, **COMMON)
@given(ops=_ops(2, n_lines=160, max_size=120))
def test_tiny_caches_evict_coherently(ops):
    # scale=256 leaves ~96 L3 lines, so long runs force eviction and
    # writeback traffic through every checker hook; inclusion and the
    # dirty/excl bookkeeping must survive any interleaving
    machine = Machine(itanium2_smp(2, scale=256))
    checker = _drive(machine, ops)
    assert checker.violations == []
    for cache in machine.caches:
        cache.check_inclusion()


@settings(max_examples=20, **COMMON)
@given(ops=_ops(8, n_lines=6, max_size=60))
def test_many_cpu_directory_contention(ops):
    # 8 CPUs over 6 lines maximizes invalidation/demotion churn on the
    # multi-node fabric (4 nodes x 2 cpus)
    checker = _drive(Machine(sgi_altix(8, scale=64)), ops)
    assert checker.violations == []


class _CountingChecker(CoherenceChecker):
    """A strict checker that also says which kinds of eviction it saw."""

    def __init__(self, machine: Machine, seen: Counter) -> None:
        super().__init__(machine, "strict", structure_interval=1)
        self.seen = seen

    def on_evict(self, cache, line, state, wrote_back):
        if state == MODIFIED:
            self.seen["dirty eviction"] += 1
        else:
            self.seen["cast-out" if wrote_back else "clean eviction"] += 1
        super().on_evict(cache, line, state, wrote_back)


def _small_machine(cpus_per_node: int, l3_lines: int) -> Machine:
    """Two CPUs whose L2 holds one line and whose L3 holds ``l3_lines``."""
    config = MachineConfig(
        name=f"small-{2 // cpus_per_node}-node",
        n_cpus=2,
        cpus_per_node=cpus_per_node,
        l2=CacheConfig(LINE_SIZE, associativity=1),
        l3=CacheConfig(l3_lines * LINE_SIZE, associativity=l3_lines),
    )
    return Machine(config, memory_bytes=4096)


def _global_state(machine: Machine) -> tuple:
    """Everything a later access can depend on, timing aside: per CPU the
    MESI map, both tag arrays in LRU order and the two bookkeeping sets,
    plus the page's first-touch home (it picks the latency branch)."""
    return (tuple(sorted(machine.mem.page_home.items())),) + tuple(
        (
            tuple(sorted(c.state.items())),
            tuple(map(tuple, c.l2._sets)),
            tuple(map(tuple, c.l3._sets)),
            tuple(sorted(c.l2_dirty)),
            tuple(sorted(c.excl_alloc)),
        )
        for c in machine.caches
    )


def _enumerate(cpus_per_node: int, l3_lines: int) -> tuple[int, int, int, Counter]:
    """Breadth-first over global states to fixpoint.

    A state is expanded by replaying its shortest action path on a fresh
    machine and then making one more access, for each of the 24 actions
    (2 CPUs x 2 lines x 6 kinds); a strict checker (structure swept on
    every access) watches all of it and raises at the first violation.
    Returns ``(states, transitions, depth, evictions seen)``.
    """
    actions = [(cpu, kind, idx) for cpu in range(2) for kind in KINDS for idx in range(2)]
    seen: Counter = Counter()
    shortest = {_global_state(_small_machine(cpus_per_node, l3_lines)): ()}
    frontier = deque(shortest.values())
    transitions = depth = 0
    while frontier:
        path = frontier.popleft()
        for action in actions:
            machine = _small_machine(cpus_per_node, l3_lines)
            with _CountingChecker(machine, seen) as checker:
                for now, (cpu, kind, idx) in enumerate(path + (action,)):
                    machine.caches[cpu].access(1000 * now, BASE + idx * LINE_SIZE, kind)
            assert checker.violations == []
            transitions += 1
            state = _global_state(machine)
            if state not in shortest:
                shortest[state] = path + (action,)
                frontier.append(shortest[state])
                depth = len(shortest[state])
    return len(shortest), transitions, depth, seen


class TestExhaustiveSmallScope:
    """ROADMAP 7(a): one protocol, model-checked in two topologies."""

    @pytest.mark.parametrize("cpus_per_node", [2, 1], ids=["one-node", "two-nodes"])
    @pytest.mark.parametrize("l3_lines", [1, 2], ids=["l3-holds-one", "l3-holds-both"])
    def test_every_reachable_state_holds_the_invariants(self, cpus_per_node, l3_lines):
        states, transitions, depth, seen = _enumerate(cpus_per_node, l3_lines)
        print(
            f"\n{2 // cpus_per_node} node(s), L3 of {l3_lines} line(s): {states} states, "
            f"{transitions} transitions, fixpoint at depth {depth}, 0 violations; "
            + ", ".join(f"{n} {what}s" for what, n in sorted(seen.items()))
        )
        assert transitions == 24 * states  # every state was expanded by every action
        if l3_lines == 1:
            # the second line always evicts the first: all three kinds are reachable
            assert set(seen) == {"dirty eviction", "cast-out", "clean eviction"}
        else:
            assert not seen  # both lines fit: this scope is L2 drains and L3 hits
