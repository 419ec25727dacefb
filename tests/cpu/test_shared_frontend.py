"""One front end per program image: shared decode, content-addressed traces.

Every core of a machine — and every machine of a process — that decodes
a trace to the same body runs the same generated function; a patched
bundle is a different body and therefore a different function.  Sharing
must be invisible: a run's digest, counters and report are those of the
same run made alone.
"""

from __future__ import annotations

import gc
import types
from dataclasses import replace
from unittest import mock

import pytest

from repro.config import itanium2_smp
from repro.cpu import Core, Machine, tracejit
from repro.errors import SimulationFault
from repro.isa import assemble
from repro.isa.binary import BinaryImage
from repro.scenario import MACHINES, daxpy_spec, run_cell

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
    """Everything a daxpy cell reports, and the trace keys it generated."""
    generated = []
    generate = tracejit._generate

    def counting(head, body, sor, bpc, mode, start):
        generated.append((head, body, sor, bpc, mode, start))
        return generate(head, body, sor, bpc, mode, start)

    recipe = replace(MACHINES["smp4"], scale=16)
    with mock.patch.object(tracejit, "_generate", counting):
        obs = run_cell(recipe, daxpy_spec(4096, 4, 4), strategy, tap=strategy != "none")
    report = obs.report.summary() if obs.report is not None else None
    return (
        obs.digest, obs.cycles, obs.retired, obs.events, obs.fastpath,
        obs.n_samples, obs.samples_sha, report,
    ), generated


class TestTraceCodeSharing:
    def test_two_machines_share_equal_traces_and_only_those(self):
        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            plain_alone, plain_keys = _cell("none")
        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            patched_alone, patched_keys = _cell("noprefetch")
        # four cores, one program: each trace is generated once, not four times
        assert len(plain_keys) == len(set(plain_keys))
        assert len(patched_keys) == len(set(patched_keys))
        # the deployment rewrote bundles under some traces and not others
        assert set(patched_keys) - set(plain_keys)
        assert set(patched_keys) & set(plain_keys)

        with mock.patch.object(tracejit, "_TRACE_FNS", {}):
            plain_shared, first = _cell("none")
            patched_shared, second = _cell("noprefetch")
            # the second machine generated exactly the traces whose
            # content the first never produced ...
            assert first == plain_keys
            assert set(second) == set(patched_keys) - set(plain_keys)
            assert len(tracejit._TRACE_FNS) == len(set(plain_keys) | set(patched_keys))
        # ... and neither run can tell it had company
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
                assert len(tracejit._TRACE_FNS) <= 3
            assert len(tracejit._TRACE_FNS) == 3

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
