"""Every image edit reaches the next slice.

A core re-syncs its decode cache and its traces only at the first slice
after ``binary.EDITS`` moves (DESIGN.md §9).  Each ``BinaryImage``
mutation and ``DecodeCache.attach`` bumps it; this file makes each of
them between two ``core.run`` slices and checks that the next slice
executes the new bytes, with no compiled trace left keyed to old ones.
Each site's mutant — the version still bumped, the edit count not —
must fail the same check.
"""

import inspect
import textwrap

import pytest

from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.errors import SimulationFault
from repro.isa import assemble, binary, decode
from repro.isa.binary import BinaryImage
from repro.isa.bundle import Bundle
from repro.isa.decode import DecodeCache, decode_bundle
from repro.isa.instructions import Op

LOOP = "mov ar.lc={trips}\n.loop:\nadd r1=1,r1\nbr.cloop.sptk .loop\n"

#: text address of the second image the ``attach`` case loads
OTHER_BASE = 0x4010_0000


def _bundles(src: str) -> list[Bundle]:
    return [bundle for _, bundle in assemble(src).iter_bundles()]


def _core(image: BinaryImage):
    machine = Machine(itanium2_smp(1))
    machine.load_image(image)
    core = machine.cores[0]
    core.start(image.base)
    return machine, core


def _hot(core, image) -> int:
    """The first slice: the loop at ``.loop`` is compiled and running."""
    head = image.labels[".loop"]
    assert core.run(40) == 40 and head in core.trace_jit.traces
    return head


def _up_to_date(core) -> None:
    """The decoded view equals the images' bytes, and every resident
    trace is keyed to the bytes it covers."""
    dcache = core.decode_cache
    held = {addr: bundle for image in core.images for addr, bundle in image.bundles.items()}
    assert dcache.map == {addr: decode_bundle(bundle) for addr, bundle in held.items()}
    for trace in core.trace_jit.traces.values():
        assert trace.keys == tuple(dcache.keys.get(a) for a in trace.addrs)


def _patched_add(image):
    """The loop's ``add r1=1,r1`` rewritten to count in r2 instead."""
    (addr, slot), = image.find_ops(Op.ADDI)
    return addr, slot, image.fetch(addr + slot).clone(r1=2, r2=2)


def _runs_to_halt(core) -> None:
    core.run(10_000)
    assert core.halted
    _up_to_date(core)


def _faults_at_the_hole(core, head) -> None:
    before = core.trace_jit.invalidations
    try:
        core.run(10_000)
    except SimulationFault as fault:
        assert "no code" in str(fault) and fault.pc == core.pc
    else:
        raise AssertionError("the removed loop still ran")
    assert head not in core.trace_jit.traces and core.trace_jit.invalidations > before


def case_append():
    image = assemble(LOOP.format(trips=200))
    tail = _bundles("mov r7=42\nhalt\n")     # assembled before: that edits too
    _, core = _core(image)
    _hot(core, image)
    # the loop falls through to where this lands
    for bundle in tail:
        image.append(bundle)
    _runs_to_halt(core)
    assert core.regs.read_gr(7) == 42


def case_truncate():
    image = assemble(LOOP.format(trips=200) + "halt\n")
    _, core = _core(image)
    head = _hot(core, image)
    image.truncate(head)
    _faults_at_the_hole(core, head)


def case_free():
    image = assemble(LOOP.format(trips=200) + "halt\n")
    _, core = _core(image)
    head = _hot(core, image)
    image.free(head, 1)
    _faults_at_the_hole(core, head)


def case_link():
    image = BinaryImage()
    for bundle in _bundles("mov r5=1\n"):
        image.append(bundle)
    jump, = _bundles("br 0x0\n")
    image.append(Bundle(jump.slots[:2] + [jump.slots[2].clone(label="target")], jump.template))
    image.mark("target")
    for bundle in _bundles("mov r7=42\nhalt\n"):
        image.append(bundle)
    _, core = _core(image)
    assert core.run(1) == 1
    image.link()    # the branch now names its target, not address 0
    _runs_to_halt(core)
    assert core.regs.read_gr(7) == 42


def case_patch_slot():
    image = assemble(LOOP.format(trips=300) + "halt\n")
    _, core = _core(image)
    _hot(core, image)
    before = core.trace_jit.invalidations
    addr, slot, add = _patched_add(image)
    image.patch_slot(addr, slot, add)
    _runs_to_halt(core)
    assert core.regs.read_gr(2) > 0 and core.trace_jit.invalidations > before


def case_patch_bundle():
    image = assemble(LOOP.format(trips=300) + "halt\n")
    _, core = _core(image)
    _hot(core, image)
    before = core.trace_jit.invalidations
    addr, slot, add = _patched_add(image)
    image.patch_bundle(addr, image.fetch_bundle(addr).with_slot(slot, add))
    _runs_to_halt(core)
    assert core.regs.read_gr(2) > 0 and core.trace_jit.invalidations > before


def case_revert_patch():
    image = assemble(LOOP.format(trips=300) + "halt\n")
    _, core = _core(image)
    head = _hot(core, image)
    addr, slot, add = _patched_add(image)
    image.patch_slot(addr, slot, add)
    core.run(60)
    assert head in core.trace_jit.traces    # recompiled over the patch
    r1, r2 = core.regs.read_gr(1), core.regs.read_gr(2)
    assert r2 > 0
    before = core.trace_jit.invalidations
    image.revert_patch(image.patches[-1])
    _runs_to_halt(core)
    assert core.regs.read_gr(2) == r2 and core.regs.read_gr(1) > r1
    assert core.trace_jit.invalidations > before


def case_attach():
    image = assemble(LOOP.format(trips=200) + f"br {OTHER_BASE:#x}\n")
    other = BinaryImage(OTHER_BASE)
    for bundle in _bundles("mov r7=42\nhalt\n"):
        other.append(bundle)
    machine, core = _core(image)
    _hot(core, image)
    machine.load_image(other)
    _runs_to_halt(core)
    assert core.regs.read_gr(7) == 42


#: edit site -> a run that makes that edit between two slices
CASES = {
    "append": case_append,
    "truncate": case_truncate,
    "free": case_free,
    "link": case_link,
    "patch_slot": case_patch_slot,
    "patch_bundle": case_patch_bundle,
    "revert_patch": case_revert_patch,
    "attach": case_attach,
}


def _mutant(site: str):
    """``site`` with the edit count left alone: the image version is
    still bumped, so only a core that skips unchanged slices misses it."""
    owner, module, bump, spared = (
        (DecodeCache, decode, "EDITS[0] += 1", "pass") if site == "attach"
        else (BinaryImage, binary, "self._edited()", "self.version += 1")
    )
    src = textwrap.dedent(inspect.getsource(getattr(owner, site)))
    assert src.count(bump) == 1, site
    namespace: dict = {}
    code = compile(src.replace(bump, spared), f"<mutant {site}>", "exec")
    exec(code, vars(module), namespace)  # noqa: S102
    return owner, namespace[site]


def test_every_edit_site_has_a_case():
    edits = {
        name for name, fn in vars(BinaryImage).items()
        if inspect.isfunction(fn) and "self._edited()" in inspect.getsource(fn)
    }
    assert len(edits) == 7 and edits | {"attach"} == set(CASES)


@pytest.mark.parametrize("site", CASES)
def test_an_edit_reaches_the_next_slice(site):
    CASES[site]()


@pytest.mark.parametrize("site", CASES)
def test_a_site_that_skips_the_edit_count_fails(site, monkeypatch):
    owner, mutant = _mutant(site)
    monkeypatch.setattr(owner, site, mutant)
    with pytest.raises((AssertionError, SimulationFault)):
        CASES[site]()
