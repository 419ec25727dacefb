"""Property tests: assemble/disassemble round-trips and patch/rollback.

Random instruction streams are packed into images; the disassembly must
reassemble to a byte-identical image (under the canonical encoding) and
reach a textual fixpoint, and journaled patches must revert to the exact
original bytes — the contract COBRA's live rewriting relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.errors import ValidationError
from repro.isa.assembler import assemble
from repro.isa.binary import BinaryImage
from repro.isa.bundle import Bundle
from repro.isa.disassembler import disassemble
from repro.isa.instructions import Instruction, Op, nop
from repro.validate import (
    check_image,
    check_patch_rollback,
    check_roundtrip,
    encode_image,
    encode_instruction,
)
from repro.workloads import build_daxpy
from repro.workloads.npb import BENCHMARKS

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

greg = st.integers(0, 63)
freg = st.integers(0, 63)
preg = st.integers(0, 15)
qp = st.integers(0, 15)
imm = st.integers(-(1 << 20), 1 << 20)
postinc = st.sampled_from((0, 8, -8, 16, 128, 256))
target = st.integers(0, 1 << 20).map(lambda n: n * 16)


def _b(fn, *args):
    return st.builds(fn, *args)


INSTRUCTIONS = st.one_of(
    _b(lambda u, q: Instruction(Op.NOP, unit=u, qp=q), st.sampled_from("MIFB"), qp),
    _b(
        lambda op, a, b, c, q: Instruction(op, r1=a, r2=b, r3=c, qp=q),
        st.sampled_from((Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR)),
        greg, greg, greg, qp,
    ),
    _b(lambda a, b, i, q: Instruction(Op.ADDI, r1=a, r2=b, imm=i, qp=q),
       greg, greg, imm, qp),
    _b(lambda a, b, q: Instruction(Op.MOV, r1=a, r2=b, qp=q), greg, greg, qp),
    _b(lambda a, i, q: Instruction(Op.MOVI, r1=a, imm=i, qp=q), greg, imm, qp),
    _b(
        lambda op, a, b, i, q: Instruction(op, r1=a, r2=b, imm=i, qp=q),
        st.sampled_from((Op.SHL, Op.SHR)), greg, greg, st.integers(0, 63), qp,
    ),
    _b(lambda a, b, i, c, q: Instruction(Op.SHLADD, r1=a, r2=b, imm=i, r3=c, qp=q),
       greg, greg, st.integers(1, 4), greg, qp),
    _b(
        lambda op, pt, pf, a, b, q: Instruction(op, r1=pt, r2=pf, r3=a, r4=b, qp=q),
        st.sampled_from((Op.CMP_LT, Op.CMP_LE, Op.CMP_EQ, Op.CMP_NE)),
        preg, preg, greg, greg, qp,
    ),
    _b(
        lambda op, pt, pf, a, i, q: Instruction(op, r1=pt, r2=pf, r3=a, imm=i, qp=q),
        st.sampled_from((Op.CMPI_LT, Op.CMPI_LE, Op.CMPI_EQ, Op.CMPI_NE)),
        preg, preg, greg, imm, qp,
    ),
    _b(lambda i: Instruction(Op.MOV_LC_IMM, imm=i), st.integers(0, 4096)),
    _b(lambda r: Instruction(Op.MOV_LC_REG, r2=r), greg),
    _b(lambda i: Instruction(Op.MOV_EC_IMM, imm=i), st.integers(0, 64)),
    _b(lambda i: Instruction(Op.ALLOC, imm=i), st.integers(0, 96)),
    st.just(Instruction(Op.CLRRRB)),
    _b(lambda i: Instruction(Op.MOV_PR_ROT, imm=i), st.integers(0, 1 << 24)),
    _b(
        lambda a, b, i, e, q: Instruction(
            Op.LD8, r1=a, r2=b, imm=i, excl=e, unit="M", qp=q
        ),
        greg, greg, postinc, st.booleans(), qp,
    ),
    _b(lambda b, c, i, q: Instruction(Op.ST8, r2=b, r3=c, imm=i, unit="M", qp=q),
       greg, greg, postinc, qp),
    _b(lambda a, b, i, q: Instruction(Op.LDFD, r1=a, r2=b, imm=i, unit="M", qp=q),
       freg, greg, postinc, qp),
    _b(lambda b, c, i, q: Instruction(Op.STFD, r2=b, r3=c, imm=i, unit="M", qp=q),
       greg, freg, postinc, qp),
    _b(
        lambda b, i, h, e, q: Instruction(
            Op.LFETCH, r2=b, imm=i, hint=h, excl=e, unit="M", qp=q
        ),
        greg, postinc, st.sampled_from((None, "nt1", "nt2", "nta")),
        st.booleans(), qp,
    ),
    _b(lambda a, b, i: Instruction(Op.FETCHADD8, r1=a, r2=b, imm=i, unit="M"),
       greg, greg, st.sampled_from((-8, -1, 0, 1, 8))),
    _b(lambda a, b, c, d, q: Instruction(Op.FMA, r1=a, r2=b, r3=c, r4=d, qp=q),
       freg, freg, freg, freg, qp),
    _b(
        lambda op, a, b, c, q: Instruction(op, r1=a, r2=b, r3=c, qp=q),
        st.sampled_from((Op.FADD, Op.FSUB, Op.FMUL, Op.FMAX)),
        freg, freg, freg, qp,
    ),
    _b(lambda a, b, q: Instruction(Op.FABS, r1=a, r2=b, qp=q), freg, freg, qp),
    _b(lambda a, b: Instruction(Op.SETF, r1=a, r2=b), freg, greg),
    _b(lambda a, b: Instruction(Op.GETF, r1=a, r2=b), greg, freg),
    _b(lambda t, q: Instruction(Op.BR, imm=t, unit="B", qp=q), target, qp),
    _b(
        lambda op, t, h, q: Instruction(op, imm=t, hint=h, unit="B", qp=q),
        st.sampled_from((Op.BR_COND, Op.BR_CTOP, Op.BR_CLOOP, Op.BR_WTOP)),
        target, st.sampled_from((None, "sptk", "spnt", "dptk")), qp,
    ),
    _b(lambda t: Instruction(Op.BR_CALL, imm=t, unit="B"), target),
    st.just(Instruction(Op.BR_RET, unit="B")),
    st.just(Instruction(Op.HALT, unit="B")),
)

STREAMS = st.lists(INSTRUCTIONS, min_size=1, max_size=30)


def _image_of(instrs: list[Instruction]) -> BinaryImage:
    image = BinaryImage(0x4000_0000)
    padded = list(instrs)
    while len(padded) % 3:
        padded.append(nop("I"))
    for i in range(0, len(padded), 3):
        image.append(Bundle(padded[i : i + 3]))
    image.link()
    return image


@settings(max_examples=120, **COMMON)
@given(instrs=STREAMS)
def test_random_streams_roundtrip(instrs):
    image = _image_of(instrs)
    assert check_roundtrip(image, mode="strict") == []
    rebuilt = assemble(disassemble(image), base=image.base)
    assert encode_image(rebuilt) == encode_image(image)


@settings(max_examples=60, **COMMON)
@given(instrs=STREAMS)
def test_builtin_patch_probe_is_reversible(instrs):
    image = _image_of(instrs)
    before = encode_image(image)
    assert check_patch_rollback(image, mode="strict") == []
    assert encode_image(image) == before


@settings(max_examples=60, **COMMON)
@given(
    instrs=STREAMS,
    picks=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 2)), max_size=6),
)
def test_random_patch_sequences_revert_byte_identically(instrs, picks):
    image = _image_of(instrs)
    before = encode_image(image)
    addrs = [a for a, _ in image.iter_bundles()]
    applied = []
    for pick, slot in picks:
        addr = addrs[pick % len(addrs)]
        unit = image.fetch_bundle(addr).template[slot].upper()
        image.patch_slot(addr, slot, nop("I" if unit == "L" else unit), reason="probe")
        applied.append(image.patches[-1])
    for patch in reversed(applied):
        image.revert_patch(patch)
    assert encode_image(image) == before


def test_compiled_daxpy_image_passes_all_isa_checks():
    machine = Machine(itanium2_smp(4))
    prog = build_daxpy(machine, 2048, 4, outer_reps=1)
    assert check_image(prog.image, mode="strict") == []


@pytest.mark.parametrize("kernel", ["daxpy", *BENCHMARKS])
def test_every_compiled_image_reassembles_to_itself(kernel):
    """All nine images, 1,587 bundles (``repro validate`` checks two)."""
    machine = Machine(itanium2_smp(4))
    if kernel == "daxpy":
        image = build_daxpy(machine, 256, 4, outer_reps=1).image
    else:
        image = BENCHMARKS[kernel].build(machine, 4, reps=1).image
    assert check_roundtrip(image, mode="strict") == []


def test_handwritten_source_roundtrips():
    image = assemble(
        "\n".join(
            [
                "loop:",
                "{ .mmb",
                "  (p16) ldfd f38=[r33],8",
                "  (p16) lfetch.excl.nt1 [r43],128",
                "  br.ctop.sptk loop ;;",
                "}",
                "add r41=16,r43",
                "cmp.eq p1,p2=r8,r9",
                "halt",
            ]
        )
    )
    assert check_roundtrip(image, mode="strict") == []


def test_unlinked_instruction_is_rejected():
    with pytest.raises(ValidationError):
        encode_instruction(Instruction(Op.BR, label="loop", unit="B"))


def test_default_branch_hint_is_canonical():
    bare = Instruction(Op.BR_CTOP, imm=0x40, unit="B")
    hinted = Instruction(Op.BR_CTOP, imm=0x40, hint="sptk", unit="B")
    assert encode_instruction(bare) == encode_instruction(hinted)


def test_unparsable_disassembly_is_reported_not_hidden():
    # a float MOVI disassembles to "mov r1=2.5", which the assembler
    # refuses: record mode must surface that as an isa-roundtrip finding
    image = BinaryImage(0x4000_0000)
    image.append(Bundle([Instruction(Op.MOVI, r1=1, imm=2.5), nop("I"), nop("I")]))
    image.link()
    violations = check_roundtrip(image, mode="record")
    assert len(violations) == 1
    assert violations[0].invariant == "isa-roundtrip"
    with pytest.raises(ValidationError):
        check_roundtrip(image, mode="strict")
