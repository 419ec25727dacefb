"""Disassembler rendering + property-based round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import Bundle, Op, assemble, disassemble, format_bundle
from repro.isa.assembler import parse_instruction
from repro.isa.disassembler import format_instruction, format_predicated
from repro.isa.instructions import (
    BRANCH_HINTS,
    LFETCH_HINTS,
    SYNTAX,
    Instruction,
    nop,
    pieces,
)


class TestBundleRendering:
    def test_figure2_shape(self):
        bundle = Bundle(
            [
                parse_instruction("(p16) ldfd f38=[r33]"),
                parse_instruction("(p16) lfetch.nt1 [r43]"),
                nop("B"),
            ]
        )
        text = format_bundle(bundle)
        assert text.startswith("{ .mmb")
        assert "(p16) ldfd f38=[r33]" in text
        assert "(p16) lfetch.nt1 [r43]" in text
        assert text.rstrip().endswith("}")
        assert ";;" in text  # stop bit on the last slot

    def test_disassemble_interleaves_labels(self):
        image = assemble(".entry:\nhalt\n")
        text = disassemble(image)
        assert ".entry:" in text and "halt" in text

    def test_disassemble_range(self):
        image = assemble("mov r1=1\nhalt\nmov r2=2\nhalt\n")
        text = disassemble(image, image.base, image.base + 16)
        assert "mov r1=1" in text and "mov r2=2" not in text


# -- property-based round trips ------------------------------------------------

_gr = st.integers(1, 127)
_fr = st.integers(2, 127)
_pr = st.integers(1, 63)
_imm = st.integers(-(2**20), 2**20)


def _alu():
    return st.one_of(
        st.builds(lambda d, a, b: Instruction(Op.ADD, r1=d, r2=a, r3=b), _gr, _gr, _gr),
        st.builds(lambda d, a, i: Instruction(Op.ADDI, r1=d, r2=a, imm=i), _gr, _gr, _imm),
        st.builds(lambda d, a, b: Instruction(Op.SUB, r1=d, r2=a, r3=b), _gr, _gr, _gr),
        st.builds(lambda d, a, b: Instruction(Op.AND, r1=d, r2=a, r3=b), _gr, _gr, _gr),
        st.builds(lambda d, a, i: Instruction(Op.SHL, r1=d, r2=a, imm=i % 63), _gr, _gr, _imm),
        st.builds(
            lambda d, a, i, b: Instruction(Op.SHLADD, r1=d, r2=a, imm=(i % 4) + 1, r3=b),
            _gr, _gr, _imm, _gr,
        ),
        st.builds(lambda d, i: Instruction(Op.MOVI, r1=d, imm=i), _gr, _imm),
        st.builds(lambda d, a: Instruction(Op.MOV, r1=d, r2=a), _gr, _gr),
    )


def _mem():
    inc = st.sampled_from([0, 8, 16, 128])
    return st.one_of(
        st.builds(
            lambda d, a, i: Instruction(Op.LD8, r1=d, r2=a, imm=i, unit="M"),
            _gr, _gr, inc,
        ),
        st.builds(
            lambda d, a, i: Instruction(Op.LDFD, r1=d, r2=a, imm=i, unit="M"),
            _fr, _gr, inc,
        ),
        st.builds(
            lambda a, s, i: Instruction(Op.ST8, r2=a, r3=s, imm=i, unit="M"),
            _gr, _gr, inc,
        ),
        st.builds(
            lambda a, s, i: Instruction(Op.STFD, r2=a, r3=s, imm=i, unit="M"),
            _gr, _fr, inc,
        ),
        st.builds(
            lambda a, i, h, e: Instruction(Op.LFETCH, r2=a, imm=i, hint=h, excl=e, unit="M"),
            _gr, inc, st.sampled_from([None, "nt1", "nt2", "nta"]), st.booleans(),
        ),
    )


def _fp():
    return st.one_of(
        st.builds(
            lambda d, a, b, c: Instruction(Op.FMA, r1=d, r2=a, r3=b, r4=c),
            _fr, _fr, _fr, _fr,
        ),
        st.builds(lambda d, a, b: Instruction(Op.FADD, r1=d, r2=a, r3=b), _fr, _fr, _fr),
        st.builds(lambda d, a, b: Instruction(Op.FMUL, r1=d, r2=a, r3=b), _fr, _fr, _fr),
    )


def _cmp():
    return st.builds(
        lambda pt, pf, a, b: Instruction(Op.CMP_LT, r1=pt, r2=pf, r3=a, r4=b),
        _pr, _pr, _gr, _gr,
    )


@given(st.one_of(_alu(), _mem(), _fp(), _cmp()), st.sampled_from([0, 6, 16, 63]))
def test_format_parse_round_trip(instr, qp):
    """Any renderable instruction re-parses to an equivalent one."""
    instr = instr.clone(qp=qp)
    text = format_predicated(instr)
    again = parse_instruction(text)
    # compare semantic fields (the parser normalizes the unit)
    for field in ("op", "qp", "r1", "r2", "r3", "r4", "imm", "hint", "excl"):
        assert getattr(again, field) == getattr(instr, field), (field, text)


@given(st.lists(st.one_of(_alu(), _fp()), min_size=1, max_size=12))
def test_assemble_disassemble_round_trip(instrs):
    """A whole program survives disassemble -> assemble."""
    source = "\n".join(format_instruction(i) for i in instrs) + "\nhalt\n"
    image1 = assemble(source)
    image2 = assemble(disassemble(image1))
    assert [b for _, b in image1.iter_bundles()] == [b for _, b in image2.iter_bundles()]


# -- every row of the syntax table ---------------------------------------------

_label = st.from_regex(r"\.?[a-z_][\w$.]*", fullmatch=True)
_word = st.integers(-(2**63), 2**64 - 1)

#: piece of a row -> the fields it stands for, drawn over all it can print
_DRAW = {
    "{imm}": st.builds(dict, imm=_word),
    "{imm:#x}": st.builds(dict, imm=_word),
    "{target}": st.builds(dict, imm=st.integers(0, 2**40)) | st.builds(dict, label=_label),
    "[,imm]": st.builds(dict, imm=st.just(0) | _word),      # off | on
    "[.unit]": st.builds(dict, unit=st.sampled_from("MIFB")),
    "[.bias]": st.builds(dict, excl=st.booleans()),
    "[.excl]": st.builds(dict, excl=st.booleans()),
    "[.hint]": st.builds(dict, hint=st.sampled_from((None, *LFETCH_HINTS))),
    "[.bhint]": st.builds(dict, hint=st.sampled_from((None, *BRANCH_HINTS))),
}
_FILES = {"r": 128, "f": 128, "p": 64}


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
@given(data=st.data(), qp=st.integers(0, 63))
def test_every_row_round_trips(op, data, qp):
    """What a row prints, the same row parses back to the instruction."""
    unit, text = SYNTAX[op]
    fields = {"unit": unit}
    for piece in pieces(text):
        if piece in _DRAW:
            fields.update(data.draw(_DRAW[piece], label=piece))
        elif piece[0] == "{":
            number = data.draw(st.integers(0, _FILES[piece[1]] - 1), label=piece)
            fields["r" + piece[2]] = number
    instr = Instruction(op, qp=qp, **fields)
    printed = format_predicated(instr)
    parsed = parse_instruction(printed)
    if "[.bhint]" in text and instr.hint is None:
        instr = instr.clone(hint="sptk")    # an omitted hint prints as the default
    assert parsed == instr, printed
    assert format_predicated(parsed) == printed
