"""Instruction objects: classification, cloning, equality."""

import pathlib
import re

import pytest

from repro.isa import assembler, disassembler
from repro.isa.instructions import (
    BRANCH_OPS,
    LOOP_BRANCH_OPS,
    MEMORY_OPS,
    SYNTAX,
    Instruction,
    Op,
    nop,
    operands,
    pieces,
)


class TestClassification:
    def test_memory_ops(self):
        assert Instruction(Op.LDFD, r1=32, r2=2, unit="M").is_memory
        assert Instruction(Op.LFETCH, r2=2, unit="M").is_prefetch
        assert Instruction(Op.FETCHADD8, r1=8, r2=2, imm=1, unit="M").is_memory
        assert not Instruction(Op.FMA, r1=32, r2=33, r3=34, r4=35).is_memory

    def test_branch_ops(self):
        for op in (Op.BR, Op.BR_COND, Op.BR_CTOP, Op.BR_CLOOP, Op.BR_WTOP, Op.BR_CALL, Op.BR_RET):
            assert Instruction(op, unit="B").is_branch
        assert not Instruction(Op.ADD, r1=1, r2=2, r3=3).is_branch

    def test_loop_branch_subset(self):
        assert LOOP_BRANCH_OPS < BRANCH_OPS
        assert Op.BR_CALL not in LOOP_BRANCH_OPS
        assert Op.LFETCH in MEMORY_OPS

    def test_bad_unit_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Op.NOP, unit="Z")


class TestCloneAndEquality:
    def test_clone_changes_only_requested_fields(self):
        lf = Instruction(Op.LFETCH, qp=16, r2=34, hint="nt1", unit="M")
        excl = lf.clone(excl=True)
        assert excl.excl and not lf.excl
        assert excl.qp == 16 and excl.r2 == 34 and excl.hint == "nt1"
        assert excl.op is Op.LFETCH

    def test_clone_can_change_opcode(self):
        instr = Instruction(Op.ADD, r1=1, r2=2, r3=3)
        sub = instr.clone(op=Op.SUB)
        assert sub.op is Op.SUB and sub.r1 == 1

    def test_equality_and_hash(self):
        a = Instruction(Op.ADDI, r1=5, r2=6, imm=16)
        b = Instruction(Op.ADDI, r1=5, r2=6, imm=16)
        c = Instruction(Op.ADDI, r1=5, r2=6, imm=17)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not an instruction"

    def test_nop_units(self):
        assert nop("M").unit == "M"
        assert nop().op is Op.NOP


class TestSyntaxTable:
    def test_one_row_per_opcode(self):
        assert list(SYNTAX) == list(Op)
        texts = [text for _, text in SYNTAX.values()]
        assert len(set(texts)) == len(texts)    # no two opcodes print alike

    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    def test_every_piece_is_known_to_both_sides(self, op):
        unit, text = SYNTAX[op]
        assert Instruction(op, unit=unit).unit == unit
        mnemonic = text.partition(" ")[0]
        for piece in pieces(text):
            if piece[0] not in "{[":
                assert not set(piece) & set("{}"), f"stray brace in {text!r}"
            elif piece[1:-1] in operands(op):
                assert piece[1] in "rfp" and "r" + piece[2] in Instruction.__slots__
            else:
                assert piece in disassembler._WRITE
                read = assembler._COMPLETERS if piece in mnemonic else assembler._READ
                assert piece in read

    def test_design_table_is_rendered_from_the_rows(self):
        design = (pathlib.Path(__file__).parents[2] / "DESIGN.md").read_text()
        for op, (unit, text) in SYNTAX.items():
            assert f"| `{op.name}` | {unit} | `{text}` |" in design
        # and the table lists nothing else, in opcode order
        documented = re.findall(r"^\| `(\w+)` \| [MIFBA] \| `.*` \|$", design, re.M)
        assert documented == [op.name for op in Op]

    def test_operand_kinds_are_the_register_pieces(self):
        assert operands(Op.STFD) == ("r2", "f3")
        assert operands(Op.CMPI_EQ) == ("p1", "p2", "r3")
        assert operands(Op.MOV_PR_ROT) == operands(Op.BR_COND) == ()
        for op in Op:
            kinds = tuple(p[1:-1] for p in pieces(SYNTAX[op][1])
                          if p[0] == "{" and p[2:] in ("1}", "2}", "3}", "4}"))
            assert operands(op) == kinds
