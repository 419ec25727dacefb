"""Assembler: parsing, packing, round-trips with the disassembler."""

import pytest

from repro.errors import AssemblyError
from repro.isa.assembler import assemble, parse_instruction
from repro.isa.disassembler import format_instruction, format_predicated
from repro.isa.instructions import Instruction, Op


class TestParseInstruction:
    CASES = [
        ("nop.i 0", Op.NOP),
        ("add r1=r2,r3", Op.ADD),
        ("add r41=16,r43", Op.ADDI),
        ("sub r1=r2,r3", Op.SUB),
        ("and r1=r2,r3", Op.AND),
        ("shl r1=r2,3", Op.SHL),
        ("shladd r9=r8,3,r18", Op.SHLADD),
        ("mov r1=r2", Op.MOV),
        ("mov r1=42", Op.MOVI),
        ("movl r1=0x80000000", Op.MOVI),
        ("cmp.lt p6,p7=r8,r9", Op.CMP_LT),
        ("cmp.eq p6,p7=r8,15", Op.CMPI_EQ),
        ("mov ar.lc=99", Op.MOV_LC_IMM),
        ("mov ar.lc=r15", Op.MOV_LC_REG),
        ("mov ar.ec=3", Op.MOV_EC_IMM),
        ("mov pr.rot=0x10000", Op.MOV_PR_ROT),
        ("alloc rot=8", Op.ALLOC),
        ("clrrrb", Op.CLRRRB),
        ("ld8 r1=[r2]", Op.LD8),
        ("ld8 r1=[r2],8", Op.LD8),
        ("ld8.bias r1=[r2]", Op.LD8),
        ("st8 [r2]=r3,8", Op.ST8),
        ("ldfd f32=[r2],8", Op.LDFD),
        ("stfd [r40]=f46", Op.STFD),
        ("lfetch.nt1 [r10]", Op.LFETCH),
        ("lfetch.excl.nt1 [r43]", Op.LFETCH),
        ("lfetch [r2],128", Op.LFETCH),
        ("fetchadd8 r8=[r25],1", Op.FETCHADD8),
        ("fma.d f44=f6,f37,f43", Op.FMA),
        ("fadd.d f10=f10,f32", Op.FADD),
        ("fabs f2=f3", Op.FABS),
        ("setf.d f2=r3", Op.SETF),
        ("getf.d r3=f2", Op.GETF),
        ("br .loop", Op.BR),
        ("br.cond.sptk .loop", Op.BR_COND),
        ("br.ctop.sptk .b1_22", Op.BR_CTOP),
        ("br.cloop.sptk .loop", Op.BR_CLOOP),
        ("br.wtop.sptk .loop", Op.BR_WTOP),
        ("br.call fn", Op.BR_CALL),
        ("br.ret", Op.BR_RET),
        ("halt", Op.HALT),
    ]

    @pytest.mark.parametrize("text,op", CASES)
    def test_mnemonics(self, text, op):
        assert parse_instruction(text).op is op

    def test_predication_prefix(self):
        instr = parse_instruction("(p16) ldfd f32=[r2],8")
        assert instr.qp == 16 and instr.op is Op.LDFD and instr.imm == 8

    def test_lfetch_flags(self):
        instr = parse_instruction("lfetch.excl.nt1 [r43]")
        assert instr.excl and instr.hint == "nt1" and instr.r2 == 43

    def test_bias_flag(self):
        assert parse_instruction("ld8.bias r1=[r2]").excl

    def test_fp_mov_pseudo(self):
        instr = parse_instruction("mov f10=0")
        assert instr.op is Op.FADD and instr.r2 == 0 and instr.r3 == 0
        instr = parse_instruction("mov f10=f5")
        assert instr.op is Op.FADD and instr.r2 == 5

    @pytest.mark.parametrize(
        "bad",
        [
            "frobnicate r1=r2",
            "add f1=r2,r3",
            "ld8 r1=[f2]",
            "cmp.zz p1,p2=r3,r4",
            "mov f10=3",
            "alloc x=3",
            "br.zork .loop",
            # an operand short: a bare ValueError before the syntax table
            "add r1=r2",
            # a register number outside its file: used to assemble and
            # die at first decode as a RegisterError that named no line
            "ld8 r999=[r2]",
            "fma.d f300=f1,f2,f3",
            "cmp.lt p70,p1=r2,r3",
            "(p99) add r1=r2,r3",
            # a branch without a target: used to be a branch to address 0
            "br.cond.sptk",
            "br",
            # a completer that would have carried meaning: used to be
            # dropped, or stored unchecked
            "lfetch.nt9 [r2]",
            "lfetch.fault.nt1 [r2]",
            "br.cond.zork .x",
        ],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(AssemblyError):
            parse_instruction(bad)
        with pytest.raises(AssemblyError, match=r"^line 3: ") as caught:
            assemble(f".x:\nhalt\n{bad}\n")
        assert caught.value.line == 3

    #: spellings the table does not print but the assembler has always
    #: read, each with the instruction it has always built
    STILL_ACCEPTED = [
        # completers that carry nothing may be left out, or be anything
        ("setf f0=r4", Instruction(Op.SETF, r1=0, r2=4)),
        ("getf r38=f33", Instruction(Op.GETF, r1=38, r2=33)),
        ("fma f40=f8,f33,f9", Instruction(Op.FMA, r1=40, r2=8, r3=33, r4=9)),
        ("fadd f11=f11,f10", Instruction(Op.FADD, r1=11, r2=11, r3=10)),
        ("fma.s1 f40=f8,f33,f9", Instruction(Op.FMA, r1=40, r2=8, r3=33, r4=9)),
        # aliases
        ("adds r1=-8,r3", Instruction(Op.ADDI, r1=1, r2=3, imm=-8)),
        ("adds r1=r2,r3", Instruction(Op.ADD, r1=1, r2=2, r3=3)),
        ("movl r1=0x80000000", Instruction(Op.MOVI, r1=1, imm=0x80000000)),
        # pseudo-ops
        ("mov f10=f5", Instruction(Op.FADD, r1=10, r2=5, r3=0)),
        ("mov f10=0", Instruction(Op.FADD, r1=10, r2=0, r3=0)),
        ("nop", Instruction(Op.NOP, unit="I")),
        # whitespace is free around = and ,
        ("add r1 = r2 , r3", Instruction(Op.ADD, r1=1, r2=2, r3=3)),
        ("ld8 r1 = [r2], 8", Instruction(Op.LD8, r1=1, r2=2, imm=8, unit="M")),
        ("st8 [r2] = r3 , 8", Instruction(Op.ST8, r2=2, r3=3, imm=8, unit="M")),
        ("cmp.lt p6 , p7 = r8 , 15", Instruction(Op.CMPI_LT, r1=6, r2=7, r3=8, imm=15)),
        ("mov ar.lc = 99", Instruction(Op.MOV_LC_IMM, imm=99)),
        # lfetch's completers in either order
        ("lfetch.nt1.excl [r43]",
         Instruction(Op.LFETCH, r2=43, hint="nt1", excl=True, unit="M")),
        ("lfetch.excl.nt1 [r43]",
         Instruction(Op.LFETCH, r2=43, hint="nt1", excl=True, unit="M")),
        # an omitted branch hint stays omitted; a stop bit is ignored
        ("br.cond .x", Instruction(Op.BR_COND, label=".x", unit="B")),
        ("(p6) br.cond.spnt 0x40 ;;", Instruction(Op.BR_COND, qp=6, imm=0x40, hint="spnt", unit="B")),
    ]

    @pytest.mark.parametrize("text,built", STILL_ACCEPTED, ids=[t for t, _ in STILL_ACCEPTED])
    def test_still_accepted(self, text, built):
        assert parse_instruction(text) == built

    def test_immediates_are_shapes_not_ranges(self):
        # the executing core rejects the value (RegisterError), not the table
        assert parse_instruction("alloc rot=200") == Instruction(Op.ALLOC, imm=200)


class TestAssemble:
    def test_explicit_bundles_and_labels(self):
        image = assemble(
            """
            .loop:
            { .mmi
              (p16) ldfd f32=[r2],8
              (p16) lfetch.nt1 [r43]
              add r41=16,r43
            }
            br.ctop.sptk .loop
            halt
            """
        )
        assert image.labels[".loop"] == image.base
        br = image.fetch_bundle(image.base + 16).slots[2]
        assert br.op is Op.BR_CTOP and br.imm == image.base

    def test_loose_packing_max_two_memory_ops(self):
        image = assemble(
            """
            ldfd f32=[r2],8
            ldfd f33=[r3],8
            ldfd f34=[r4],8
            halt
            """
        )
        first = image.fetch_bundle(image.base)
        mems = sum(1 for s in first.slots if s.is_memory)
        assert mems <= 3  # packer keeps them in order; bundles legal

    def test_branch_lands_in_last_slot(self):
        image = assemble("br .x\n.x:\nhalt\n")
        bundle = image.fetch_bundle(image.base)
        assert bundle.slots[2].op is Op.BR

    def test_unterminated_bundle(self):
        with pytest.raises(AssemblyError):
            assemble("{ .mmi\n nop.i 0\n")

    def test_nested_bundle(self):
        with pytest.raises(AssemblyError):
            assemble("{ .mmi\n{ .mmi\n")

    def test_label_inside_bundle(self):
        with pytest.raises(AssemblyError):
            assemble("{ .mmi\n.x:\n")

    def test_comments_ignored(self):
        image = assemble("// a comment\nhalt // trailing\n")
        assert len(image) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("text,_", TestParseInstruction.CASES)
    def test_format_parse_round_trip(self, text, _):
        instr = parse_instruction(text)
        if instr.label is not None:
            return  # symbolic targets need an image to resolve
        again = parse_instruction(format_instruction(instr))
        assert again == instr

    def test_predicated_round_trip(self):
        instr = parse_instruction("(p18) stfd [r17]=f61,8")
        assert parse_instruction(format_predicated(instr)) == instr
