"""Register file and rotation semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RegisterError
from repro.isa.registers import (
    FR_ROT_SIZE,
    FR_ROT_START,
    GR_ROT_START,
    PR_ROT_SIZE,
    PR_ROT_START,
    RegisterFile,
    rename_table,
)


class TestBasics:
    def test_r0_reads_zero_and_is_readonly(self):
        regs = RegisterFile()
        assert regs.read_gr(0) == 0
        with pytest.raises(RegisterError):
            regs.write_gr(0, 1)

    def test_f0_f1_hardwired(self):
        regs = RegisterFile()
        assert regs.read_fr(0) == 0.0
        assert regs.read_fr(1) == 1.0
        with pytest.raises(RegisterError):
            regs.write_fr(0, 2.0)
        with pytest.raises(RegisterError):
            regs.write_fr(1, 2.0)

    def test_p0_hardwired_true(self):
        regs = RegisterFile()
        assert regs.read_pr(0) is True
        with pytest.raises(RegisterError):
            regs.write_pr(0, False)

    def test_out_of_range(self):
        regs = RegisterFile()
        with pytest.raises(RegisterError):
            regs.read_gr(128)
        with pytest.raises(RegisterError):
            regs.read_fr(128)
        with pytest.raises(RegisterError):
            regs.read_pr(64)
        with pytest.raises(RegisterError):
            regs.write_gr(-1, 0)

    def test_gr_wraps_to_signed_64bit(self):
        regs = RegisterFile()
        regs.write_gr(5, (1 << 63))
        assert regs.read_gr(5) == -(1 << 63)
        regs.write_gr(5, -1)
        assert regs.read_gr(5) == -1
        regs.write_gr(5, (1 << 64) + 7)
        assert regs.read_gr(5) == 7

    def test_alloc_bounds(self):
        regs = RegisterFile()
        regs.alloc_rotating(96)
        with pytest.raises(RegisterError):
            regs.alloc_rotating(97)
        with pytest.raises(RegisterError):
            regs.alloc_rotating(-1)


class TestRotation:
    def test_gr_value_moves_up_one_name_per_rotation(self):
        regs = RegisterFile()
        regs.alloc_rotating(8)
        regs.write_gr(32, 111)
        regs.rotate()
        assert regs.read_gr(33) == 111
        regs.rotate()
        assert regs.read_gr(34) == 111

    def test_gr_outside_rotating_region_untouched(self):
        regs = RegisterFile()
        regs.alloc_rotating(8)
        regs.write_gr(20, 7)
        regs.write_gr(31, 9)
        regs.write_gr(40, 13)  # beyond r32+8
        regs.rotate()
        assert regs.read_gr(20) == 7
        assert regs.read_gr(31) == 9
        assert regs.read_gr(40) == 13

    def test_fr_always_rotates(self):
        regs = RegisterFile()
        regs.write_fr(32, 2.5)
        regs.rotate()
        assert regs.read_fr(33) == 2.5
        # static region does not rotate
        regs.write_fr(10, 1.5)
        regs.rotate()
        assert regs.read_fr(10) == 1.5

    def test_pr_rotates(self):
        regs = RegisterFile()
        regs.write_pr(16, True)
        regs.rotate()
        assert regs.read_pr(17) is True
        assert regs.read_pr(16) is False

    def test_clear_rrb(self):
        regs = RegisterFile()
        regs.alloc_rotating(8)
        regs.write_gr(32, 1)
        regs.rotate()
        regs.clear_rrb()
        assert regs.read_gr(32) == 1  # names map back to physical

    def test_gr_rotation_wraps_modulo_sor(self):
        regs = RegisterFile()
        regs.alloc_rotating(8)
        regs.write_gr(32, 42)
        for _ in range(8):
            regs.rotate()
        assert regs.read_gr(32) == 42  # full cycle

    @given(st.integers(1, 96), st.integers(0, 300))
    def test_full_fr_rotation_cycle_is_identity(self, reg_offset, extra):
        regs = RegisterFile()
        idx = 32 + (reg_offset % FR_ROT_SIZE)
        regs.write_fr(idx, 3.25)
        for _ in range(FR_ROT_SIZE):
            regs.rotate()
        assert regs.read_fr(idx) == 3.25

    @given(st.integers(0, PR_ROT_SIZE - 1), st.integers(1, PR_ROT_SIZE - 1))
    def test_pr_value_visible_at_shifted_name(self, offset, rotations):
        regs = RegisterFile()
        idx = 16 + offset
        regs.write_pr(idx, True)
        for _ in range(rotations):
            regs.rotate()
        shifted = 16 + ((offset + rotations) % PR_ROT_SIZE)
        assert regs.read_pr(shifted) is True

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(-1000, 1000)), min_size=1, max_size=40
        )
    )
    def test_rotation_is_a_permutation(self, writes):
        """Rotation never loses or duplicates values in the region."""
        regs = RegisterFile()
        regs.alloc_rotating(8)
        for offset, value in writes:
            regs.write_gr(GR_ROT_START + offset, value)
        before = sorted(regs.gr[GR_ROT_START : GR_ROT_START + 8])
        regs.rotate()
        visible = sorted(regs.read_gr(GR_ROT_START + i) for i in range(8))
        assert visible == before


class TestRenameTable:
    """The interpreter's rename tables against the rule they tabulate."""

    @given(
        sor=st.integers(0, 96),
        # a base left by a larger region survives a shrinking ``alloc``
        rrb_gr=st.integers(0, 95),
        rrb_fr=st.integers(0, FR_ROT_SIZE - 1),
        rrb_pr=st.integers(0, PR_ROT_SIZE - 1),
    )
    def test_lookup_equals_the_register_file_rule(self, sor, rrb_gr, rrb_fr, rrb_pr):
        regs = RegisterFile()
        regs.alloc_rotating(sor)
        regs.rrb_gr, regs.rrb_fr, regs.rrb_pr = rrb_gr, rrb_fr, rrb_pr
        for table, rrb, phys in (
            (rename_table(128, GR_ROT_START, sor), rrb_gr, regs._phys_gr),
            (rename_table(128, FR_ROT_START, FR_ROT_SIZE), rrb_fr, regs._phys_fr),
            (rename_table(64, PR_ROT_START, PR_ROT_SIZE), rrb_pr, regs._phys_pr),
        ):
            row = table[rrb % len(table)]
            assert list(row) == [phys(idx) for idx in range(len(row))]

    def test_built_once_per_geometry(self):
        assert rename_table(128, GR_ROT_START, 8) is rename_table(128, GR_ROT_START, 8)
        assert len(rename_table(128, GR_ROT_START, 0)) == 1
