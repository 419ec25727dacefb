"""The data path of compiled traces: views of the backing store, and wraps.

Generated trace code subscripts ``memoryview``s of the one buffer
behind ``MemorySystem`` where the interpreter calls ``ndarray.item`` /
``__setitem__``, and tests a result's range where the interpreter
masks it.  Both must be the same function of the same bits.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from repro.config import itanium2_smp
from repro.cpu import Machine
from repro.errors import MemoryError_
from repro.isa import assemble
from repro.memory.dram import DATA_BASE, MemorySystem

B63 = 1 << 63
M64 = (1 << 64) - 1


def wrap64(value: int) -> int:
    """The expression every trace used to emit; the interpreter still does."""
    return ((value + B63) & M64) - B63


def bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


class TestViewsAliasTheArrays:
    def setup_method(self):
        self.mem = MemorySystem(1 << 12)

    @pytest.mark.parametrize(
        "pattern",
        [
            0x7FF8000000000123,     # quiet NaN with a payload
            0x7FF0000000000001,     # signalling NaN
            0xFFF8000000000001,     # negative NaN
            0x8000000000000000,     # -0.0
            0x0000000000000001,     # smallest denormal
        ],
    )
    def test_float_bits_survive_both_ways(self, pattern):
        mem = self.mem
        mem._i64[3] = wrap64(pattern)
        through_view = mem._f64_mv[3]
        assert type(through_view) is float
        assert bits(through_view) == bits(mem._f64.item(3)) == wrap64(pattern)
        mem._f64_mv[4] = through_view
        mem._f64[5] = through_view
        assert mem._i64[4] == mem._i64[5] == wrap64(pattern)

    def test_negative_zero(self):
        self.mem._f64_mv[0] = -0.0
        assert self.mem._i64[0] == -B63
        assert math.copysign(1.0, self.mem._f64_mv[0]) == -1.0

    @pytest.mark.parametrize("value", [7, -3, 2**53 + 1, np.float64(2.5), np.float64("inf")])
    def test_value_kinds_store_like_setitem(self, value):
        mem = self.mem
        mem._f64_mv[1] = value
        mem._f64[2] = value
        assert mem._i64[1] == mem._i64[2]
        assert mem._f64_mv[1] == mem._f64.item(2)

    @pytest.mark.parametrize("value", [0, -1, B63 - 1, -B63, np.int64(-9)])
    def test_integers_round_trip(self, value):
        mem = self.mem
        mem._i64_mv[6] = value
        assert type(mem._i64_mv[6]) is int
        assert mem._i64_mv[6] == mem._i64.item(6) == int(value)
        assert mem.read_i64(DATA_BASE + 48) == int(value)

    def test_integer_view_refuses_what_it_cannot_hold(self):
        # write_i64 wraps; the view raises, so trace code wraps first
        with pytest.raises(ValueError):
            self.mem._i64_mv[0] = B63

    def test_views_see_later_bulk_writes(self):
        mem = self.mem
        a = mem.alloc("a", 64)
        mem.view_f64(a)[:] = 1.5
        assert mem._f64_mv[(a.base - DATA_BASE) >> 3] == 1.5
        mem._i64_mv[(a.base - DATA_BASE) >> 3] = 0x4000000000000000
        assert mem.view_f64(a)[0] == 2.0


def _run(source: str, jit: bool, gr=(), fr=()):
    """Run a one-core program whose ``.loop`` is compiled before the first
    instruction; return its registers and words, or the error it raised."""
    machine = Machine(itanium2_smp(1), memory_bytes=1 << 16)
    image = assemble(source)
    machine.load_image(image)
    data = machine.mem.alloc("data", 256)
    machine.mem.view_i64(data)[:] = range(100, 100 + data.n_words)
    core = machine.cores[0]
    core.jit_enabled = jit
    for reg, value in gr:
        core.regs.write_gr(reg, value)
    for reg, value in fr:
        core.regs.write_fr(reg, value)
    core.regs.write_gr(20, data.base)
    if jit:
        dcache = core.decode_cache
        trace = core.trace_jit.compile(
            image.labels[".loop"], dcache.sync(), dcache.keys, 0,
            core.bundles_per_cycle,
        )
        assert trace is not None and trace.kind == "loop"
    core.start(image.base)
    try:
        while not core.halted:
            core.run(512)
    except MemoryError_ as error:
        return type(error), str(error)
    if jit:
        assert core.trace_jit.stats()["compiled_bundles"] > 0
    return (tuple(core.regs.gr), tuple(core.regs.fr),
            machine.mem.view_i64(data).tolist())


def _loop(body: str) -> str:
    return f"mov ar.lc=2\n.loop:\n{body}\nbr.cloop.sptk .loop\nhalt\n"


class TestTraceFallbackKeepsTheErrors:
    @pytest.mark.parametrize(
        "access",
        ["ld8 r4=[r5],8", "ldfd f4=[r5],8", "st8 [r5]=r6,8", "stfd [r5]=f6,8"],
    )
    @pytest.mark.parametrize(
        "address",
        [DATA_BASE - 8, DATA_BASE + (1 << 16), DATA_BASE + 3, 0, -8, B63 - 8],
    )
    def test_out_of_range_or_unaligned(self, access, address):
        source = _loop(access)
        interpreted = _run(source, False, gr=[(5, address)])
        compiled = _run(source, True, gr=[(5, address)])
        assert interpreted[0] is MemoryError_
        assert compiled == interpreted


BOUNDARY = (0, 1, -1, B63 - 1, B63 - 2, -B63, -B63 + 1, 1 << 62, -(1 << 62))


class TestWrapBoundaries:
    @pytest.mark.parametrize("a", BOUNDARY)
    @pytest.mark.parametrize("b", BOUNDARY)
    def test_add_sub_shladd(self, a, b):
        source = _loop("add r4=r1,r2\nsub r6=r1,r2\nshladd r7=r1,2,r2\nadd r8=-1,r1")
        compiled = _run(source, True, gr=[(1, a), (2, b)])
        assert compiled == _run(source, False, gr=[(1, a), (2, b)])
        gr = compiled[0]
        assert gr[4] == wrap64(a + b)
        assert gr[6] == wrap64(a - b)
        assert gr[7] == wrap64((a << 2) + b)
        assert gr[8] == wrap64(a - 1)

    @pytest.mark.parametrize("a", BOUNDARY)
    @pytest.mark.parametrize("n", [0, 1, 62, 63])
    def test_shifts_and_bitwise(self, a, n):
        source = _loop(f"shl r4=r1,{n}\nshr r6=r1,{n}\nand r7=r1,r2\nor r8=r1,r2\nxor r9=r1,r2")
        compiled = _run(source, True, gr=[(1, a), (2, -B63 + 5)])
        assert compiled == _run(source, False, gr=[(1, a), (2, -B63 + 5)])
        gr = compiled[0]
        assert gr[4] == wrap64(a << n)
        assert gr[6] == wrap64(a >> n) == a >> n
        b = -B63 + 5
        assert (gr[7], gr[8], gr[9]) == (a & b, a | b, a ^ b)

    @pytest.mark.parametrize(
        "value",
        [float(B63), -float(B63), float(B63) * 2, 9.007199254740993e15,
         np.nextafter(float(B63), 0.0), np.nextafter(-float(B63), -math.inf), -0.5],
    )
    def test_getf(self, value):
        source = _loop("getf r4=f4")
        compiled = _run(source, True, fr=[(4, float(value))])
        assert compiled == _run(source, False, fr=[(4, float(value))])
        assert compiled[0][4] == wrap64(int(value))

    @pytest.mark.parametrize(
        "imm",
        [8, -8, (1 << 62) - 1, 1 << 62, -(1 << 62), -(1 << 62) - 1, B63 - 1, -B63],
    )
    @pytest.mark.parametrize(
        "access", ["ld8 r4=[r5],{}", "st8 [r5]=r6,{}", "ldfd f4=[r5],{}",
                   "stfd [r5]=f6,{}", "lfetch.nt1 [r5],{}"],
    )
    def test_post_increment(self, access, imm):
        # one pass (LC 0): the incremented address is not accessed again
        source = (f"mov r5=r20\nmov ar.lc=0\n.loop:\n{access.format(imm)}\n"
                  "br.cloop.sptk .loop\nhalt\n")
        compiled = _run(source, True)
        assert compiled == _run(source, False)
        assert compiled[0][5] == wrap64(compiled[0][20] + imm)

    @pytest.mark.parametrize("address", [B63 - 8, -B63, -8])
    def test_prefetch_post_increment_off_any_address(self, address):
        # lfetch checks no range, so its increment keeps the wrap
        source = _loop("lfetch.nt1 [r5],16")
        compiled = _run(source, True, gr=[(5, address)])
        assert compiled == _run(source, False, gr=[(5, address)])
        assert compiled[0][5] == wrap64(wrap64(wrap64(address + 16) + 16) + 16)
