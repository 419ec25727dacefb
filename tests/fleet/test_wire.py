"""Fleet wire format: round-trip identity and corruption rejection."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet.wire import (
    batch_frame,
    decode_frame,
    encode_frame,
    hello_frame,
    profile_frame,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

WINDOW = {"window": 0, "retired": 1000, "samples": 12, "quarantined": 0,
          "cpi": 1.25}
ENTRY = {"runs": 1, "profiler": None, "cpi_total": 1.5, "cpi_count": 1,
         "decisions": {}, "flips": 0}


class TestRoundTrip:
    def test_hello(self):
        frame = hello_frame("i0", "k/m/s", "d" * 16)
        assert decode_frame(encode_frame(frame)) == frame

    def test_batch(self):
        frame = batch_frame("i0", 3, "k/m/s", WINDOW)
        assert decode_frame(encode_frame(frame)) == frame

    def test_profile(self):
        frame = profile_frame("i0", 7, "k/m/s", "d" * 16, ENTRY)
        assert decode_frame(encode_frame(frame)) == frame

    def test_sequence_numbers_preserved(self):
        for seq in (0, 1, 99):
            frame = batch_frame("i1", seq, "k", WINDOW)
            assert decode_frame(encode_frame(frame))["n"] == seq


class TestRejection:
    def test_every_single_byte_flip_is_detected(self):
        data = encode_frame(batch_frame("i0", 1, "k", WINDOW))
        for pos in range(len(data)):
            damaged = bytearray(data)
            damaged[pos] ^= 0xFF
            assert decode_frame(bytes(damaged)) is None, f"flip at {pos}"

    def test_trailing_bytes_rejected(self):
        data = encode_frame(hello_frame("i0", "k", "d"))
        assert decode_frame(data + b"x") is None

    def test_concatenated_frames_rejected(self):
        one = encode_frame(hello_frame("i0", "k", "d"))
        assert decode_frame(one + one) is None

    def test_any_buffer_type_decodes_alike(self):
        one = encode_frame(hello_frame("i0", "k", "d" * 16))
        want = decode_frame(one)
        assert want is not None
        for kind in (bytearray, memoryview):
            assert decode_frame(kind(one)) == want
            assert decode_frame(kind(one + b"x")) is None

    def test_empty_and_garbage(self):
        assert decode_frame(b"") is None
        assert decode_frame(b"not a frame at all") is None

    @given(data=st.binary(max_size=64))
    @settings(max_examples=80, **COMMON)
    def test_arbitrary_bytes_never_crash(self, data):
        out = decode_frame(data)
        assert out is None or isinstance(out, dict)
