"""WindowBatch: the wire payload and its tree (every field's type and range)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ProfileStateError
from repro.fleet import FleetDaemon, batch_frame, encode_frame, hello_frame
from repro.hpm import WindowBatch
from repro.shape import anomaly

GOOD = WindowBatch(window=3, retired=40_000, samples=25, quarantined=1, cpi=1.5)


class TestPayloadRoundTrip:
    def test_round_trip_identity(self):
        assert WindowBatch(**WindowBatch.PAYLOAD.load(GOOD.to_payload())) == GOOD

    def test_int_cpi_coerced_to_float(self):
        # the tree admits an integer CPI; the daemon keeps it as a float
        daemon = FleetDaemon()
        daemon.handle(encode_frame(hello_frame("i0", "k", "d")))
        daemon.handle(encode_frame(batch_frame("i0", 1, "k", dict(GOOD.to_payload(), cpi=2))))
        cpi = daemon.windows["i0"][GOOD.window][-1]
        assert cpi == 2.0 and isinstance(cpi, float)

    def test_non_dict_rejected(self):
        with pytest.raises(ProfileStateError, match="expected an object"):
            WindowBatch.PAYLOAD.load([1, 2, 3])
        assert anomaly(WindowBatch.PAYLOAD, [1, 2, 3]) == "type"

    @pytest.mark.parametrize("field", ["window", "retired", "samples",
                                       "quarantined", "cpi"])
    def test_missing_field_rejected(self, field):
        payload = GOOD.to_payload()
        del payload[field]
        with pytest.raises(ProfileStateError, match=f"^{field}: "):
            WindowBatch.PAYLOAD.load(payload)

    @pytest.mark.parametrize("field,value", [
        ("window", "3"), ("retired", 1.5), ("samples", None),
        ("quarantined", True), ("cpi", "1.5"),
    ])
    def test_damaged_field_rejected(self, field, value):
        payload = dict(GOOD.to_payload(), **{field: value})
        with pytest.raises(ProfileStateError, match=f"^{field}: "):
            WindowBatch.PAYLOAD.load(payload)


class TestAnomaly:
    def test_clean_batch_has_none(self):
        assert anomaly(WindowBatch.PAYLOAD, GOOD.to_payload()) is None
        assert anomaly(WindowBatch.PAYLOAD, WindowBatch(0, 0, 0, 0, 0.0).to_payload()) is None

    @pytest.mark.parametrize("kwargs,reason", [
        (dict(window=-1), "window-range"),
        (dict(retired=-1), "retired-range"),
        (dict(samples=-1), "samples-range"),
        (dict(quarantined=-3), "quarantined-range"),
        (dict(cpi=-0.1), "cpi-range"),
        (dict(cpi=math.nan), "cpi-range"),
        (dict(cpi=math.inf), "cpi-range"),
    ])
    def test_damaged_fields_named(self, kwargs, reason):
        base = dict(window=3, retired=40_000, samples=25, quarantined=1,
                    cpi=1.5)
        base.update(kwargs)
        assert anomaly(WindowBatch.PAYLOAD, WindowBatch(**base).to_payload()) == reason
