"""Every single-byte flip and truncation of a recorded wire frame.

One hello, one batch and one profile frame of a real agent run, each
damaged every way one byte or one cut can damage it, are each handed to
a fresh daemon (after the clean hello, for the other two).  Whatever
arrives, the reply is a ``crc`` or ``malformed`` nack, a quarantine of
the sender or the clean frame's own reply — never an exception — and
the daemon holds what a clean daemon holds after the frames it acked.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import FleetAgentConfig
from repro.fleet import FleetDaemon, InstanceSpec, decode_frame, run_instance
from repro.validate.differential import MachineRecipe, daxpy_spec

NACKS = ({"k": "nack", "reason": "crc"}, {"k": "nack", "reason": "malformed"})


@pytest.fixture(scope="module")
def recorded() -> dict[str, bytes]:
    """kind -> the bytes of the agent's first frame of that kind."""
    result = run_instance(InstanceSpec(
        instance="rec", round_no=0, workload=daxpy_spec(512, 4, 4),
        machine=MachineRecipe("smp", 4, 4), strategy="adaptive",
        fleet=FleetAgentConfig(instance="rec"), optimize_interval=10_000,
    ))
    frames: dict[str, bytes] = {}
    for data in result.channel.clean:
        frames.setdefault(decode_frame(data)["k"], bytes(data))
    assert set(frames) == {"hello", "batch", "profile"}
    return frames


def _damaged(data: bytes):
    yield from (data[:n] for n in range(len(data)))
    for i, byte in enumerate(data):
        for mask in (0x01, 0xFF):
            yield data[:i] + bytes([byte ^ mask]) + data[i + 1:]


@pytest.mark.parametrize("kind", ["hello", "batch", "profile"])
def test_every_flip_and_truncation_is_refused_or_harmless(recorded, kind):
    def fresh() -> FleetDaemon:
        daemon = FleetDaemon()
        if kind != "hello":
            daemon.handle(recorded["hello"])
        return daemon

    before = fresh().canonical_state()
    clean = fresh()
    clean_reply = clean.handle(recorded[kind])
    outcomes: Counter = Counter()
    for data in _damaged(recorded[kind]):
        daemon = fresh()
        reply = daemon.handle(data)
        if reply in NACKS:
            outcomes[reply["reason"]] += 1
            assert daemon.canonical_state() == before
        elif reply.get("status") == "quarantined":
            outcomes["quarantined"] += 1
            assert set(daemon.quarantined) == {decode_frame(recorded[kind])["i"]}
            assert daemon.batches_accepted == 0
        else:
            outcomes["clean"] += 1
            assert reply == clean_reply
            assert daemon.canonical_state() == clean.canonical_state()
    # a frame's CRC-32 catches every single-byte flip and every cut
    assert outcomes == {"crc": 3 * len(recorded[kind])}
