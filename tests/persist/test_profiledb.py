"""Profile database: codec round-trips, damage tolerance, merge algebra.

The database is a pure accelerator, so its failure contract is strict:
any byte-level damage loads as *empty* (never raises, never half-loads),
a future format version is refused up front, and :func:`merge_entries`
is commutative/associative so N runs fold to the same entry in any
order.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import itanium2_smp, sgi_altix
from repro.cpu import Machine
from repro.persist import (
    PROFILEDB_FORMAT,
    PROFILEDB_NAME,
    MemoryDisk,
    ProfileDB,
    encode_snapshot,
    image_digest,
    machine_descriptor,
    merge_entries,
    profile_key,
)
from repro.persist.profiledb import ENTRY, empty_entry
from repro.shape import anomaly
from repro.workloads import build_daxpy

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

_count = st.integers(min_value=0, max_value=10_000)

_pc_stat = st.fixed_dictionaries(
    {
        "samples": _count,
        "coherent": _count,
        "total_latency": _count,
        "lines": st.lists(st.integers(0, 63), max_size=4).map(sorted),
        "threads": st.lists(st.integers(0, 7), max_size=3).map(sorted),
    }
)

_profiler = st.fixed_dictionaries(
    {
        "misses": st.fixed_dictionaries(
            {
                "by_pc": st.dictionaries(
                    st.integers(0x4000, 0x4200).map(str), _pc_stat, max_size=4
                ),
                "total_events": _count,
                "total_coherent": _count,
            }
        ),
        "btb": st.lists(
            st.tuples(
                st.integers(0x4000, 0x4100),
                st.integers(0x4000, 0x4100),
                st.integers(1, 50),
            ).map(list),
            max_size=4,
        ),
        "samples_seen": _count,
        "quarantined": st.just({}),
        "quarantined_total": st.just(0),
        "bus_delta": _count,
        "coherent_delta": _count,
    }
)

_decision_rec = st.fixed_dictionaries(
    {
        "proven": st.integers(0, 20),
        "rolled_back": st.integers(0, 20),
        "back_branch": st.integers(0x4000, 0x4200),
        "hotness": st.integers(0, 100),
    }
)

# [root, head, kind, sor] trace-tree shapes, pre-canonicalized (sorted,
# deduped) the way every writer emits them
_tree_shapes = st.lists(
    st.tuples(
        st.integers(0x4000, 0x4100),
        st.integers(0x4000, 0x4100),
        st.sampled_from(("loop", "linear")),
        st.sampled_from((0, 8, 16)),
    ),
    max_size=3,
    unique=True,
).map(lambda shapes: sorted(list(s) for s in shapes))

# integer-valued cpi_total keeps float addition exact, so the
# associativity assertion below is bit-exact rather than approximate
_entry = st.fixed_dictionaries(
    {
        "runs": st.integers(0, 5),
        "profiler": st.one_of(st.none(), _profiler),
        "cpi_total": st.integers(0, 500).map(float),
        "cpi_count": st.integers(0, 100),
        "decisions": st.dictionaries(
            st.integers(0x4000, 0x4100).map(str),
            st.dictionaries(
                st.sampled_from(("noprefetch", "excl")), _decision_rec, max_size=2
            ),
            max_size=3,
        ),
        "flips": st.integers(0, 10),
        "jit_trees": _tree_shapes,
    }
)

_key = st.text(
    alphabet="abcdef0123456789/:=-", min_size=1, max_size=24
)


def _canon(entry: dict) -> str:
    # no sort_keys: the merge promises *canonically ordered* output,
    # and the byte comparison must see any ordering drift
    return json.dumps(entry)


class TestMergeAlgebra:
    @given(a=_entry, b=_entry)
    @settings(max_examples=60, **COMMON)
    def test_commutative_to_the_byte(self, a, b):
        assert _canon(merge_entries(a, b)) == _canon(merge_entries(b, a))

    @given(a=_entry, b=_entry, c=_entry)
    @settings(max_examples=60, **COMMON)
    def test_associative(self, a, b, c):
        left = merge_entries(merge_entries(a, b), c)
        right = merge_entries(a, merge_entries(b, c))
        assert left == right

    @given(a=_entry)
    @settings(max_examples=40, **COMMON)
    def test_empty_entry_is_the_identity(self, a):
        assert merge_entries(empty_entry(), a) == a
        assert merge_entries(a, empty_entry()) == a

    @given(a=_entry, b=_entry)
    @settings(max_examples=40, **COMMON)
    def test_counts_add_and_quarantine_resets(self, a, b):
        merged = merge_entries(a, b)
        assert merged["runs"] == a["runs"] + b["runs"]
        assert merged["cpi_count"] == a["cpi_count"] + b["cpi_count"]
        if a["profiler"] is not None and b["profiler"] is not None:
            prof = merged["profiler"]
            assert prof["samples_seen"] == (
                a["profiler"]["samples_seen"] + b["profiler"]["samples_seen"]
            )
            # quarantine counters are session noise, never profile signal
            assert prof["quarantined"] == {}
            assert prof["quarantined_total"] == 0


    @given(a=_entry, b=_entry)
    @settings(max_examples=20, **COMMON)
    def test_an_entry_without_jit_trees_has_none(self, a, b):
        """Entries written before trace-tree persistence load and merge
        as holding no shapes."""
        del a["jit_trees"]
        assert anomaly(ENTRY, a, "entry") is None
        assert merge_entries(a, b)["jit_trees"] == b["jit_trees"]


class TestStoreRoundTrip:
    @given(entries=st.dictionaries(_key, _entry, max_size=3))
    @settings(max_examples=40, **COMMON)
    def test_save_load_identity(self, entries):
        disk = MemoryDisk()
        db = ProfileDB(disk)
        db.entries = dict(entries)
        db.save()
        again = ProfileDB(disk)
        again.load()
        assert again.entries == entries
        assert again.stats.present
        assert not again.stats.corrupt
        assert not again.stats.future_format

    @given(
        entries=st.dictionaries(_key, _entry, min_size=1, max_size=2),
        data=st.data(),
    )
    @settings(max_examples=60, **COMMON)
    def test_single_byte_flip_never_half_loads(self, entries, data):
        disk = MemoryDisk()
        db = ProfileDB(disk)
        db.entries = dict(entries)
        db.save()
        blob = disk.files[PROFILEDB_NAME]
        offset = data.draw(st.integers(0, len(blob) - 1))
        blob[offset] ^= data.draw(st.integers(1, 255))
        again = ProfileDB(disk)
        again.load()
        # the codec digest either catches the flip (load as empty) or
        # the flip was provably inconsequential (identical entries);
        # a *different* valid database must never come back
        if again.stats.corrupt:
            assert again.entries == {}
        else:
            assert again.entries == entries

    def test_truncation_loads_empty(self):
        disk = MemoryDisk()
        db = ProfileDB(disk)
        db.record_run("k", empty_entry())
        db.save()
        blob = disk.files[PROFILEDB_NAME]
        del blob[len(blob) // 2:]
        again = ProfileDB(disk)
        again.load()
        assert again.entries == {}
        assert again.stats.corrupt

    def test_every_byte_flip_and_truncation_of_a_saved_store(self):
        """Each single-byte flip (x0x01, x0xFF) and each truncation of a
        saved two-entry store loads the saved entries, or loads empty
        with ``corrupt`` set; none raises."""
        one = dict(empty_entry(), runs=2, cpi_total=3.25, cpi_count=2, decisions={
            "64": {"noprefetch": {"proven": 2, "rolled_back": 0, "back_branch": 96,
                                  "hotness": 12}}})
        saved = {"k/smp-4/adaptive": one, "k/altix-8/excl": dict(empty_entry(), runs=1)}
        disk = MemoryDisk()
        db = ProfileDB(disk)
        db.entries = dict(saved)
        db.save()
        blob = bytes(disk.files[PROFILEDB_NAME])
        damaged = [blob[:n] for n in range(len(blob))] + [
            blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1:]
            for i in range(len(blob)) for mask in (0x01, 0xFF)
        ]
        corrupt = 0
        for data in damaged:
            disk.files[PROFILEDB_NAME] = bytearray(data)
            again = ProfileDB(disk)
            again.load()
            assert again.entries == ({} if again.stats.corrupt else saved)
            corrupt += again.stats.corrupt
        assert corrupt == len(damaged)  # the codec's digest catches each one

    def test_future_format_refused_up_front(self):
        disk = MemoryDisk()
        disk.write_atomic(
            PROFILEDB_NAME,
            encode_snapshot(
                {"format": PROFILEDB_FORMAT + 1, "entries": {"k": {}}}
            ),
        )
        db = ProfileDB(disk)
        db.load()
        assert db.entries == {}
        assert db.stats.future_format
        assert not db.stats.corrupt

    def test_non_object_entries_load_empty(self):
        disk = MemoryDisk()
        disk.write_atomic(
            PROFILEDB_NAME,
            encode_snapshot({"format": PROFILEDB_FORMAT, "entries": [1, 2]}),
        )
        db = ProfileDB(disk)
        db.load()
        assert db.entries == {}
        assert db.stats.corrupt

    def test_missing_file_loads_empty(self):
        db = ProfileDB(MemoryDisk())
        db.load()
        assert db.entries == {}
        assert not db.stats.present

    def test_record_run_merges_existing_key(self):
        db = ProfileDB(MemoryDisk())
        one = empty_entry()
        one["runs"] = 1
        one["cpi_count"] = 4
        db.record_run("k", dict(one))
        db.record_run("k", dict(one))
        assert db.entries["k"]["runs"] == 2
        assert db.entries["k"]["cpi_count"] == 8
        assert db.stats.runs_recorded == 2


class TestKeying:
    def _image(self, n=64):
        machine = Machine(itanium2_smp(2, scale=4))
        return build_daxpy(machine, n, 2, outer_reps=1).image

    def test_identical_builds_digest_equal(self):
        assert image_digest(self._image()) == image_digest(self._image())

    def test_different_programs_digest_differently(self):
        assert image_digest(self._image(64)) != image_digest(self._image(128))

    def test_machine_descriptor_separates_configs(self):
        smp = itanium2_smp(4, scale=16)
        descriptors = {
            machine_descriptor(smp),
            machine_descriptor(itanium2_smp(2, scale=16)),
            machine_descriptor(itanium2_smp(4, scale=4)),
            machine_descriptor(sgi_altix(8, scale=16)),
        }
        assert len(descriptors) == 4

    def test_key_separates_strategies(self):
        image = self._image()
        config = itanium2_smp(2, scale=4)
        keys = {
            profile_key(image, config, s)
            for s in ("noprefetch", "excl", "adaptive")
        }
        assert len(keys) == 3
