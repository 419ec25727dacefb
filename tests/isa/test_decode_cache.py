"""Decoded-bundle cache: journaled invalidation must track the image.

The property test drives arbitrary patch / rollback sequences through a
binary image and checks that the cache, synced at arbitrary points,
always serves entries identical to a fresh decode of the current bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.binary import BinaryImage
from repro.isa.bundle import Bundle
from repro.isa.decode import DecodeCache, decode_bundle
from repro.isa.instructions import Instruction, Op, nop

BASE = 0x1000
N_BUNDLES = 6


def _bundle(*instrs):
    slots = list(instrs)
    while len(slots) < 3:
        slots.append(nop("I"))
    return Bundle(slots)


def _image():
    image = BinaryImage(BASE)
    for i in range(N_BUNDLES):
        image.append(
            _bundle(
                Instruction(Op.ADD, r1=1 + i, r2=2, r3=3),
                Instruction(Op.MOVI, r1=4, imm=i),
            )
        )
    return image


def _assert_cache_fresh(cache, image):
    assert cache.verify() == []
    for addr, bundle in image.iter_bundles():
        assert cache.map[addr] == decode_bundle(bundle)


class TestDecodeCacheBasics:
    def test_initial_sync_decodes_every_bundle(self):
        image = _image()
        cache = DecodeCache()
        cache.attach(image)
        cache.sync()
        _assert_cache_fresh(cache, image)

    def test_patch_invalidates_only_on_sync(self):
        image = _image()
        cache = DecodeCache()
        cache.attach(image)
        cache.sync()
        stale = cache.map[BASE]
        image.patch_slot(BASE, 0, nop("M"), reason="test")
        assert cache.map[BASE] is stale  # nothing moves until sync
        cache.sync()
        _assert_cache_fresh(cache, image)
        assert cache.map[BASE] != stale

    def test_rollback_restores_original_entries(self):
        image = _image()
        cache = DecodeCache()
        cache.attach(image)
        cache.sync()
        original = cache.map[BASE + 16]
        image.patch_slot(BASE + 16, 1, nop("M"), reason="deploy")
        cache.sync()
        image.revert_patch(image.patches[-1])
        cache.sync()
        assert cache.map[BASE + 16] == original
        _assert_cache_fresh(cache, image)

    def test_append_after_sync_triggers_full_rebuild(self):
        image = _image()
        cache = DecodeCache()
        cache.attach(image)
        cache.sync()
        # append bumps the version without a journal entry, so the
        # journaled shortcut cannot apply
        image.append(_bundle(Instruction(Op.ADD, r1=9, r2=9, r3=9)))
        cache.sync()
        _assert_cache_fresh(cache, image)


# operation alphabet for the property test: patch one of a few valid
# instructions into a random slot, roll back the newest live patch, or
# sync the cache mid-sequence (exercising the journal replay window)
_PATCH_INSTRS = (
    nop("M"),
    nop("I"),
    Instruction(Op.ADD, r1=5, r2=6, r3=7),
    Instruction(Op.MOVI, r1=8, imm=42),
    Instruction(Op.SUB, r1=9, r2=10, r3=11),
)

_OP = st.one_of(
    st.tuples(
        st.just("patch"),
        st.integers(0, N_BUNDLES - 1),
        st.integers(0, 2),
        st.integers(0, len(_PATCH_INSTRS) - 1),
    ),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("sync")),
)


class TestDecodeCacheProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_OP, max_size=40))
    def test_arbitrary_patch_rollback_sequences(self, ops):
        image = _image()
        cache = DecodeCache()
        cache.attach(image)
        cache.sync()
        live = []  # patches applied and not yet reverted, LIFO
        for op in ops:
            if op[0] == "patch":
                _, bundle_idx, slot, instr_idx = op
                addr = BASE + 16 * bundle_idx
                image.patch_slot(
                    addr, slot, _PATCH_INSTRS[instr_idx], reason="prop"
                )
                live.append(image.patches[-1])
            elif op[0] == "rollback":
                if live:
                    image.revert_patch(live.pop())
            else:
                cache.sync()
                _assert_cache_fresh(cache, image)
        cache.sync()
        _assert_cache_fresh(cache, image)


class TestRemovedBundles:
    """``free``/``truncate`` drop bundles; the cache must stop serving them."""

    def _appended(self):
        image = BinaryImage(0x4000_0000)
        for i in range(4):
            image.append(_bundle(Instruction(Op.MOVI, r1=4, imm=i)))
        cache = DecodeCache()
        cache.attach(image)
        cache.sync()
        return image, cache

    def test_freed_bundle_is_no_longer_served(self):
        image, cache = self._appended()
        epoch = cache.epoch
        assert image.free(image.base + 0x10, 1) == 1
        assert image.base + 0x10 not in cache.sync()
        assert image.base + 0x10 not in cache.keys
        assert cache.verify() == []
        assert cache.epoch > epoch  # derived views (compiled traces) revalidate

    def test_truncated_tail_is_no_longer_served(self):
        image, cache = self._appended()
        assert image.truncate(image.base + 0x20) == 2
        assert sorted(cache.sync()) == [image.base, image.base + 0x10]
        assert cache.verify() == []

    def test_image_emptied_by_free_still_bumps_the_epoch(self):
        image, cache = self._appended()
        epoch = cache.epoch
        image.free(image.base, 4)
        assert cache.sync() == {}
        assert cache.epoch > epoch


# -- shared decode: one image, several cores ---------------------------------

_SHARED_OP = st.one_of(
    st.tuples(st.just("append"), st.booleans()),
    st.tuples(st.just("link")),
    st.tuples(
        st.just("patch_slot"), st.integers(0, 63), st.integers(0, 1),
        st.integers(0, len(_PATCH_INSTRS) - 1),
    ),
    st.tuples(st.just("patch_bundle"), st.integers(0, 63), st.integers(0, 7)),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("truncate"), st.integers(0, 63)),
    st.tuples(st.just("free"), st.integers(0, 63), st.integers(1, 3)),
    st.tuples(st.just("lazy-sync")),
)


class TestSharedDecodeProperty:
    """Every core's cache rides the image's one memoised decode.

    The memo must miss after anything that changes a bundle — ``link()``
    rewrites slots in place, patches and rollbacks swap the Bundle — and
    hold nothing the image dropped, whichever cache looks first.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.lists(_SHARED_OP, max_size=40))
    def test_any_mutation_sequence_keeps_every_cache_fresh(self, ops):
        image = _image()
        image.mark("top", BASE)
        eager = [DecodeCache(), DecodeCache()]   # two cores: sync every step
        lazy = DecodeCache()                     # a third syncs when drawn
        for cache in (*eager, lazy):
            cache.attach(image)
        live = []  # journaled patches not yet reverted, LIFO
        for op in ops:
            addrs = sorted(image.bundles)
            pick = addrs[op[1] % len(addrs)] if addrs and len(op) > 1 else None
            if op[0] == "append":
                tail = (
                    Instruction(Op.BR_COND, qp=6, label="top", unit="B")
                    if op[1] else nop("I")
                )
                # the branch sits in slot 2; patches only touch slots 0 and 1
                image.append(
                    _bundle(Instruction(Op.MOVI, r1=4, imm=len(addrs)), nop("I"), tail)
                )
            elif op[0] == "link":
                image.link()
            elif op[0] == "patch_slot" and addrs:
                image.patch_slot(pick, op[2], _PATCH_INSTRS[op[3]], reason="prop")
                live.append(image.patches[-1])
            elif op[0] == "patch_bundle" and addrs:
                image.patch_bundle(
                    pick, _bundle(Instruction(Op.MOVI, r1=5, imm=op[2])), reason="prop"
                )
                live.append(image.patches[-1])
            elif op[0] == "rollback" and live:
                image.revert_patch(live.pop())
            elif op[0] == "truncate" and addrs:
                image.truncate(pick)
            elif op[0] == "free" and addrs:
                image.free(pick, op[2])
            elif op[0] == "lazy-sync":
                assert lazy.verify() == []
            live = [p for p in live if p.address in image.bundles]
            for cache in eager:
                assert cache.verify() == []
            assert set(image.decode_memo) <= set(image.bundles)
        for cache in (*eager, lazy):
            assert cache.verify() == []
        # the cores share one decode, they do not each hold a copy
        for addr in image.bundles:
            assert eager[0].map[addr] is eager[1].map[addr] is lazy.map[addr]
            assert eager[0].keys[addr] is lazy.keys[addr]

    def test_memo_dies_with_the_image(self):
        import gc

        sentinel = 0xDEC0DE
        image = BinaryImage(BASE)
        image.append(_bundle(Instruction(Op.MOVI, r1=4, imm=sentinel)))
        cache = DecodeCache()
        cache.attach(image)
        cache.sync()

        def survivors():
            return [
                o for o in gc.get_objects()
                if isinstance(o, Bundle) and o.slots[0].imm == sentinel
            ]

        assert len(survivors()) == 1
        del image, cache
        gc.collect()
        assert survivors() == []
