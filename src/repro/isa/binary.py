"""Patchable binary images.

A :class:`BinaryImage` is the in-memory executable the simulated cores
fetch from and that COBRA patches at runtime.  Bundles live at 16-byte-
aligned addresses; a program counter is ``bundle_address + slot`` with
``slot`` in ``{0, 1, 2}``.  Branch targets are always slot 0 of a
bundle, as on IA-64.

The image records:

* ``labels`` — symbol table (entry points, loop heads);
* ``regions`` — named address ranges (loop bodies emitted by the
  compiler; used by tests and Table 1, *not* by COBRA, which discovers
  loops from BTB profiles);
* a patch journal, so tests can assert exactly what COBRA rewrote and
  rollback can restore original bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import BinaryError
from .bundle import BUNDLE_BYTES, Bundle
from .instructions import Instruction, Op

__all__ = ["BinaryImage", "Patch", "pc_bundle", "pc_slot"]

#: Default base address for program text.
TEXT_BASE = 0x4000_0000


def pc_bundle(pc: int) -> int:
    """Bundle address containing ``pc``."""
    return pc & ~(BUNDLE_BYTES - 1)


def pc_slot(pc: int) -> int:
    """Slot index (0..2) of ``pc`` within its bundle."""
    return pc & (BUNDLE_BYTES - 1)


@dataclass(frozen=True)
class Patch:
    """Journal entry for one runtime code modification."""

    address: int
    slot: int | None          # None -> whole bundle replaced
    old: Bundle
    new: Bundle
    reason: str = ""


class BinaryImage:
    """Bundles, symbols, and a patch journal."""

    def __init__(self, base: int = TEXT_BASE) -> None:
        if base % BUNDLE_BYTES:
            raise BinaryError("base address must be bundle-aligned")
        self.base = base
        self.bundles: dict[int, Bundle] = {}
        self.labels: dict[str, int] = {}
        self.regions: dict[str, tuple[int, int]] = {}
        self.patches: list[Patch] = []
        #: bumped on every mutation; decode caches compare it against the
        #: journal length to distinguish patches from structural changes
        self.version = 0
        #: addr -> (bundle, decoded, key): the decode of ``bundle`` shared
        #: by every core's DecodeCache (filled by :mod:`repro.isa.decode`).
        #: An entry is live while ``bundles[addr] is bundle`` and the
        #: bundle's slots are unchanged: patches and rollbacks install a
        #: new Bundle object, ``link()`` (the one in-place slot rewrite)
        #: clears the table, a syncing cache prunes what ``truncate`` /
        #: ``free`` removed, and it dies with the image.
        self.decode_memo: dict[int, tuple] = {}
        self._next = base
        self._linked = False

    # -- construction -----------------------------------------------------

    def append(self, bundle: Bundle) -> int:
        """Place ``bundle`` at the next free address; return the address."""
        addr = self._next
        self.bundles[addr] = bundle
        self.version += 1
        self._next += BUNDLE_BYTES
        return addr

    def here(self) -> int:
        """Address the next appended bundle will receive."""
        return self._next

    def truncate(self, addr: int) -> int:
        """Discard every bundle at or above ``addr``; return the count.

        Supports all-or-nothing trace deployment: a transactional
        deploy that fails verification reclaims the bundles it appended
        instead of leaking trace-cache capacity.  Only tail bundles can
        go (``addr`` must lie between ``base`` and the append cursor);
        nothing may reference them yet — the caller guarantees no
        redirect was left pointing into the discarded range.
        """
        if addr % BUNDLE_BYTES:
            raise BinaryError(f"truncate address {addr:#x} not bundle-aligned")
        if not self.base <= addr <= self._next:
            raise BinaryError(
                f"truncate address {addr:#x} outside [{self.base:#x}, {self._next:#x}]"
            )
        removed = 0
        for address in range(addr, self._next, BUNDLE_BYTES):
            if self.bundles.pop(address, None) is not None:
                removed += 1
        self._next = addr
        if removed:
            # structural change (not a journaled patch): decode caches
            # see a version bump without a journal entry and rebuild
            self.version += 1
        return removed

    def free(self, addr: int, n_bundles: int) -> int:
        """Discard ``n_bundles`` bundles starting at ``addr``; return the count.

        Supports governor eviction of cold resident trace versions: the
        hole is never reused (the append cursor does not move back), so
        no later append can alias an address a stale redirect might
        still name — the caller guarantees nothing references the freed
        range (only *inactive* versions are ever evicted).
        """
        if addr % BUNDLE_BYTES:
            raise BinaryError(f"free address {addr:#x} not bundle-aligned")
        removed = 0
        for address in range(addr, addr + n_bundles * BUNDLE_BYTES, BUNDLE_BYTES):
            if self.bundles.pop(address, None) is not None:
                removed += 1
        if removed:
            # structural change (not a journaled patch): decode caches
            # see a version bump without a journal entry and rebuild
            self.version += 1
        return removed

    def mark(self, name: str, addr: int | None = None) -> int:
        """Define label ``name`` at ``addr`` (default: the next address)."""
        if addr is None:
            addr = self._next
        if name in self.labels:
            raise BinaryError(f"duplicate label {name!r}")
        self.labels[name] = addr
        return addr

    def mark_region(self, name: str, start: int, end: int) -> None:
        """Record a named half-open bundle-address range [start, end)."""
        if name in self.regions:
            raise BinaryError(f"duplicate region {name!r}")
        self.regions[name] = (start, end)

    def link(self) -> None:
        """Resolve symbolic branch targets to absolute addresses."""
        for addr, bundle in self.bundles.items():
            for slot, instr in enumerate(bundle.slots):
                if instr.label is None:
                    continue
                target = self.labels.get(instr.label)
                if target is None:
                    raise BinaryError(f"undefined label {instr.label!r} at {addr:#x}")
                bundle.slots[slot] = instr.clone(imm=target, label=None)
        self.decode_memo.clear()
        self.version += 1
        self._linked = True

    # -- fetch --------------------------------------------------------------

    def fetch_bundle(self, addr: int) -> Bundle:
        try:
            return self.bundles[addr]
        except KeyError:
            raise BinaryError(f"no bundle at {addr:#x}") from None

    def fetch(self, pc: int) -> Instruction:
        return self.fetch_bundle(pc_bundle(pc)).slots[pc_slot(pc)]

    def __contains__(self, addr: int) -> bool:
        return addr in self.bundles

    def __len__(self) -> int:
        return len(self.bundles)

    def iter_bundles(self) -> Iterator[tuple[int, Bundle]]:
        return iter(sorted(self.bundles.items()))

    def bundles_in(self, lo: int, hi: int) -> Iterator[tuple[int, Bundle]]:
        """``(address, bundle)`` of every bundle present in ``[lo, hi]``, ascending."""
        for addr in range(lo, hi + 1, BUNDLE_BYTES):
            bundle = self.bundles.get(addr)
            if bundle is not None:
                yield addr, bundle

    # -- runtime patching (COBRA deployment path) ----------------------------

    def patch_slot(self, addr: int, slot: int, instr: Instruction, reason: str = "") -> None:
        """Replace one slot of the bundle at ``addr``.

        Models an atomic store to one syllable; used for in-place rewrites
        such as lfetch -> nop.
        """
        old = self.fetch_bundle(addr)
        new = old.with_slot(slot, instr)
        self.bundles[addr] = new
        self.patches.append(Patch(addr, slot, old, new, reason))
        self.version += 1

    def patch_bundle(self, addr: int, bundle: Bundle, reason: str = "") -> None:
        """Replace a whole bundle (trace-entry redirection)."""
        old = self.fetch_bundle(addr)
        self.bundles[addr] = bundle
        self.patches.append(Patch(addr, None, old, bundle, reason))
        self.version += 1

    def revert_patch(self, patch: Patch) -> None:
        """Undo one journaled patch (adaptive rollback)."""
        current = self.fetch_bundle(patch.address)
        if current != patch.new:
            raise BinaryError(
                f"cannot revert patch at {patch.address:#x}: bundle changed since"
            )
        self.bundles[patch.address] = patch.old
        self.patches.append(
            Patch(patch.address, patch.slot, patch.new, patch.old, f"revert: {patch.reason}")
        )
        self.version += 1

    # -- static analysis ------------------------------------------------------

    def count_ops(self, op: Op, region: tuple[int, int] | None = None) -> int:
        """Static count of ``op`` occurrences (paper Table 1)."""
        lo, hi = region if region else (0, 1 << 62)
        return sum(
            1
            for addr, bundle in self.bundles.items()
            if lo <= addr < hi
            for instr in bundle.slots
            if instr.op is op
        )

    def find_ops(self, op: Op, region: tuple[int, int] | None = None) -> list[tuple[int, int]]:
        """All (bundle address, slot) locations holding ``op``."""
        lo, hi = region if region else (0, 1 << 62)
        return [
            (addr, slot)
            for addr, bundle in sorted(self.bundles.items())
            if lo <= addr < hi
            for slot, instr in enumerate(bundle.slots)
            if instr.op is op
        ]
