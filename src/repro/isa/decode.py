"""Decoded-bundle cache for the interpreter hot path.

The cores used to re-read :class:`~repro.isa.instructions.Instruction`
attribute by attribute on every fetch of every bundle, and to scan their
image list linearly per fetch.  Both costs scale with *executed*
bundles, not with code size — exactly the monitoring-overhead trap the
paper budgets against (§3, §5).

:class:`DecodeCache` decodes each bundle **once** into executable form
``(n_slots, entries)`` where each entry is

    ``(idx, op, qp, r1, r2, r3, r4, imm, excl)``

for the non-NOP slots only (see :func:`decode_bundle`), and merges all
attached images into a single ``addr -> decoded`` dict, so a fetch is
one dict lookup and executing a slot is one tuple unpack.

Correctness under runtime patching
----------------------------------

COBRA rewrites code while it runs (lfetch→nop, lfetch→lfetch.excl,
trace-entry redirection, rollback).  The cache therefore keys every
entry by the bundle's *content bytes* (:func:`encode_bundle`) and
invalidates through the image's patch journal:

* every :class:`~repro.isa.binary.BinaryImage` mutation bumps
  ``image.version``;
* when the version delta equals the journal delta, only the journaled
  addresses are re-decoded (patch / rollback — the common runtime case);
* any other delta (append, link, truncate, free) rebuilds that image's
  entries and drops the addresses it no longer holds.

Every core of a machine attaches the same images, so the decode of one
bundle is computed once and kept on the image (``image.decode_memo``);
each core's cache installs the shared tuple under its own ``map`` /
``epoch`` / ``decodes``.  :meth:`DecodeCache.verify` never consults the
memo — it re-decodes from the bundles.

``sync()`` is called once per scheduler slice; when nothing changed it
is a handful of int compares.  Decode-time operand validation replaces
the per-access register range checks the interpreter used to pay for:
a slot whose register fields are out of range never enters the cache.
"""

from __future__ import annotations

from ..errors import RegisterError
from .binary import BinaryImage
from .bundle import Bundle
from .instructions import Instruction, Op, operands

__all__ = [
    "DecodeCache",
    "DecodedSlot",
    "decode_bundle",
    "decode_instruction",
    "encode_bundle",
]

#: Decoded slot layout: (op, qp, r1, r2, r3, r4, imm, excl).
DecodedSlot = tuple

_NOP = int(Op.NOP)

#: Opcodes whose r1/r2 name predicate registers (the compares).
_PR_TARGET_OPS = frozenset(int(op) for op in Op if "p1" in operands(op))


def decode_instruction(instr: Instruction) -> DecodedSlot:
    """One instruction -> the flat tuple the interpreter executes.

    Validates operand ranges once, so the interpreter can index the
    register files without per-access bounds checks (writes to the
    hardwired registers r0/f0/f1/p0 are still guarded at execution).
    """
    op = int(instr.op)
    qp = instr.qp
    if not 0 <= qp < 64:
        raise RegisterError(f"p{qp} out of range")
    if op in _PR_TARGET_OPS:
        if not 0 <= instr.r1 < 64:
            raise RegisterError(f"p{instr.r1} out of range")
        if not 0 <= instr.r2 < 64:
            raise RegisterError(f"p{instr.r2} out of range")
    for reg in (instr.r1, instr.r2, instr.r3, instr.r4):
        if not 0 <= reg < 128:
            raise RegisterError(f"r{reg} out of range")
    return (op, qp, instr.r1, instr.r2, instr.r3, instr.r4, instr.imm, instr.excl)


def decode_bundle(bundle: Bundle) -> tuple[int, tuple[DecodedSlot, ...]]:
    """One bundle -> ``(n_slots, entries)`` in executable form.

    ``entries`` holds only the non-NOP slots, each prefixed with its slot
    index: ``(idx, op, qp, r1, r2, r3, r4, imm, excl)``.  The interpreter
    never iterates (or unpacks) NOP padding, but still retires it:
    ``n_slots`` is the bundle's architectural slot count, and the index
    prefix reconstructs the per-slot PC for the BTB/DEAR and for partial
    bundles.  NOP slots are still validated at decode time.
    """
    entries = []
    for idx, instr in enumerate(bundle.slots):
        decoded = decode_instruction(instr)
        if decoded[0] != _NOP:
            entries.append((idx,) + decoded)
    return (len(bundle.slots), tuple(entries))


def encode_bundle(bundle: Bundle) -> bytes:
    """Deterministic byte serialization of a bundle's architectural content.

    This is the cache key: two bundles encode equal iff a fresh decode
    of them is indistinguishable to the interpreter (plus template and
    assembly metadata, so patch provenance is never conflated).
    """
    parts = [bundle.template.encode()]
    for instr in bundle.slots:
        parts.append(
            repr(
                (
                    int(instr.op), instr.qp, instr.r1, instr.r2, instr.r3,
                    instr.r4, instr.imm, instr.hint, instr.excl, instr.unit,
                    instr.label,
                )
            ).encode()
        )
    return b"|".join(parts)


class DecodeCache:
    """Journal-invalidated decoded view of a set of binary images.

    Images must occupy disjoint address ranges (the machine hands out
    disjoint text segments); on overlap the most recently synced image
    wins, matching the old last-image-loaded fetch order.
    """

    __slots__ = ("map", "keys", "epoch", "decodes", "_images", "_seen")

    def __init__(self) -> None:
        #: bundle address -> (n_slots, entries) (the interpreter's view)
        self.map: dict[int, tuple] = {}
        #: bundle address -> content key bytes (audit / property tests)
        self.keys: dict[int, bytes] = {}
        #: bumped whenever sync() installs or drops anything — consumers
        #: holding derived views (compiled traces) revalidate on change
        self.epoch = 0
        #: bundles sync() (re)installed into ``map``; a fetch served from
        #: ``map`` costs none, so the cache hit rate over a run is
        #: ``1 - decodes / bundles_fetched``.  The decode itself is shared
        #: through ``image.decode_memo``, the count stays per core.
        self.decodes = 0
        self._images: list[BinaryImage] = []
        #: per image: [version seen, journal length seen, addresses served]
        self._seen: list[list] = []

    # -- wiring ------------------------------------------------------------

    def attach(self, image: BinaryImage) -> None:
        """Start serving ``image`` (idempotent per image object)."""
        for known in self._images:
            if known is image:
                return
        self._images.append(image)
        self._seen.append([-1, 0, set()])  # forces a full build on first sync

    def images(self) -> list[BinaryImage]:
        return list(self._images)

    # -- coherence with the images ----------------------------------------

    def sync(self) -> dict[int, tuple]:
        """Bring the cache up to date; return the merged decoded map.

        Cheap when nothing changed: one int compare per image.
        """
        decoded_map = self.map
        keys = self.keys
        installed = 0
        dropped = False
        for idx, image in enumerate(self._images):
            seen = self._seen[idx]
            version = image.version
            if version == seen[0]:
                continue
            bundles = image.bundles
            memo = image.decode_memo
            journal = image.patches
            n_journal = len(journal)
            if seen[0] >= 0 and version - seen[0] == n_journal - seen[1]:
                # Journaled invalidation: every mutation since the last
                # sync was a patch or rollback, so only the journaled
                # bundle addresses can have changed.
                stale = [(p.address, bundles[p.address]) for p in journal[seen[1]:]]
            else:
                # Structural change (first sync, append, link, truncate,
                # free): rebuild this image's entries wholesale and stop
                # serving the addresses it no longer holds.
                for addr in seen[2] - bundles.keys():
                    decoded_map.pop(addr, None)
                    keys.pop(addr, None)
                    memo.pop(addr, None)
                    dropped = True
                seen[2] = set(bundles)
                stale = bundles.items()
            for addr, bundle in stale:
                shared = memo.get(addr)
                if shared is None or shared[0] is not bundle:
                    shared = memo[addr] = (
                        bundle, decode_bundle(bundle), encode_bundle(bundle)
                    )
                decoded_map[addr] = shared[1]
                keys[addr] = shared[2]
                installed += 1
            seen[0] = version
            seen[1] = n_journal
        if installed or dropped:
            self.decodes += installed
            self.epoch += 1
        return decoded_map

    # -- audit --------------------------------------------------------------

    def bytes_at(self, addr: int) -> bytes | None:
        """Content key the cache is serving for ``addr`` (post-sync)."""
        return self.keys.get(addr)

    def verify(self) -> list[str]:
        """Compare every served entry against a fresh decode.

        Returns human-readable mismatch descriptions (empty = the cache
        is byte-identical to re-decoding the images from scratch).
        """
        self.sync()
        problems: list[str] = []
        fresh_addrs: set[int] = set()
        for image in self._images:
            for addr, bundle in image.bundles.items():
                fresh_addrs.add(addr)
                if self.map.get(addr) != decode_bundle(bundle):
                    problems.append(f"decoded slots stale at {addr:#x}")
                if self.keys.get(addr) != encode_bundle(bundle):
                    problems.append(f"content key stale at {addr:#x}")
        for addr in self.map:
            if addr not in fresh_addrs:
                problems.append(f"cache serves {addr:#x} but no image holds it")
        return problems
