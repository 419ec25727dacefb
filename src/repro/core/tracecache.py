"""Trace cache and code deployment (paper §1, §3).

"Optimized binary traces are stored in a trace cache in the same
address space as the binary program being optimized.  The binary
program is then patched and redirected to the optimized traces during
the execution."

Deployment protocol (safe under concurrent execution):

1. the loop body is copied into the trace cache and the rewrites are
   applied to the *copy*; loop-internal branch targets are remapped;
2. an exit branch back to the instruction after the original loop is
   appended;
3. the original loop-head bundle is atomically replaced by a single
   branch to the trace.  A thread still running inside the original
   body finishes its iteration, takes the back branch to the head, and
   lands in the trace; since the trace's first bundle is a copy of the
   original head, no instruction is lost.  Register state (rotation,
   LC/EC, predicates) is position-compatible because the trace is a
   structural copy.

Deployment is **transactional**: the image version is snapshotted
before the trace is built and re-checked before redirection (a trace
built against a stale image must never go live), and the redirect is
verified after the write against both the intended bundle and the
patch journal.  Any failure reverts the head bundle from the journal,
reclaims the appended trace bundles, and surfaces a
:class:`~repro.errors.TraceCacheError` — the program keeps running the
unmodified original, which is always correct.

Rollback restores the original head bundle from the patch journal
(re-adaptation, §1 "Continuous Binary Re-Adaptation") and is
**idempotent**: rolling back an already-inactive deployment is a
recorded no-op, so the pending-evaluation and phase-change paths can
never race each other into an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar

from ..errors import TraceCacheError
from ..isa.binary import BinaryImage, Patch
from ..isa.bundle import BUNDLE_BYTES, Bundle
from ..isa.instructions import Instruction, Op, nop
from .opts import REWRITES
from .profiler import COUNT, Record, one_of
from .tracesel import LoopTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector

__all__ = ["TraceCache", "Deployment", "TraceVersion", "VersionSet", "UNTOUCHED"]

#: Base address of the trace cache segment.
TRACE_BASE = 0x5000_0000

#: The pseudo-version meaning "the original, unmodified loop is live".
UNTOUCHED = "untouched"


def _branch_to(target: int) -> Bundle:
    """The one-bundle unconditional branch (head redirect, trace exit)."""
    return Bundle([nop("M"), nop("I"), Instruction(Op.BR, imm=target, unit="B")])


@dataclass
class Deployment:
    """One deployed optimized trace."""

    loop: LoopTrace
    entry: int                  # trace-cache address of the optimized body
    optimization: str
    head_patch: Patch           # journal entry for the redirection patch
    n_rewrites: int
    active: bool = True

    #: "What was deployed", spelt once: the checkpoint state's
    #: ``deployments``, the journal's ``txn`` records, the warm redeploy
    #: loop and the profile database's loop geometry all carry these
    #: fields under these names.
    RECORD: ClassVar[Record] = Record(
        head=COUNT, back_branch=COUNT, hotness=COUNT,
        optimization=one_of(REWRITES), n_rewrites=COUNT,
    )

    def record(self) -> dict:
        loop = self.loop
        values = (loop.head, loop.back_branch, loop.hotness, self.optimization, self.n_rewrites)
        return dict(zip(self.RECORD.fields, values))

    @staticmethod
    def loop_of(record: dict, image: BinaryImage) -> LoopTrace:
        """The loop a (loaded) record names, re-read from ``image``."""
        return LoopTrace.scan(image, record["head"], record["back_branch"], record["hotness"])


@dataclass
class TraceVersion:
    """One resident optimized copy of a loop body.

    ``source`` holds the original program bundles the copy was built
    from; a redeploy may reuse the resident copy only while the program
    range still equals it bundle-for-bundle (otherwise the trace would
    encode stale code).
    """

    optimization: str
    entry: int                  # trace-cache address of this copy
    n_rewrites: int
    n_bundles: int              # body + exit-branch bundle
    source: tuple               # Bundle objects of [head, end_bundle]
    last_used: int = 0          # activation clock tick (cold-first eviction)


@dataclass
class VersionSet:
    """All resident versions of one loop and which one is live.

    ``flips`` counts live-version transitions after the initial
    deployment — each phase-driven redirect (to another optimization or
    back to the untouched original) is one flip.  ``reuses`` counts
    redeploys served from a resident copy instead of a fresh build.
    """

    loop: LoopTrace
    versions: dict = field(default_factory=dict)  # optimization -> TraceVersion
    active: str = UNTOUCHED
    ever_active: bool = False
    flips: int = 0
    reuses: int = 0


class TraceCache:
    """Holds optimized traces; performs deployment and rollback."""

    def __init__(
        self,
        capacity_bundles: int = 4096,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.image = BinaryImage(TRACE_BASE)
        self.capacity = capacity_bundles
        self.faults = faults
        self.deployments: list[Deployment] = []
        #: loop head -> resident optimized versions (multi-version
        #: dispatch: untouched / noprefetch / excl stay resident and a
        #: phase flip re-redirects instead of rebuilding the trace)
        self.version_sets: dict[int, VersionSet] = {}
        #: recorded transactional recoveries and idempotent no-ops, in
        #: order; surfaced on the COBRA report
        self.recovery_log: list[str] = []
        #: bundles reclaimed by transactional aborts (image.truncate);
        #: surfaced on the COBRA report
        self.reclaimed_bundles = 0
        #: persistence manager (:mod:`repro.persist`); wired by the
        #: framework after construction, ``None`` = no journaling
        self.persist = None
        #: resource governor (:mod:`repro.governor`); wired by the
        #: framework after construction, ``None`` = hard-refuse at
        #: capacity exactly as before
        self.governor = None
        #: activation clock for cold-first eviction ordering
        self._use_clock = 0

    @property
    def used_bundles(self) -> int:
        return len(self.image)

    @property
    def active_bundles(self) -> int:
        """Bundles held by *live* versions — the irreducible footprint.

        Cold resident copies are reclaimable by eviction at any time;
        only the live versions pin capacity (a thread may be executing
        them), so this is what the governor's trace pressure measures.
        """
        return sum(
            vs.versions[vs.active].n_bundles
            for vs in self.version_sets.values()
            if vs.active != UNTOUCHED and vs.active in vs.versions
        )

    def active_deployment(self, head: int) -> Deployment | None:
        """The live deployment for ``head``, or ``None``."""
        for d in self.deployments:
            if d.active and d.loop.head == head:
                return d
        return None

    def version_report(self) -> list[dict]:
        """Per-loop resident versions, active one, and flip counts."""
        out = []
        for head in sorted(self.version_sets):
            vs = self.version_sets[head]
            out.append(
                {
                    "head": head,
                    "versions": sorted(vs.versions),
                    "active": vs.active,
                    "flips": vs.flips,
                    "reuses": vs.reuses,
                }
            )
        return out

    def evict_cold(self, target_used: int) -> list[tuple[int, str, int]]:
        """Free inactive resident copies, coldest first, until
        ``used_bundles <= target_used`` (or nothing evictable remains).

        Returns ``(head, optimization, n_bundles)`` per victim.  Victim
        order is a pure function of cache state — ``(last_used, head,
        optimization)`` ascending — so the same pressure schedule evicts
        the same victims in the same order at any worker count.  Only
        *inactive* versions are candidates: the live copy of a loop is
        irreducible (a thread may be executing it), and the image never
        reuses freed holes, so no stale redirect can alias an evicted
        address.
        """
        victims: list[tuple[int, str, int]] = []
        if self.used_bundles <= target_used:
            return victims
        candidates = sorted(
            (version.last_used, head, opt)
            for head, vs in self.version_sets.items()
            for opt, version in vs.versions.items()
            if opt != vs.active
        )
        for _, head, opt in candidates:
            if self.used_bundles <= target_used:
                break
            vs = self.version_sets[head]
            version = vs.versions.pop(opt)
            self.image.free(version.entry, version.n_bundles)
            self.recovery_log.append(
                f"evict: cold {opt} trace for loop {head:#x} freed "
                f"({version.n_bundles} bundle(s))"
            )
            victims.append((head, opt, version.n_bundles))
        return victims

    def overlaps_active(self, head: int, end: int) -> bool:
        """Would a [head, end] deployment overlap an active one?"""
        return any(
            d.active and head <= d.loop.end_bundle and d.loop.head <= end
            for d in self.deployments
        )

    def deploy(
        self,
        program: BinaryImage,
        loop: LoopTrace,
        rewrite: Callable[[Instruction], Instruction | None],
        optimization: str,
    ) -> Deployment:
        """Copy, rewrite, and redirect one loop; return the deployment.

        ``rewrite`` maps each instruction to a replacement (or ``None``
        to keep it).  The rewrite count is recorded for reporting.
        All-or-nothing: on any verification failure the program image
        and the trace cache are byte-identical to their pre-call state.
        """
        if self.overlaps_active(loop.head, loop.end_bundle):
            raise TraceCacheError(
                f"loop [{loop.head:#x}, {loop.end_bundle:#x}] overlaps an active trace"
            )
        fault = self.faults.patch_fault() if self.faults is not None else None
        if fault is not None and fault.kind == "cache_exhaustion":
            # transient exhaustion: this attempt sees a full cache
            self.faults.detected(
                fault, f"deploy of loop {loop.head:#x} refused: cache exhausted"
            )
            self.recovery_log.append(
                f"exhaustion: deploy of loop {loop.head:#x} refused"
            )
            raise TraceCacheError(
                f"trace cache full ({self.used_bundles}/{self.capacity} bundles; "
                "injected exhaustion)"
            )
        n_bundles = loop.n_bundles + 1  # + exit branch bundle
        if self.governor is not None and not self.governor.admit_deploy(
            self.active_bundles, n_bundles
        ):
            self.governor.note_refused(loop.head, n_bundles)
            raise TraceCacheError(
                f"deploy of loop {loop.head:#x} refused: live trace usage "
                f"{self.active_bundles}+{n_bundles} exceeds governed headroom "
                f"(budget {self.governor.trace_budget})"
            )
        # multi-version dispatch: while a structurally fresh copy of this
        # loop under this optimization is still resident, only the head
        # redirect needs to be (re)written
        resident = self._fresh_resident(program, loop, optimization, fault)
        built_fresh = resident is None
        if built_fresh:
            budget = self.capacity
            if self.governor is not None:
                budget = min(budget, self.governor.trace_budget)
                if self.used_bundles + n_bundles > budget:
                    # cold-first eviction instead of permanent refusal:
                    # free inactive resident copies until the trace fits
                    evicted = self.evict_cold(budget - n_bundles)
                    if evicted:
                        self.governor.note_evicted(evicted)
            if self.used_bundles + n_bundles > budget:
                if self.governor is not None:
                    self.governor.note_refused(loop.head, n_bundles)
                raise TraceCacheError(
                    f"trace cache full ({self.used_bundles}/{budget} bundles)"
                )

            snapshot_version = program.version
            entry = self.image.here()
            offset = entry - loop.head
            lo, hi = loop.head, loop.end_bundle
            n_rewrites = 0
            source = tuple(bundle for _, bundle in loop.bundles(program))

            for bundle in source:
                new_slots = []
                for instr in bundle.slots:
                    replacement = rewrite(instr)
                    if replacement is not None and replacement != instr:
                        n_rewrites += 1
                        instr = replacement
                    if instr.is_branch and isinstance(instr.imm, int) and lo <= instr.imm <= hi:
                        # loop-internal target: remap into the trace cache
                        instr = instr.clone(imm=instr.imm + offset)
                    new_slots.append(instr)
                self.image.append(Bundle(new_slots, bundle.template))

            # exit branch: fall-through out of the loop returns to the program
            self.image.append(_branch_to(hi + BUNDLE_BYTES))

            if fault is not None and fault.kind == "stale_image":
                # the program image moved on while the trace was being
                # built; the snapshot the trace encodes is one version old
                snapshot_version -= 1
            if program.version != snapshot_version:
                # redirecting now would publish a trace copied from a stale
                # image: abort, reclaim the trace, keep the original live
                self.reclaimed_bundles += self.image.truncate(entry)
                if fault is not None:
                    self.faults.detected(
                        fault, f"stale trace for loop {loop.head:#x} discarded"
                    )
                self.recovery_log.append(
                    f"stale: trace for loop {loop.head:#x} discarded before redirect"
                )
                raise TraceCacheError(
                    f"image version changed during deployment of loop {loop.head:#x} "
                    "(stale trace discarded)"
                )
            resident = TraceVersion(optimization, entry, n_rewrites, n_bundles, source)

        # atomic redirection: one bundle replaced by a branch to the trace
        entry = resident.entry
        redirect = _branch_to(entry)
        written = redirect
        if fault is not None and fault.kind == "torn_patch":
            written = self._tear(program.fetch_bundle(loop.head), redirect, entry)
            if written is redirect:
                # the torn prefix happened to equal the full bundle
                self.faults.tolerated(fault, "torn write landed byte-identical")
        program.patch_bundle(loop.head, written, reason=f"cobra:{optimization}")
        head_patch = program.patches[-1]

        # verify-after-write against the journal: what the image now
        # holds must be both what we intended and what was journaled
        observed = program.fetch_bundle(loop.head)
        if observed != redirect or head_patch.new != observed:
            program.revert_patch(head_patch)
            if built_fresh:
                # a reused resident copy stays resident: only the
                # freshly appended one is reclaimed
                self.reclaimed_bundles += self.image.truncate(entry)
            if fault is not None and fault.kind == "torn_patch":
                self.faults.detected(
                    fault, f"torn redirect at {loop.head:#x} reverted"
                )
            self.recovery_log.append(
                f"torn: redirect at {loop.head:#x} reverted from journal"
            )
            raise TraceCacheError(
                f"torn redirect write at {loop.head:#x} detected and reverted"
            )

        deployment = Deployment(loop, entry, optimization, head_patch, resident.n_rewrites)
        self.deployments.append(deployment)
        self._activate(loop, resident, built_fresh)
        if self.persist is not None:
            # journaled only after the verify-after-write passed: the
            # WAL records committed transactions, not attempts
            self.persist.log_txn("deploy", **deployment.record())
        return deployment

    def _fresh_resident(
        self,
        program: BinaryImage,
        loop: LoopTrace,
        optimization: str,
        fault,
    ) -> TraceVersion | None:
        """A resident version of this loop that is still safe to reuse.

        Safe means the program range ``[head, end_bundle]`` is
        bundle-for-bundle identical to the source the copy was built
        from.  A mismatched (stale) resident version is dropped from
        the set so the caller falls through to a fresh build.  An
        injected ``stale_image`` fault refuses the attempt outright —
        all-or-nothing, exactly like the fresh-build abort: nothing in
        the cache or the image changes, and the next attempt re-checks
        real freshness.
        """
        vs = self.version_sets.get(loop.head)
        if vs is None:
            return None
        version = vs.versions.get(optimization)
        if version is None:
            return None
        if fault is not None and fault.kind == "stale_image":
            self.faults.detected(
                fault, f"stale signal under resident trace of loop {loop.head:#x}"
            )
            self.recovery_log.append(
                f"stale: redeploy of loop {loop.head:#x} refused (resident trace kept)"
            )
            raise TraceCacheError(
                f"image version changed during redeployment of loop {loop.head:#x} "
                "(attempt refused, resident trace kept)"
            )
        if tuple(bundle for _, bundle in loop.bundles(program)) != version.source:
            del vs.versions[optimization]
            self.recovery_log.append(
                f"stale: resident {optimization} trace for loop {loop.head:#x} rebuilt"
            )
            return None
        return version

    def _activate(
        self, loop: LoopTrace, version: TraceVersion, built_fresh: bool
    ) -> None:
        """Record ``version`` as the live one for its loop."""
        vs = self.version_sets.get(loop.head)
        if vs is None:
            vs = VersionSet(loop=loop)
            self.version_sets[loop.head] = vs
        vs.versions[version.optimization] = version
        self._use_clock += 1
        version.last_used = self._use_clock
        if vs.ever_active and vs.active != version.optimization:
            vs.flips += 1
        vs.active = version.optimization
        vs.ever_active = True
        if not built_fresh:
            vs.reuses += 1

    @staticmethod
    def _tear(old: Bundle, redirect: Bundle, entry: int) -> Bundle:
        """A redirect write that stopped partway: old/new slots mixed."""
        candidates = (
            Bundle([old.slots[0], redirect.slots[1], redirect.slots[2]]),
            Bundle([redirect.slots[0], old.slots[1], redirect.slots[2]]),
            Bundle([redirect.slots[0], redirect.slots[1], old.slots[2]], old.template),
        )
        for torn in candidates:
            if torn != redirect:
                return torn
        return redirect

    def rollback(self, program: BinaryImage, deployment: Deployment) -> bool:
        """Undo a deployment (the trace becomes unreachable).

        Idempotent: rolling back an already-inactive deployment is a
        recorded no-op, never an error — the pending-evaluation and
        phase-change paths may both decide to revert the same trace.
        Returns ``True`` when this call performed the revert.
        """
        if not deployment.active:
            self.recovery_log.append(
                f"rollback-noop: loop {deployment.loop.head:#x} already inactive"
            )
            return False
        program.revert_patch(deployment.head_patch)
        deployment.active = False
        vs = self.version_sets.get(deployment.loop.head)
        if vs is not None and vs.active != UNTOUCHED:
            # the untouched original goes live again: that is a version
            # flip like any other (the optimized copy stays resident
            # for a cheap re-dispatch if the phase returns)
            vs.flips += 1
            vs.active = UNTOUCHED
        if self.persist is not None:
            self.persist.log_txn("rollback", **deployment.record())
        return True
