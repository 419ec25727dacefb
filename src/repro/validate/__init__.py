"""Correctness validation subsystem.

Mechanical checks that back COBRA's claim that its binary rewrites
are semantics-preserving:

* :mod:`~repro.validate.checker` — a :class:`CoherenceChecker` that
  observes every memory-hierarchy event and asserts the MESI/directory
  invariants documented in :mod:`repro.memory.coherence`;
* :mod:`~repro.validate.isa_check` — assemble/disassemble round-trip
  fixpoints and patch/rollback byte-identity on binary images.

Enable runtime checking with ``CobraConfig.validate`` (``"strict"`` or
``"record"``) or the ``REPRO_VALIDATE`` environment variable.  The
differential sweep — every strategy against the unoptimized run on both
machine models, under a record-mode checker, plus ``check_image`` on
every built image — is the strategy rows of
:data:`repro.fuzz.differ.AXES`: ``python -m repro fuzz --workloads
daxpy cg --axes noprefetch excl adaptive``.

The crash-recovery sweep is the ``crash`` row of the same table
(``python -m repro fuzz --workloads daxpy --axes crash --stride 4``).
"""

from .checker import VALIDATE_MODES, AccessEvent, CoherenceChecker, EvictEvent
from .isa_check import (
    check_image,
    check_patch_rollback,
    check_roundtrip,
    encode_image,
    encode_instruction,
)
from ..scenario import WorkloadSpec

__all__ = [
    "VALIDATE_MODES",
    "AccessEvent",
    "CoherenceChecker",
    "EvictEvent",
    "WorkloadSpec",
    "check_image",
    "check_patch_rollback",
    "check_roundtrip",
    "encode_image",
    "encode_instruction",
]
