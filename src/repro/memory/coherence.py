"""MESI (Illinois) coherence protocol states and invariants.

Both of the paper's platforms run it, over one implementation
(:mod:`repro.memory.fabric`): the 4-way Itanium 2 SMP server is the
fabric with a single node, the SGI Altix the same with several.
States are small ints for speed; ``INVALID`` is represented by *absence*
from a cache's state map, so the constants start at 1.

Protocol invariants (property-tested in ``tests/memory``, enumerated in
``tests/validate/test_coherence_properties.py``):

* at most one cache holds a line in M or E;
* if any cache holds M or E, no other cache holds the line at all;
* any number of caches may hold S simultaneously.

Transition summary (requester's view):

=============  =============  ==========================================
trigger        local result   remote effect
=============  =============  ==========================================
read miss      E (no sharer)  —
read miss      S (sharers)    remote E -> S; remote M -> S + writeback
store miss     M (RFO)        all remotes -> I; remote M flushes (HITM)
store on S     M (upgrade)    all remotes -> I
store on E     M (silent)     —
lfetch         as read miss   same as read miss
lfetch.excl    M              as store miss; the line is allocated
                              *dirty*, so its eventual eviction always
                              writes back (the paper's "increase the
                              number of writebacks" effect)
=============  =============  ==========================================
"""

from __future__ import annotations

__all__ = ["SHARED", "EXCLUSIVE", "MODIFIED", "state_name"]

SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

_NAMES = {None: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}


def state_name(state: int | None) -> str:
    """Single-letter name of a MESI state (absence -> ``I``)."""
    return _NAMES[state]
