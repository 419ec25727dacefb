"""COBRA's dynamic optimizations: prefetch rewrites (paper §4, §5.2)."""

from .bias import find_rmw_load_regs, make_bias_rewrite
from .excl import associate_stored_streams, make_excl_rewrite
from .noprefetch import make_noprefetch_rewrite

__all__ = [
    "REWRITES",
    "make_noprefetch_rewrite",
    "make_excl_rewrite",
    "associate_stored_streams",
    "make_bias_rewrite",
    "find_rmw_load_regs",
]


def _excl(program, trace):
    # .excl only on prefetches feeding stored streams (§4)
    selection = associate_stored_streams(program, trace)
    if selection is not None and not selection:
        return None
    return make_excl_rewrite(selection)


#: optimization -> ``builder(program, trace)`` of its rewrite callable
#: (``None``: the loop holds nothing for it to rewrite).  The optimizer's
#: one go-live path looks every deployed optimization up here.
REWRITES = {
    "noprefetch": lambda program, trace: make_noprefetch_rewrite(),
    "excl": _excl,
}
