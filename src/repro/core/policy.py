"""Optimization policy: which rewrite to apply to a hot loop.

The paper evaluates two strategies separately (noprefetch and
prefetch.excl, §5.2) and describes COBRA as choosing "appropriate
optimizations according to observed changing runtime program behavior"
(§1).  The policy layer supports all three:

* ``"noprefetch"`` / ``"excl"`` — fixed strategy, as in Figures 5-7;
* ``"adaptive"`` — per-loop choice: loops whose filtered misses are
  dominated by coherent-latency events lose their prefetches entirely
  (they drag shared lines around), loops with a more mixed profile keep
  prefetching but acquire exclusivity up front.

Every decision requires (a) the system-wide coherent ratio to clear the
threshold — "We could use this ratio to decide whether to perform the
optimization" (§4) — and (b) enough filtered samples attributed to the
loop, which is the selectivity that protects useful prefetches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..config import CobraConfig
from .tracesel import LoopTrace

__all__ = ["Decision", "decide", "proven_decisions", "STRATEGIES", "EVIDENCE"]

STRATEGIES = ("noprefetch", "excl", "adaptive")

#: What the profile database keeps per (loop, optimization) decision, and
#: how two sightings combine: the proven/rolled-back run counts add, the
#: loop's geometry (two :attr:`~repro.core.tracecache.Deployment.RECORD`
#: fields) keeps its largest value.  All are non-negative integers.
EVIDENCE = dict(
    proven=operator.add, rolled_back=operator.add, back_branch=max, hotness=max
)


@dataclass(frozen=True)
class Decision:
    """Outcome of evaluating one loop."""

    loop: LoopTrace
    optimization: str | None
    reason: str


def decide(
    loop: LoopTrace,
    strategy: str,
    config: CobraConfig,
    coherent_ratio: float,
) -> Decision:
    """Pick the rewrite for ``loop`` (or None with the reason)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not loop.lfetch_sites:
        return Decision(loop, None, "no lfetch instructions in loop")
    if coherent_ratio < config.coherent_ratio_threshold:
        return Decision(
            loop,
            None,
            f"coherent ratio {coherent_ratio:.2f} below threshold "
            f"{config.coherent_ratio_threshold:.2f}",
        )
    if loop.sample_count() < config.min_loop_samples:
        return Decision(
            loop,
            None,
            f"only {loop.sample_count()} filtered samples "
            f"(need {config.min_loop_samples})",
        )
    if loop.coherent_count() == 0:
        return Decision(loop, None, "no coherent-latency misses in loop")

    if strategy == "noprefetch":
        return Decision(loop, "noprefetch", "fixed strategy")
    if strategy == "excl":
        return Decision(loop, "excl", "fixed strategy")

    share = loop.coherent_share()
    if share >= config.noprefetch_coherent_share:
        return Decision(
            loop,
            "noprefetch",
            f"coherent share {share:.2f} >= "
            f"{config.noprefetch_coherent_share:.2f}: prefetches drag shared lines",
        )
    return Decision(
        loop,
        "excl",
        f"coherent share {share:.2f} below "
        f"{config.noprefetch_coherent_share:.2f}: keep prefetching, take ownership",
    )


def proven_decisions(entry: dict, strategy: str) -> list[dict]:
    """Best proven optimization per loop from a (validated) profile-DB entry.

    ``entry["decisions"]`` maps loop head -> optimization -> evidence
    (``proven``/``rolled_back`` counts plus loop geometry).  Only
    optimizations with positive net evidence qualify, filtered to what
    ``strategy`` is allowed to deploy; ties break deterministically on
    (net evidence, hotness, optimization name) so the same entry always
    seeds the same deployments.  Returns one go-live record per loop —
    the evidence plus ``head`` and ``optimization`` — in ascending head
    order.
    """
    out: list[dict] = []
    for head, opts in sorted(entry["decisions"].items(), key=lambda kv: int(kv[0])):
        net, _, optimization = max(
            (
                (rec["proven"] - rec["rolled_back"], rec["hotness"], optimization)
                for optimization, rec in opts.items()
                if strategy in ("adaptive", optimization)
            ),
            default=(0, 0, None),
        )
        if net > 0:
            out.append({**opts[optimization], "head": int(head), "optimization": optimization})
    return out
