"""Regenerate ``benchmarks/fuzz/corpus.json``.

Scans generator seeds in order and keeps the first 50 whose scenarios
jointly cover every loop class in the *trace-tree* regime it has —
"tree-linked" meaning the adaptive axis chained at least one compiled
trace exit into another compiled trace (nested loops, epilogue drains,
early-exit tails promoted into the tree), "tree-free" meaning every
compiled trace always fell back to the interpreter at its exits.  Only
``gather`` builds a tree (its CSR inner nests always chain); the other
classes run one loop a thread, which has no second trace to chain to —
in 2,000 seeds none links.  (Until a trace became one closure entered
anywhere, an OSR suffix handing over to its own loop closure counted as
a link, which gave every class a "linked" cell.)  With OSR entry the 3-back-edge hot threshold makes every
generated scenario JIT-eligible, so ``jit_eligible`` is recorded per
entry but no longer a coverage dimension.  Every kept entry must
already be divergence-free; the committed corpus is the frozen
regression baseline that tests/fuzz/test_corpus.py replays.

Usage::

    PYTHONPATH=src python benchmarks/fuzz/make_corpus.py
"""

from __future__ import annotations

import json
import os

from repro.fuzz.differ import run_scenario
from repro.fuzz.generator import LOOP_CLASSES, generate_params

TARGET = 50
OUT = os.path.join(os.path.dirname(__file__), "corpus.json")

#: loop classes whose generated shapes always chain compiled exits; the
#: others never do
ALWAYS_LINKED = ("gather",)


def main() -> None:
    entries = []
    covered: set[tuple[str, bool]] = set()
    wanted = {(cls, cls in ALWAYS_LINKED) for cls in LOOP_CLASSES}
    seed = 0
    while len(entries) < TARGET:
        params = generate_params(seed)
        result = run_scenario(params)
        if not result.ok:
            raise SystemExit(
                f"seed {seed} diverges; fix the framework before freezing a corpus"
            )
        cell = (params.loop_class, result.tree_links > 0)
        # prioritize unseen cells; afterwards take seeds in order
        if cell in wanted - covered or len(covered) == len(wanted):
            covered.add(cell)
            entries.append(
                {
                    "seed": params.seed,
                    "fault_seed": params.fault_seed,
                    "loop_class": params.loop_class,
                    "jit_eligible": result.compiles > 0,
                    "tree_linked": result.tree_links > 0,
                }
            )
        seed += 1
        if seed > 2000:
            raise SystemExit(f"coverage stalled; missing cells: {wanted - covered}")
    missing = wanted - covered
    if missing:
        raise SystemExit(f"corpus incomplete; missing cells: {missing}")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}: {len(entries)} entries, {len(covered)} coverage cells")


if __name__ == "__main__":
    main()
