"""Table 1: static loop and prefetch counts in the compiled binaries.

The paper counts ``lfetch``, ``br.ctop``, ``br.cloop`` and ``br.wtop``
in the icc-compiled OpenMP NPB binaries.  We compile our structural
analogues and print the same table (ours/paper).  Shape expectations:
MG and CG near the top for lfetch, EP tiny, every benchmark dominated
by counted/modulo-scheduled loops, ``br.wtop`` only where non-counted
inner loops exist (gathers).
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table1, table1_counts


def test_table1_static_counts(benchmark):
    counts = benchmark.pedantic(table1_counts, rounds=1, iterations=1)
    emit()
    emit("Table 1 — static counts in compiled NPB binaries")
    emit(format_table1(counts))

    lf = {name: c[0] for name, c in counts.items()}
    # shape assertions mirroring the paper's table
    assert lf["ep"] == min(lf.values()), "EP must have the fewest prefetches"
    assert lf["mg"] >= lf["bt"], "MG outranks BT in static prefetches"
    assert lf["sp"] > lf["bt"], "SP has more loops/prefetches than BT"
    for name, (lfetch, ctop, cloop, wtop) in counts.items():
        assert lfetch >= 0 and ctop + cloop + wtop > 0
    # br.wtop appears exactly where non-counted inner loops exist
    assert counts["ft"][3] > 0 and counts["mg"][3] > 0 and counts["cg"][3] > 0
    assert counts["bt"][3] == 0 and counts["sp"][3] == 0
