"""Paper-style table rendering for the benchmark harness.

The benches print the same rows/series the paper's tables and figures
report: per-benchmark bars with an ``avg`` column, plus the paper's own
numbers alongside for easy shape comparison.
"""

from __future__ import annotations

from .metrics import Comparison, ExperimentSeries

__all__ = ["format_series_table", "format_table1", "format_fig3_table"]


def format_series_table(
    series_by_strategy: dict[str, ExperimentSeries],
    metric: str = "speedup",
    paper_row: dict[str, str] | None = None,
) -> str:
    """Render one figure: rows = strategies, columns = benchmarks + avg.

    ``metric`` is one of ``speedup``, ``normalized_l3``,
    ``normalized_bus``.
    """
    first = next(iter(series_by_strategy.values()))
    names = [c.name for c in first.comparisons]
    header = ["strategy"] + names + ["avg"]
    rows = [header]
    for strategy, series in series_by_strategy.items():
        values = [getattr(c, metric) for c in series.comparisons]
        avg = sum(values) / len(values) if values else 0.0
        rows.append([strategy] + [f"{v:.3f}" for v in values] + [f"{avg:.3f}"])
    if paper_row:
        rows.append(
            ["paper"] + [paper_row.get(n, "-") for n in names] + [paper_row.get("avg", "-")]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


#: Paper Table 1: static counts in the icc-compiled OpenMP NPB binaries.
PAPER_TABLE1 = {
    "bt": (140, 34, 32, 0),
    "sp": (276, 67, 22, 0),
    "lu": (184, 61, 19, 0),
    "ft": (258, 45, 9, 8),
    "mg": (419, 66, 34, 4),
    "cg": (433, 69, 29, 2),
    "ep": (17, 1, 4, 1),
    "is": (76, 19, 13, 2),
}


def format_table1(ours: dict[str, tuple[int, int, int, int]]) -> str:
    """Render Table 1 (ours vs the paper's icc numbers)."""
    header = f"{'bench':6s} {'lfetch':>12s} {'br.ctop':>12s} {'br.cloop':>12s} {'br.wtop':>12s}"
    lines = [header, "-" * len(header)]
    for name, counts in ours.items():
        paper = PAPER_TABLE1.get(name)
        cells = []
        for i in range(4):
            p = str(paper[i]) if paper else "-"
            cells.append(f"{counts[i]:>5d}/{p:>5s}")
        lines.append(f"{name:6s} " + " ".join(f"{c:>12s}" for c in cells))
    lines.append("(ours/paper; ours are structural analogues, shape not absolutes)")
    return "\n".join(lines)


def format_fig3_table(
    results: dict[tuple[str, int, str], int],
    working_sets: list[str],
    threads: list[int],
    strategies: list[str],
) -> str:
    """Render Figure 3: normalized execution time per (WS, threads).

    ``results`` maps (working set, n_threads, strategy) -> cycles.
    Normalization follows the paper: each bar is relative to the
    1-thread ``prefetch`` run of the same working set.
    """
    lines = []
    for ws in working_sets:
        base = results[(ws, 1, "prefetch")]
        lines.append(f"working set {ws} (normalized to 1-thread prefetch = 1.0)")
        header = f"  {'threads':>8s} " + " ".join(f"{s:>12s}" for s in strategies)
        lines.append(header)
        for t in threads:
            row = [f"  {t:>8d} "]
            for s in strategies:
                row.append(f"{results[(ws, t, s)] / base:>12.3f}")
            lines.append(" ".join(row))
    return "\n".join(lines)
