#!/usr/bin/env python3
"""Compare two sets of benchmark results: parent (A) against change (B).

    # two directories of `run.py --out` files
    python3 benchmarks/e2e/compare.py RESULTS_A RESULTS_B

    # or make them: run both trees, alternating which goes first
    python3 benchmarks/e2e/compare.py --ab TREE_A TREE_B --pairs 10 \
        --out-dir NEW_OR_EMPTY_DIR [--workloads stream_steady ...] [--seed 1]

``--ab`` always runs *this* checkout's benchmark code and points it at
each tree's ``src`` (``run.py --src``), so both sides are measured with
identical benchmark code and settings.  Runs are paired by file name:
``A/<name>.json`` with ``B/<name>.json`` (``--ab`` names them
``<workload>-<pair>``).  A file without a partner — a run that crashed
before it wrote its result — is named on stderr and judged nowhere, and
``--ab`` refuses an ``--out-dir`` that already holds files, so stale
results cannot shift the pairing.

One row per workload and end-to-end metric, with each side's median and
quartiles, judged by the rule of the choosing-metrics guide, section 8:

``improved``    B wins at least 9 of 10 pairs (ties count for neither)
                and the medians differ by more than A's inter-quartile
                distance.
``regressed``   B's median is worse than A's by more than the metric's
                bound.
``unresolved``  a side's quartile spread exceeds the bound and B's runs
                are not all better than all of A's — or the host-noise
                guard left fewer than half of the pairs (a pair with a
                ``noisy`` run is listed as dropped and judged nowhere).
``unchanged``   otherwise: within the bound, and the spread is too.
``same`` / ``differs``  for the metrics that repeat exactly (bound 0).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(directory: str) -> dict[str, dict]:
    """The untraced results under ``directory``, by file name."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            result = json.load(fh)
        if result.get("schema", "").startswith("repro-e2e/") and not result["trace"]:
            out[os.path.basename(path)] = result
    return out


def pair_up(results_a: dict[str, dict], results_b: dict[str, dict]):
    """(pairs by workload in file-name order, file names only one side has)."""
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for name in sorted(results_a.keys() & results_b.keys()):
        ra, rb = results_a[name], results_b[name]
        if ra["workload"] != rb["workload"]:
            raise ValueError(f"{name}: {ra['workload']} on one side, "
                             f"{rb['workload']} on the other")
        pairs.setdefault(ra["workload"], []).append((ra, rb))
    return pairs, sorted(results_a.keys() ^ results_b.keys())


def judge(metric: spec.Metric, a: list[float], b: list[float], noisy: bool) -> dict:
    """One row: both sides' quartiles and the verdict.  ``noisy`` says that
    the host-noise guard left too few runs for the row to be a result."""
    lower = metric.better == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    row = {"a": qa, "b": qb, "n": (len(a), len(b)),
           "change": (med_b / med_a - 1.0) if med_a else 0.0}
    if metric.bound == 0.0:
        if set(a) == set(b) and len(set(a)) == 1:
            row["verdict"] = "same"
        elif all(better(y, x) for x in a for y in b):
            row["verdict"] = "improved"
        else:
            row["verdict"] = "differs"
        return row
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    row["wins"] = (wins, len(pairs))
    iqr_a = qa[2] - qa[0]
    spread = max((qa[2] - qa[0]) / abs(med_a), (qb[2] - qb[0]) / abs(med_b)) \
        if med_a and med_b else 0.0
    row["spread"] = spread
    worse_by = (med_b - med_a if lower else med_a - med_b) / abs(med_a) if med_a else 0.0
    if noisy:
        row["verdict"] = "unresolved (noisy host)"
    elif (wins >= WIN_SHARE * len(pairs) and better(med_b, med_a)
          and abs(med_b - med_a) > iqr_a):
        row["verdict"] = "improved"
    elif spread > metric.bound and not all(better(y, x) for x in a for y in b):
        row["verdict"] = "unresolved (spread > bound)"
    elif worse_by > metric.bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(paired: dict[str, list[tuple[dict, dict]]]) -> list[dict]:
    rows = []
    for workload in spec.WORKLOADS:
        pairs = paired.get(workload)
        if not pairs:
            continue
        # a noisy run is not a result: its pair is dropped, and counted
        calm = [(ra, rb) for ra, rb in pairs if not (ra["noisy"] or rb["noisy"])]
        noisy = len(calm) < max(2, len(pairs) / 2)
        runs_a, runs_b = (list(side) for side in zip(*(pairs if noisy else calm)))
        for metric in spec.END_TO_END:
            if workload not in metric.workloads:
                continue
            a = [r["end_to_end"][metric.name] for r in runs_a]
            b = [r["end_to_end"][metric.name] for r in runs_b]
            row = judge(metric, a, b, noisy)
            row.update(workload=workload, metric=metric.name, unit=metric.unit,
                       better=metric.better, bound=metric.bound,
                       dropped=0 if noisy else len(pairs) - len(calm))
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':14s} {'metric':20s} {'A q1/median/q3':>32s} "
             f"{'B q1/median/q3':>32s} {'B vs A':>8s} {'wins':>6s}  verdict"]
    for row in rows:
        fmt = lambda q: "/".join(f"{v:.5g}" for v in q)  # noqa: E731
        wins = "%d/%d" % row["wins"] if "wins" in row else "-"
        lines.append(
            f"{row['workload']:14s} {row['metric']:20s} {fmt(row['a']):>32s} "
            f"{fmt(row['b']):>32s} {100 * row['change']:>+7.2f}% {wins:>6s}  "
            f"{row['verdict']}  [{row['unit']}, {row['better']} is better, "
            f"bound {row['bound']:g}, n={row['n'][0]}+{row['n'][1]}, "
            f"{row['dropped']} noisy pair(s) dropped]")
    return "\n".join(lines)


def run_ab(args: argparse.Namespace) -> tuple[str, str]:
    """Interleaved A/B: pair ``i`` runs A then B when ``i`` is even, B then
    A when odd, one process at a time."""
    dirs = {side: os.path.join(args.out_dir, side) for side in "AB"}
    trees = {"A": args.ab[0], "B": args.ab[1]}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
        if os.listdir(d):
            raise SystemExit(f"compare.py: {d} is not empty; give --ab a fresh --out-dir")
    for workload in args.workloads:
        for pair in range(args.pairs):
            for side in ("AB" if pair % 2 == 0 else "BA"):
                out = os.path.join(dirs[side], f"{workload}-{pair:02d}.json")
                argv = [sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0",
                        "--src", os.path.join(trees[side], "src"), "--out", out]
                print(f"[{workload} pair {pair} side {side}]", file=sys.stderr, flush=True)
                done = subprocess.run(argv, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    print(f"  run exited {done.returncode}", file=sys.stderr)
    return dirs["A"], dirs["B"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", metavar="DIR",
                        help="two directories of run.py --out files: parent, change")
    parser.add_argument("--ab", nargs=2, metavar=("TREE_A", "TREE_B"),
                        help="run both source trees, alternating, then compare")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--workloads", nargs="+", default=list(spec.WORKLOADS),
                        choices=list(spec.WORKLOADS))
    parser.add_argument("--out-dir", help="where --ab writes its results: new or empty")
    parser.add_argument("--json", default=None, help="also write the rows here")
    args = parser.parse_args(argv)
    if args.ab:
        if not args.out_dir:
            parser.error("--ab needs --out-dir")
        dir_a, dir_b = run_ab(args)
    elif len(args.results) == 2:
        dir_a, dir_b = args.results
    else:
        parser.error("give two result directories, or --ab TREE_A TREE_B")
    try:
        paired, alone = pair_up(load(dir_a), load(dir_b))
    except ValueError as err:
        print(f"compare.py: {err}", file=sys.stderr)
        return 2
    for name in alone:
        print(f"compare.py: {name} is on one side only; not judged", file=sys.stderr)
    rows = compare(paired)
    if not rows:
        print("compare.py: no workload has results on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)
    bad = [r for r in rows if r["verdict"] in ("regressed", "differs")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
