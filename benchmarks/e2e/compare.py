"""Compare benchmark runs of a parent commit and a change.

Usage, from the repository root::

    python benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... [--claim METRIC@WORKLOAD]

Inputs are ``run.py --out`` files of untraced runs; a file may hold
several workloads.  Runs pair up in the order given — the i-th parent
run of a workload with its i-th change run — so run the two sides
alternately and pass the files in that order.  Bounds and directions
come from ``BENCHMARK.json``.

For the claimed ``(metric, workload)`` the gain holds when there are at
least 10 pairs, the change wins at least 9/10 of them (ties count for
neither), and the medians differ, in the better direction, by more than
the distance between the parent's quartiles.  Every other pair of
end-to-end metric and workload is a regression when the change's median
is worse than the parent's by more than the metric's bound, and is
unresolved when the parent's own spread (quartile distance over median)
is wider than the bound — unless every change run beats every parent
run.  A claim does not count when more operations failed than at the
parent.  Exit status 0 when nothing regressed and the claim (if any)
holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> tuple[dict[str, list[dict]], int]:
    """workload → per-run ``{metric: value}`` in file order; failed ops."""
    runs: dict[str, list[dict]] = {}
    failed = 0
    for path in paths:
        for record in json.loads(Path(path).read_text())["runs"]:
            if record.get("trace"):
                continue
            failed += int(record.get("failed", 0))
            runs.setdefault(record["workload"], []).append(
                {k: v["value"] for k, v in record["metrics"].items()}
            )
    return runs, failed


def better(lower: bool, a: float, b: float) -> bool:
    """``a`` strictly better than ``b``."""
    return a < b if lower else a > b


def judge(parent: list[float], change: list[float], lower: bool,
          bound: float, claimed: bool) -> str:
    """The verdict for one (metric, workload)."""
    if len(parent) < 2 or not change:
        return "missing runs"
    p50, c50 = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(better(lower, c, p) for p, c in pairs)
        holds = (
            len(pairs) >= 10
            and wins >= 0.9 * len(pairs)
            and better(lower, c50, p50)
            and abs(c50 - p50) > q3 - q1
        )
        return f"claim {'holds' if holds else 'NOT MET'} ({wins}/{len(pairs)} wins)"
    if all(better(lower, c, p) for c in change for p in parent):
        return "better"
    if p50 and (q3 - q1) / abs(p50) > bound:
        return "unresolved"
    worse = (c50 - p50) if lower else (p50 - c50)
    if p50 and worse / abs(p50) > bound:
        return "REGRESSION"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", help="METRIC@WORKLOAD claimed to improve")
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, parent_failed = load(args.parent)
    change, change_failed = load(args.change)
    claim = tuple(args.claim.split("@", 1)) if args.claim else None
    ok = True
    print("workload metric parent_p50 [q1, q3] change_p50 delta bound verdict")
    for workload in sorted(set(parent) | set(change)):
        for meta in metrics:
            name, lower = meta["name"], meta["better"] == "lower"
            p = [run[name] for run in parent.get(workload, []) if name in run]
            c = [run[name] for run in change.get(workload, []) if name in run]
            claimed = claim == (name, workload)
            verdict = judge(p, c, lower, meta["bound"], claimed)
            if claimed and change_failed > parent_failed:
                verdict = "claim NOT MET (more failed operations)"
            ok = ok and (
                verdict in ("ok", "better", "unresolved")
                or verdict.startswith("claim holds")
            )
            if len(p) >= 2 and c:
                q1, _, q3 = statistics.quantiles(p, n=4)
                p50, c50 = statistics.median(p), statistics.median(c)
                delta = (c50 - p50) / p50 if p50 else 0.0
                print(f"{workload} {name} {p50:.6g} [{q1:.6g}, {q3:.6g}] "
                      f"{c50:.6g} {delta:+.1%} {meta['bound']} {verdict}")
            else:
                print(f"{workload} {name} {verdict}")
    print(f"failed operations: parent {parent_failed}, change {change_failed}")
    if claim and claim[1] not in change:
        print(f"claimed workload {claim[1]!r} has no change runs")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
