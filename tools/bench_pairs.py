"""Compare the benchmark's end-to-end metrics of two checkouts, run in pairs.

Usage: python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed K]

Each pair runs ``perfbench/run.py --workload W --seed K+i --seconds S
--trace 0`` once in each checkout, from that checkout's root: the parent
first in even pairs, the change first in odd ones.  For each end-to-end
metric of PARENT's BENCHMARK.json, in its ``better`` direction, it prints
the parent's median and quartiles over the pairs, the change's median, the
pairs in which the change did better (ties count for neither side), and
whether a gain is met: at least ten pairs, the change better in at least
nine tenths of them, the gap between the medians larger than the parent's
interquartile range, and no more failed rounds (``failed`` of run.py's
summary) than the parent's.  It also reports the failed rounds and the
pairs in which a run gave no summary at all.

run.py's timings move with the length of the checkout's path, which its
timed child inherits (PWD, PYTHONPATH): two checkouts whose absolute paths
differ in length are refused.  The last line of stdout is one JSON object.
Exit status: 0 when every run gave a summary, 1 when one did not, 2 for
bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The JSON summary of one run.py call in a checkout, or None."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, env=dict(os.environ, PWD=str(checkout)),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        summary = None
    if summary is None:
        print(f"{checkout}: run.py gave no summary (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
    return summary


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The pair statistics of one metric: medians, parent quartiles, wins,
    and met by every rule but the one on failed rounds."""
    sign = 1.0 if better == "lower" else -1.0
    q1, q3 = quartiles(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    met = len(parent) >= 10 and 10 * wins >= 9 * len(parent) and sign * (p_med - c_med) > q3 - q1
    return {"parent_median": p_med, "parent_q1": q1, "parent_q3": q3, "change_median": c_med,
            "change_vs_parent": c_med / p_med - 1 if p_med else None, "better": better,
            "wins": wins, "pairs": len(parent), "met": met}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if len(str(parent)) != len(str(change)):
        parser.error(f"checkout paths differ in length ({parent}, {change}): "
                     "run.py's timings depend on it")
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    metrics = json.loads((parent / "BENCHMARK.json").read_text())["end_to_end"]

    values = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    missing = 0
    for i in range(args.pairs):
        order = (("parent", parent), ("change", change))
        summaries = {}
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            summaries[side] = run_once(checkout, args.workload, args.seed + i, args.seconds)
        if None in summaries.values():
            missing += 1
            continue
        for side, summary in summaries.items():
            failed[side] += summary["failed"]
            values[side].append({name: m["value"] for name, m in summary["metrics"].items()})

    report = {}
    if values["parent"]:
        print(f"{args.workload}: {len(values['parent'])} pairs, parent median [quartiles] "
              "-> change median")
        for metric in metrics:
            name = metric["name"]
            stats = compare([v[name] for v in values["parent"]],
                            [v[name] for v in values["change"]], metric["better"])
            stats["met"] &= failed["change"] <= failed["parent"]
            report[name] = stats
            print(f"  {name:14s} {stats['parent_median']:.5g} [{stats['parent_q1']:.5g}, "
                  f"{stats['parent_q3']:.5g}] -> {stats['change_median']:.5g} "
                  f"({100 * (stats['change_vs_parent'] or 0):+.1f} %), change better in "
                  f"{stats['wins']}/{stats['pairs']}: {'met' if stats['met'] else 'not met'}")
    print(f"  failed rounds: parent {failed['parent']}, change {failed['change']}; "
          f"pairs without a summary: {missing}")
    print(json.dumps({"workload": args.workload, "pairs": len(values["parent"]),
                      "pairs_without_summary": missing, "failed_rounds": failed,
                      "metrics": report}))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
