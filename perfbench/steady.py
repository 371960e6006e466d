"""Steadiness check: two independent sets of benchmark runs on one commit.

Usage (from the root of a checkout):

    python3 perfbench/steady.py

Each of two sets runs every workload of BENCHMARK.json ten times with
``--trace 0``, each run with its own seed (1, 2, ...), workloads taking
turns so that slow drift of the host touches all of them alike.  For each set, workload and end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (Q3 - Q1) / median; then, per metric, how far the second
set's median moved from the first's in the metric's worse direction, against
the bound in BENCHMARK.json.  Results are rewritten to
``perfbench/results/steady.json`` after every run, so an interrupted check
keeps what it measured.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "results" / "steady.json"
SETS = 2
RUNS = 10


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """Share of the first median by which the second is worse (negative: better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(bench: dict, raw: dict) -> dict:
    """Per set and workload: quartiles of every metric, and the set-to-set drift."""
    out = {}
    for workload, sets in raw.items():
        entry = {"failed_share": [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                                  for runs in sets if runs], "metrics": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            per_set = [summarize([r["metrics"][name]["value"] for r in runs])
                       for runs in sets if len(runs) >= 2]
            row = {"bound": metric["bound"], "sets": per_set}
            if len(per_set) >= 2:
                row["worsening"] = worsening(per_set[0]["median"], per_set[1]["median"], metric["better"])
            entry["metrics"][name] = row
        out[workload] = entry
    return out


def print_report(summary: dict) -> None:
    for workload, entry in summary.items():
        print(f"{workload}  failed share per set: {entry['failed_share']}")
        for name, row in entry["metrics"].items():
            sets = "  ".join(
                f"set{i + 1} median {s['median']:.6g} [Q1 {s['q1']:.6g}, Q3 {s['q3']:.6g}] "
                f"spread {s['spread']:.3f}" for i, s in enumerate(row["sets"])
            )
            drift = f"  worse by {row['worsening']:+.3f}" if "worsening" in row else ""
            print(f"  {name:14s} bound {row['bound']:.2f}  {sets}{drift}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    OUT.parent.mkdir(parents=True, exist_ok=True)

    raw = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = 1
    for set_index in range(SETS):
        for _ in range(RUNS):
            for workload in workloads:
                result = run_once(bench, workload, seed)
                raw[workload][set_index].append(dict(result, seed=seed))
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
                seed += 1
                OUT.write_text(json.dumps({"raw": raw, "summary": report(bench, raw)}, indent=1),
                               encoding="utf-8")
    print_report(report(bench, raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
