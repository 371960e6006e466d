"""Benchmark of the ``qamseq`` CLI: three single-process workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A round runs one CLI invocation in a fresh process with ``--jobs 1`` and
BLAS/OpenMP pinned to one thread, then checks its output outside the timed
region.  Rounds repeat while the next one still fits in ``--seconds``; at
least one always runs.  The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics.  ``wall_s``, ``cpu_s`` and
  ``setup_s`` are host-normalised: each timed call is scaled by
  REFERENCE_CALIBRATION_S over the mean time of a fixed calibration mix
  (``child.calibrate``) run just before and just after it, and the median
  over calls is reported.  On a shared host, neighbours slow the machine by up
  to a third for minutes at a time; the slowdown stretches the workload and
  the calibration mix alike, so the scaled time reads the program and not
  the neighbours.  ``records_per_s`` is records over ``wall_s``;
  ``peak_rss_mb`` is the median over rounds.
* ``--trace 1``: rounds run in pairs, untraced then traced.  The per-layer
  split is that of the fastest traced round, in raw seconds;
  ``trace.overhead_s`` is its wall time minus that of the fastest untraced
  round, and ``host.calibration_s`` the median calibration time of the run.

A round whose CLI call fails or whose output fails a check counts as failed.
``--seed`` chooses the records that the reference checker re-derives; the
workloads' inputs themselves are fixed, so every seed times the same work.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned so that one process uses one core: the complex matrix products of
# the lemma sweep otherwise spread over every OpenBLAS thread, and on a
# shared 2-core host that makes cpu_s and wall_s depend on the neighbours.
# Set before numpy loads, so that this process's own checks do not leave
# BLAS threads spinning beside the timed child either.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "QAMSEQ_JOBS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 7
ROUND_TIMEOUT_S = 120
# child.calibrate() on a 2-vCPU Intel Xeon VM in a quiet phase: normalised times
# are seconds on a host that runs the calibration mix this fast
REFERENCE_CALIBRATION_S = 0.035

# name -> (CLI arguments before --out, output file name, family records, check)
WORKLOADS = {
    "verify_all_m3": (
        ["verify", "--suite", "all", "--m", "3", "--oversample", "16", "--jobs", "1"],
        "report.json",
        reference.family_size(3, "16qam") + reference.family_size(3, "64qam"),
        functools.partial(checks.verify_all, m=3),
    ),
    "ccdf_16qam_m4": (
        ["ccdf", "--m", "4", "--modulation", "16qam", "--oversample", "16",
         "--baseline-count", "10000", "--seed", "42", "--jobs", "1"],
        "ccdf.csv",
        reference.family_size(4, "16qam"),
        functools.partial(checks.ccdf_16qam, m=4),
    ),
    "enumerate_16qam_m3": (
        ["enumerate", "--m", "3", "--modulation", "16qam", "--oversample", "16"],
        "family.jsonl",
        reference.family_size(3, "16qam"),
        functools.partial(checks.enumerate_records, m=3, modulation="16qam"),
    ),
}
END_TO_END = {"wall_s": "s", "records_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
_SPANS = child.LAYERS + child.ITERATOR_LAYERS
LAYER_TIMES = [layer[2] for layer in _SPANS] + [child.ROOT]
LAYER_COUNTS = [*dict.fromkeys(layer[3] for layer in _SPANS if layer[3]), "cli.output_bytes", "trace.spans"]


def normalise(seconds: float, calibration: list[float]) -> float:
    """``seconds`` scaled to a host that runs ``child.calibrate`` in REFERENCE_CALIBRATION_S."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.fmean(calibration)


def measure_setup(env: dict[str, str]) -> float:
    """Median normalised time fresh processes take to import numpy and the qamseq CLI.

    This process calibrates before and after each of them.
    """
    code = ("import time; t = time.perf_counter(); import numpy, qamseq.cli; "
            "print(time.perf_counter() - t)")
    times, before = [], child.calibrate()
    for _ in range(SETUP_REPEATS):
        elapsed = float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                       capture_output=True, text=True, timeout=ROUND_TIMEOUT_S).stdout)
        after = child.calibrate()
        times.append(normalise(elapsed, [before, after]))
        before = after
    return statistics.median(times)


class OutputCheck:
    """Full check of the first output; later rounds must reproduce it byte for byte.

    The CLI promises identical output for identical flags, so a round whose
    output matches the checked one is correct, and the rounds between timed
    calls stay short.  A round that differs is checked in full as well.
    """

    def __init__(self, check, rng: np.random.Generator):
        self.check, self.rng, self.digest = check, rng, None

    def __call__(self, path: Path, exit_code: int) -> list[str]:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if exit_code == 0 and digest == self.digest:
            return []
        problems = self.check(str(path), exit_code, self.rng)
        if self.digest is not None:
            problems.append("output differs from the first checked round")
        elif not problems:
            self.digest = digest
        return problems


def run_round(workload: str, trace: bool, env: dict[str, str], work: Path,
              check: OutputCheck) -> tuple[dict, list[str]]:
    """One timed CLI invocation in a fresh process, then its correctness check."""
    args, out_name, _, _ = WORKLOADS[workload]
    out, result_path, stderr_path = work / out_name, work / "result.json", work / "stderr.txt"
    for path in (out, result_path):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if trace else "0", "--",
           *args, "--out", str(out)]
    with open(stderr_path, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {}, [f"benchmark child still running after {ROUND_TIMEOUT_S} s"]
    if proc.returncode != 0 or not result_path.exists():
        tail = stderr_path.read_text(encoding="utf-8")[-2000:]
        return {}, [f"benchmark child exited {proc.returncode}: {tail}"]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["output_bytes"] = out.stat().st_size if out.exists() else 0
    try:
        problems = check(out, result["exit_code"])
    except (OSError, ValueError, KeyError, IndexError, AttributeError, TypeError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    out.unlink(missing_ok=True)
    return result, problems


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, dict]:
    """Per-layer split of the fastest traced round, plus the tracing overhead.

    All layers come from one round, so their self times add up to its wall
    time exactly.
    """
    best = min(traced, key=lambda r: r["wall_s"])
    counts = dict(best["layers"]["counts"], **{"cli.output_bytes": best["output_bytes"]})
    metrics = {f"{name}_s": {"value": best["layers"]["self_s"].get(name, 0.0), "unit": "s"}
               for name in LAYER_TIMES}
    metrics.update({name: {"value": counts.get(name, 0), "unit": "count"} for name in LAYER_COUNTS})
    metrics["trace.wall_s"] = {"value": best["wall_s"], "unit": "s"}
    overhead = best["wall_s"] - min(r["wall_s"] for r in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    calibration = [c for r in traced + untraced for c in r["calibration_s"]]
    metrics["host.calibration_s"] = {"value": statistics.median(calibration), "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qamseq" / "cli.py").is_file():
        print(f"error: no qamseq sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    check = OutputCheck(WORKLOADS[args.workload][3], np.random.default_rng(args.seed))
    records = WORKLOADS[args.workload][2]
    untraced, traced, failures = [], [], 0
    try:
        setup_s = measure_setup(env)
        start, round_times = time.perf_counter(), []
        while not round_times or (
            time.perf_counter() - start + statistics.median(round_times) <= args.seconds
        ):
            began = time.perf_counter()
            for trace, results in ((False, untraced), (True, traced))[: 2 if args.trace else 1]:
                result, problems = run_round(args.workload, trace, env, work, check)
                if problems:
                    failures += 1
                    print(f"{args.workload}: round failed: " + "; ".join(problems[:20]), file=sys.stderr)
                if result:
                    results.append(result)
            round_times.append(time.perf_counter() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = len(round_times) * (2 if args.trace else 1)
    if not untraced or (args.trace and not traced):
        print(f"{args.workload}: no round completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(traced, untraced)
    else:
        wall = statistics.median(normalise(r["wall_s"], r["calibration_s"]) for r in untraced)
        metrics = {
            "wall_s": wall,
            "records_per_s": records / wall,
            "cpu_s": statistics.median(normalise(r["cpu_s"], r["calibration_s"]) for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "setup_s": setup_s,
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": failures == 0, "attempted": attempted, "failed": failures,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
