"""Correctness checks of each workload's output, run outside the timed region.

Each check takes the output file, the CLI exit code and a seeded
``numpy.random.Generator`` and returns a list of problems (empty = correct).
The expectations come from the paper (closed-form family sizes, the exact
star/n ceilings 12/5, 76/21, 52/21, pmepr <= star/n) and from the
independent rebuild in ``reference.py``, never from a stored copy of the
program's output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

import reference

# seeded records re-derived by the reference checker per round
SAMPLE = 256
# the CCDF check also estimates each curve from its sample
CCDF_SAMPLE = 1024
# verify prints star/n and PMEPR with 12 decimals and ccdf prints 12
# significant digits: allow half a unit of the last digit on top of the
# reference's float slack
PRINT_TOL = 5e-13 + reference.TOL
CCDF_ROWS = 181
CCDF_COLUMNS = ["threshold_linear", "threshold_db", "ccdf_constructed", "ccdf_baseline"]


def kind_sizes(m: int, modulation: str) -> dict[str, int]:
    """Family members per offset kind, from the reference offset lists."""
    per_offset = len(reference.canonical_permutations(m)) * 4 ** (m + 1)
    sizes: dict[str, int] = {}
    for offset in reference.offsets(modulation):
        kind = reference.kind_of(offset)
        sizes[kind] = sizes.get(kind, 0) + per_offset
    return sizes


def _exit_problems(exit_code: int) -> list[str]:
    return [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]


def verify_all(path: str, exit_code: int, rng: np.random.Generator, m: int) -> list[str]:
    """``verify --suite all``: every check passed, counts, ceilings, sampled records."""
    problems = _exit_problems(exit_code)
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    checks = {c["name"]: c for c in report["checks"]}
    if not report["passed"]:
        problems.append("report says passed=false")
    problems += [f"check {name} failed" for name, c in checks.items() if not c["passed"]]
    for modulation in ("16qam", "64qam"):
        prefix = f"bounds.{modulation}.m{m}"
        closed = reference.family_size(m, modulation)
        count = checks.get(f"{prefix}.count")
        if count is None or int(count["observed"]) != closed:
            problems.append(f"{prefix}.count: expected {closed} audited records")
        extremes = {}
        for kind, size in kind_sizes(m, modulation).items():
            star = checks.get(f"{prefix}.{kind}.star")
            pmepr = checks.get(f"{prefix}.{kind}.pmepr")
            if star is None or pmepr is None:
                problems.append(f"{prefix}.{kind}: star or pmepr check missing")
                continue
            hi, lo = (float(v) for v in re.search(
                r"max star/n = ([0-9.]+) \(min ([0-9.]+)", star["observed"]).groups())
            audited = int(re.search(r"on (\d+) records", star["requirement"]).group(1))
            max_pmepr = float(re.search(r"= ([0-9.]+)", pmepr["observed"]).group(1))
            if audited != size:
                problems.append(f"{prefix}.{kind}: {audited} records audited, expected {size}")
            if Fraction(hi) > reference.CEILING[kind] + Fraction(PRINT_TOL):
                problems.append(f"{prefix}.{kind}: max star/n {hi} above {reference.CEILING[kind]}")
            if max_pmepr > hi + PRINT_TOL:
                problems.append(f"{prefix}.{kind}: max pmepr {max_pmepr} above max star/n {hi}")
            extremes[kind] = (lo, hi, max_pmepr)
        for pi, linear, constant, offset in reference.sample_params(m, modulation, SAMPLE, rng):
            found, s, p = reference.check_params(m, pi, linear, constant, offset)
            lo, hi, max_pmepr = extremes.get(reference.kind_of(offset), (np.inf, -np.inf, -np.inf))
            if not lo - PRINT_TOL <= s <= hi + PRINT_TOL:
                found.append(f"star/n {s!r} outside the reported range [{lo}, {hi}]")
            if p > max_pmepr + PRINT_TOL:
                found.append(f"pmepr {p!r} above the reported maximum {max_pmepr}")
            problems += [f"{modulation} {(pi, linear, constant, offset)}: {p}" for p in found]
    return problems


def ccdf_16qam(path: str, exit_code: int, rng: np.random.Generator, m: int) -> list[str]:
    """``ccdf --modulation 16qam``: shape of the curves, exact counts, sampled PMEPRs."""
    problems = _exit_problems(exit_code)
    size, ceiling = reference.family_size(m, "16qam"), float(reference.CEILING["qam16"])
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    if lines[0].split(",") != CCDF_COLUMNS:
        return problems + [f"columns {lines[0]!r}, expected {','.join(CCDF_COLUMNS)}"]
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if table.shape[0] != CCDF_ROWS:
        return problems + [f"{table.shape[0]} rows, expected {CCDF_ROWS}"]
    thresholds, curve, baseline = table[:, 0], table[:, 2], table[:, 3]
    if np.any(np.diff(thresholds) <= 0):
        problems.append("thresholds not increasing")
    if np.any(np.diff(curve) > 0):
        problems.append("ccdf_constructed increases somewhere")
    beyond = thresholds >= ceiling - PRINT_TOL
    if not np.any(beyond) or np.any(curve[beyond] != 0):
        problems.append(f"ccdf_constructed not 0 at every threshold >= {ceiling}")
    elif baseline[np.argmax(beyond)] <= 0:
        problems.append(f"ccdf_baseline not above 0 at {ceiling}")
    counts = curve * size
    if np.max(np.abs(counts - np.rint(counts))) > 1e-4:
        problems.append(f"a ccdf_constructed probability times {size} is not an integer")
    # A sampled member with PMEPR v shows P(PMEPR > t) > 0 below v and < 1 from
    # v on.  Together the sample estimates the curve: the share of sampled
    # members above t is binomial around the reported probability, and 7
    # standard deviations plus two members make a false alarm negligible even
    # in the tails, while an envelope error shows.
    sampled = []
    for pi, linear, constant, offset in reference.sample_params(m, "16qam", CCDF_SAMPLE, rng):
        found, _, v = reference.check_params(m, pi, linear, constant, offset)
        sampled.append(v)
        if np.any(curve[thresholds < v - reference.TOL] <= 0):
            found.append(f"pmepr {v!r} but the CCDF reads 0 below it")
        if np.any(curve[thresholds >= v + reference.TOL] >= 1):
            found.append(f"pmepr {v!r} but the CCDF reads 1 above it")
        problems += [f"{(pi, linear, constant, offset)}: {p}" for p in found]
    share = np.mean(np.asarray(sampled)[None, :] > thresholds[:, None], axis=1)
    slack = 7 * np.sqrt(curve * (1 - curve) / CCDF_SAMPLE) + 2 / CCDF_SAMPLE
    bad = np.flatnonzero(np.abs(share - curve) > slack)
    if bad.size:
        i = bad[0]
        problems.append(f"CCDF at {thresholds[i]}: {curve[i]} reported, "
                        f"{share[i]} of {CCDF_SAMPLE} sampled members above it")
    return problems


def enumerate_records(path: str, exit_code: int, rng: np.random.Generator, m: int,
                      modulation: str, sample_size: int = SAMPLE) -> list[str]:
    """``enumerate``: every record's parameters and bounds, plus sampled rebuilds."""
    problems = _exit_problems(exit_code)
    size = reference.family_size(m, modulation)
    sample = set(rng.choice(size, sample_size, replace=False).tolist())
    seen = set()
    lines = 0
    with open(path, encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            lines += 1
            doc = json.loads(line)
            offset = doc["offset"]
            key = (tuple(doc["pi"]), tuple(doc["linear"]), doc["constant"], tuple(sorted(offset.items())))
            seen.add(key)
            found = [f"offset violates {v}" for v in reference.offset_violations(offset)]
            if doc["m"] != m or doc["modulation"] != modulation:
                found.append("wrong m or modulation")
            if doc["pmepr"] > doc["star_over_n"] + reference.TOL:
                found.append(f"pmepr {doc['pmepr']!r} above star/n {doc['star_over_n']!r}")
            if doc["star_over_n"] > reference.CEILING[reference.kind_of(offset)] + reference.TOL:
                found.append(f"star/n {doc['star_over_n']!r} above the {reference.kind_of(offset)} ceiling")
            if index in sample:
                found += reference.check_record(doc)
            problems += [f"line {index + 1}: {p}" for p in found]
    if lines != size:
        problems.append(f"{lines} lines, expected {size}")
    if len(seen) != lines:
        problems.append(f"only {len(seen)} distinct (pi, linear, constant, offset) of {lines}")
    return problems
