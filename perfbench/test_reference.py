"""Tests of the reference checker and of the workload checks built on it.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qamseq.cli import codeword_doc, main as qamseq_main  # noqa: E402
from qamseq.constructions import Modulation, enumerate_family  # noqa: E402

EXAMPLE_PI, EXAMPLE_LINEAR = (0, 1, 2), (1, 1, 1)


def qamseq_docs(m: int, modulation: Modulation, count: int, stride: int) -> list[dict]:
    records = itertools.islice(enumerate_family(m, modulation), 0, count * stride, stride)
    return [json.loads(json.dumps(codeword_doc(r))) for r in records]


def test_offset_lists_and_family_sizes():
    assert len(reference.offsets("16qam")) == 8
    kinds = [reference.kind_of(o) for o in reference.offsets("64qam")]
    assert kinds.count("type1") == kinds.count("type2") == 32
    for m in (3, 4, 5):
        perms = len(reference.canonical_permutations(m))
        for modulation, offsets in (("16qam", 8), ("64qam", 64)):
            assert reference.family_size(m, modulation) == offsets * perms * 4 ** (m + 1)
    assert checks.kind_sizes(4, "64qam") == {"type1": 393216, "type2": 393216}


def test_example_16qam_from_the_paper():
    comps, h, hp = reference.synthesize(3, EXAMPLE_PI, EXAMPLE_LINEAR, 0, {"d1": 0, "d2": 1, "d3": 1})
    assert comps[0].tolist() == [0, 1, 1, 0, 1, 2, 0, 3]
    assert comps[1].tolist() == [1, 2, 3, 2, 2, 3, 0, 3]
    assert reference.lattice(h, "16qam") == [[1, 3], [-3, 1], [-1, 1], [1, 1],
                                             [-3, 1], [-1, -3], [3, 3], [3, -3]]
    assert reference.star(h, hp) / 8 == pytest.approx(2.4, abs=1e-12)
    assert 2.0 < reference.pmepr(h) <= 2.4
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0)


def test_example_64qam_type1_from_the_paper():
    offset = {"kind": "type1", "d1": 0, "d2": 1, "d3": 1, "h1": 0, "h2": 0, "h3": 0}
    comps, h, hp = reference.synthesize(3, EXAMPLE_PI, EXAMPLE_LINEAR, 0, offset)
    assert [c.tolist() for c in comps] == [[0, 1, 1, 0, 1, 2, 0, 3], [0, 1, 1, 0, 1, 2, 0, 3],
                                           [1, 2, 3, 2, 2, 3, 0, 3]]
    pairs = reference.lattice(h, "64qam")
    assert [p[0] for p in pairs] == [5, -7, -5, 5, -7, -5, 7, 7]
    assert [p[1] for p in pairs] == [7, 5, 5, 5, 5, -7, 7, -7]
    problems, s, p = reference.check_params(3, EXAMPLE_PI, EXAMPLE_LINEAR, 0, offset)
    assert problems == [] and p <= s <= float(Fraction(76, 21)) + reference.TOL


def test_pmepr_dense_dft_matches_a_fine_grid():
    h = reference.qam(reference.components(4, (0, 2, 1, 3), (1, 0, 3, 2), 1, {"d1": 2, "d2": 1, "d3": 0}))
    t = np.linspace(0, 1, 20000, endpoint=False)
    fine = np.max(np.abs(np.exp(2j * np.pi * np.outer(t, np.arange(16))) @ h) ** 2) / 16
    assert reference.pmepr(h) == pytest.approx(fine, rel=5e-3)
    assert reference.pmepr(h) <= fine + 1e-12


def test_negative_control_constraint_violating_offset():
    problems, s, _ = reference.check_params(3, EXAMPLE_PI, EXAMPLE_LINEAR, 0, {"d1": 0, "d2": 0, "d3": 0})
    assert "offset violates d1+2*d3=2" in problems and "offset violates 2*d2=2" in problems
    # the bound check alone rejects it too, not only the congruence test
    assert s > 2.4 and any("exceeds the ceiling" in p for p in problems)


def test_negative_control_type1_offset_breaking_its_congruence():
    offset = {"kind": "type1", "d1": 0, "d2": 1, "d3": 1, "h1": 2, "h2": 0, "h3": 0}
    problems, _, _ = reference.check_params(3, EXAMPLE_PI, EXAMPLE_LINEAR, 0, offset)
    assert "offset violates h1+2*h3=0" in problems


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_accepts_qamseq_records(modulation):
    for doc in qamseq_docs(3, modulation, count=64, stride=97):
        assert reference.check_record(doc) == []


def test_negative_control_swapped_primed_sequence():
    first, second = qamseq_docs(3, Modulation.QAM16, count=2, stride=5)
    first["primed_symbols"] = second["primed_symbols"]
    assert "primed symbols differ" in reference.check_record(first)


def test_verify_check_rejects_a_report_above_the_ceiling(tmp_path):
    out = tmp_path / "report.json"
    assert qamseq_main(["verify", "--suite", "all", "--m", "3", "--jobs", "1", "--out", str(out)]) == 0
    assert checks.verify_all(str(out), 0, np.random.default_rng(1), m=3) == []
    report = json.loads(out.read_text())
    for check in report["checks"]:
        if check["name"] == "bounds.16qam.m3.qam16.star":
            check["observed"] = check["observed"].replace("max star/n = 2.400000000000",
                                                          "max star/n = 2.400000100000")
    out.write_text(json.dumps(report))
    problems = checks.verify_all(str(out), 0, np.random.default_rng(1), m=3)
    assert any("max star/n 2.4000001 above 12/5" in p for p in problems)


def test_ccdf_check_accepts_qamseq_and_rejects_a_nonzero_tail(tmp_path):
    out = tmp_path / "ccdf.csv"
    args = ["ccdf", "--m", "3", "--modulation", "16qam", "--baseline-count", "500", "--out", str(out)]
    assert qamseq_main(args) == 0
    assert checks.ccdf_16qam(str(out), 0, np.random.default_rng(3), m=3) == []
    lines = out.read_text().splitlines()
    row = lines.index(next(line for line in lines if line.startswith("3,")))
    fields = lines[row].split(",")
    fields[2] = "0.5"  # beyond the 12/5 ceiling
    lines[row] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    problems = checks.ccdf_16qam(str(out), 0, np.random.default_rng(3), m=3)
    assert any("ccdf_constructed not 0 at every threshold" in p for p in problems)
    assert any("ccdf_constructed increases somewhere" in p for p in problems)


def test_ccdf_check_rejects_a_shifted_curve(tmp_path):
    out = tmp_path / "ccdf.csv"
    assert qamseq_main(["ccdf", "--m", "3", "--modulation", "16qam", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    shifted = lines[:2] + [",".join(a.split(",")[:2] + b.split(",")[2:])
                           for a, b in zip(lines[2:], lines[3:] + lines[-1:])]
    out.write_text("\n".join(shifted) + "\n")
    problems = checks.ccdf_16qam(str(out), 0, np.random.default_rng(3), m=3)
    assert any("sampled members above it" in p for p in problems)


def test_enumerate_check_flags_duplicates_and_swapped_records(tmp_path):
    docs = qamseq_docs(3, Modulation.QAM64, count=300, stride=1)
    path = tmp_path / "family.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    expected = f"300 lines, expected {reference.family_size(3, '64qam')}"
    found = checks.enumerate_records(str(path), 0, np.random.default_rng(5), m=3, modulation="64qam")
    assert found == [expected]
    docs[7]["primed_symbols"] = docs[8]["primed_symbols"]
    docs[9] = docs[10]
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    problems = checks.enumerate_records(str(path), 0, np.random.default_rng(5), m=3, modulation="64qam",
                                        sample_size=reference.family_size(3, "64qam"))
    assert "line 8: primed symbols differ" in problems
    assert "only 299 distinct (pi, linear, constant, offset) of 300" in problems


def test_reported_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    layer_names = [f"{n}_s" for n in run.LAYER_TIMES] + run.LAYER_COUNTS
    layer_names += ["trace.wall_s", "trace.overhead_s", "host.calibration_s"]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(layer_names)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
