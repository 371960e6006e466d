import json

import numpy as np
import pytest

import oracles
from qamseq.cli import (
    codeword_doc,
    family_pmeprs,
    main,
    params_from_doc,
    verify_codeword_doc,
)
from qamseq.constructions import ConstructionParams, Modulation, build, parameter_grid
from qamseq.gbf import PathQuadratic
from qamseq.verification import EXAMPLE1_PARAMS, EXAMPLE2_PARAMS

EX1_FLAGS = ["--modulation", "16qam", "--pi", "0,1,2", "--c", "1,1,1,0", "--offset", "0,1,1"]
EX2_FLAGS = ["--modulation", "64qam", "--pi", "0,1,2", "--c", "1,1,1,0", "--offset", "0,1,1,0,0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_example1_json(capsys):
    code, out, _ = run(capsys, "construct", *EX1_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == [0, 1, 1, 0, 1, 2, 0, 3]
    assert doc["components"] == [[1, 2, 3, 2, 2, 3, 0, 3]]
    assert doc["scale_denominator"] == 10
    assert doc["symbols"][6] == [3, 3]
    assert doc["symbols"][7] == [3, -3]


def test_construct_example2_first_symbol(capsys):
    code, out, _ = run(capsys, "construct", *EX2_FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["symbols"][0] == [5, 7]
    assert doc["offset"]["kind"] == "type1"
    assert doc["scale_denominator"] == 42


def test_construct_invalid_offset_names_constraint(capsys):
    code, _, err = run(
        capsys, "construct", "--modulation", "16qam", "--pi", "0,1,2",
        "--c", "1,1,1,0", "--offset", "0,0,0",
    )
    assert code == 2
    assert "d1+2*d3=2" in err


def test_construct_small_m_rejected(capsys):
    code, _, err = run(
        capsys, "construct", "--modulation", "16qam", "--pi", "0,1",
        "--c", "0,0,0", "--offset", "0,1,1",
    )
    assert code == 2
    assert "m > 2" in err


def test_construct_bad_permutation_rejected(capsys):
    code, _, err = run(
        capsys, "construct", "--modulation", "16qam", "--pi", "0,1,1",
        "--c", "1,1,1,0", "--offset", "0,1,1",
    )
    assert code == 2
    assert "permutation" in err


def test_construct_coefficient_count_checked(capsys):
    code, _, err = run(
        capsys, "construct", "--modulation", "16qam", "--pi", "0,1,2",
        "--c", "1,1,1", "--offset", "0,1,1",
    )
    assert code == 2
    assert "linear coefficients plus the constant" in err


def test_construct_m_flag_consistency(capsys):
    code, _, err = run(
        capsys, "construct", "--m", "4", "--modulation", "16qam",
        "--pi", "0,1,2", "--c", "1,1,1,0", "--offset", "0,1,1",
    )
    assert code == 2
    assert "disagrees" in err


def test_construct_csv_format(capsys):
    code, out, _ = run(capsys, "construct", *EX1_FLAGS, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    header = [l for l in lines if l.startswith("index,")]
    assert header == ["index,base,component1,re,im,primed_re,primed_im"]
    rows = [l for l in lines if not l.startswith("#") and not l.startswith("index")]
    assert len(rows) == 8
    assert rows[6].startswith("6,0,0,3,3")


def test_construct_deterministic(capsys):
    _, first, _ = run(capsys, "construct", *EX1_FLAGS)
    _, second, _ = run(capsys, "construct", *EX1_FLAGS)
    assert first == second


@pytest.mark.parametrize(
    "m,modulation,expected",
    [(3, "16qam", 6144), (4, "16qam", 98304), (3, "64qam", 49152)],
)
def test_enumerate_count_only(capsys, m, modulation, expected):
    code, out, _ = run(
        capsys, "enumerate", "--m", str(m), "--modulation", modulation, "--count-only"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] == expected
    assert doc["enumerated"] == expected
    assert doc["match"] is True


def test_enumerate_cap_requires_stream(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "5", "--modulation", "16qam", "--count-only")
    assert code == 2
    assert "--stream" in err


def test_enumerate_stream_emits_records(capsys, tmp_path):
    out_path = tmp_path / "family.jsonl"
    code, _, _ = run(
        capsys, "enumerate", "--m", "3", "--modulation", "16qam", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 6144
    first = json.loads(lines[0])
    assert first["pi"] == [0, 1, 2]
    assert first["linear"] == [0, 0, 0]
    assert first["offset"] == {"d1": 0, "d2": 1, "d3": 1}
    last = json.loads(lines[-1])
    assert last["pi"] == [1, 0, 2]
    # every streamed record passes its own round-trip verification
    for raw in lines[:: 1024]:
        assert verify_codeword_doc(json.loads(raw)) == []


def test_enumerate_writes_every_record_in_grid_order_as_the_per_record_oracle(capsys, tmp_path):
    out_path = tmp_path / "family.jsonl"
    code, _, _ = run(
        capsys, "enumerate", "--m", "3", "--modulation", "16qam", "--out", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    grid = list(parameter_grid(3, Modulation.QAM16))
    assert len(lines) == len(grid) == 6144
    for index, (line, (pi, linear, constant, offset)) in enumerate(zip(lines, grid)):
        doc = json.loads(line)
        assert (doc["pi"], doc["linear"], doc["constant"]) == (list(pi), list(linear), constant)
        if index % 97 == 0:
            base = PathQuadratic(m=3, pi=pi, linear=linear, constant=constant)
            record = build(ConstructionParams(base=base, offset=offset))
            oracle = codeword_doc(
                record,
                16,
                star_value=oracles.star(record.sequence, record.primed_sequence),
                pmepr_value=oracles.pmepr(record.sequence),
            )
            assert line == json.dumps(oracle, sort_keys=True)


@pytest.mark.parametrize("command", ["ccdf", "enumerate"])
def test_oversample_below_one_is_a_usage_error(capsys, tmp_path, command):
    out_path = tmp_path / "out"
    out_path.write_text("earlier output\n")
    code, _, err = run(
        capsys, command, "--m", "3", "--modulation", "16qam", "--oversample", "0",
        "--out", str(out_path),
    )
    assert code == 2
    assert "error: oversample must be >= 1, got 0" in err
    # a usage error leaves an existing output file as it was
    assert out_path.read_text() == "earlier output\n"


def test_malformed_qamseq_jobs_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QAMSEQ_JOBS", "abc")
    code, out, err = run(capsys, "verify", "--suite", "examples")
    assert code == 2
    assert out == ""
    assert "QAMSEQ_JOBS" in err and "'abc'" in err


@pytest.mark.parametrize(
    "flags,env",
    [(["--jobs", "0"], None), (["--jobs", "-5"], None), ([], "0")],
    ids=["jobs=0", "jobs=-5", "QAMSEQ_JOBS=0"],
)
def test_worker_count_below_one_is_a_usage_error(capsys, monkeypatch, flags, env):
    if env is None:
        monkeypatch.delenv("QAMSEQ_JOBS", raising=False)
    else:
        monkeypatch.setenv("QAMSEQ_JOBS", env)
    code, out, err = run(capsys, "ccdf", "--m", "3", "--modulation", "16qam", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: worker count") and "must be >= 1" in err


def test_family_pmeprs_do_not_depend_on_jobs():
    serial = family_pmeprs(3, Modulation.QAM64, jobs=1)
    parallel = family_pmeprs(3, Modulation.QAM64, jobs=2)
    assert list(serial) == list(parallel) == ["type1", "type2"]
    for kind in serial:
        assert np.array_equal(serial[kind], parallel[kind])


def test_ccdf_16qam_zero_beyond_bound(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "ccdf", "--m", "3", "--modulation", "16qam",
        "--baseline-count", "2000", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[1] == "threshold_linear,threshold_db,ccdf_constructed,ccdf_baseline"
    rows = [l.split(",") for l in lines[2:]]
    for row in rows:
        if float(row[0]) >= 2.4:
            assert float(row[2]) == 0.0
    at_24 = next(row for row in rows if abs(float(row[0]) - 2.4) < 1e-9)
    assert float(at_24[3]) > 0.0


def test_ccdf_64qam_per_type_columns(capsys, tmp_path):
    out_path = tmp_path / "curve64.csv"
    code, _, _ = run(
        capsys, "ccdf", "--m", "3", "--modulation", "64qam",
        "--baseline-count", "500", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header = lines[1].split(",")
    assert header == [
        "threshold_linear", "threshold_db", "ccdf_constructed",
        "ccdf_type1", "ccdf_type2", "ccdf_baseline",
    ]
    for line in lines[2:]:
        row = line.split(",")
        if float(row[0]) >= 3.62:
            assert float(row[3]) == 0.0
        if float(row[0]) >= 2.48:
            assert float(row[4]) == 0.0


def test_ccdf_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "ccdf", "--m", "3", "--modulation", "16qam",
            "--baseline-count", "300", "--seed", "7", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_examples_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "examples")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert any(c["name"] == "example1.pmepr" for c in report["checks"])
    assert "PASS" in err


def test_verify_lemmas_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_verify_bounds_suite(capsys):
    code, out, err = run(capsys, "verify", "--m", "3", "--suite", "bounds")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "bounds.16qam.m3.qam16.star" in names
    assert "bounds.64qam.m3.type2.pmepr" in names
    assert "analysis.parseval" in names
    assert "analysis.oversampling_adequacy" in names


def test_verify_record_roundtrip(capsys, tmp_path):
    path = tmp_path / "ex2.json"
    code, _, _ = run(capsys, "construct", *EX2_FLAGS, "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_corrupted_record_fails(capsys, tmp_path):
    path = tmp_path / "bad.json"
    code, _, _ = run(capsys, "construct", *EX1_FLAGS, "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["symbols"][2] = [1, 1]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["problems"]


def test_verify_missing_record_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--record", str(tmp_path / "absent.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read --record") and len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["symbols", "primed_symbols", "base", "components"])
def test_verify_record_without_payload_fails(capsys, tmp_path, key):
    path = tmp_path / "partial.json"
    code, _, _ = run(capsys, "construct", *EX1_FLAGS, "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["problems"] == [f"record has no {key!r}"]


@pytest.mark.parametrize(
    "key,value",
    [
        ("symbols", [[1]]),
        ("primed_symbols", "x"),
        ("base", 5),
        ("components", 3),
        ("star", "abc"),
        ("scale_denominator", 7),
    ],
)
def test_verify_record_with_malformed_payload_fails(capsys, tmp_path, key, value):
    # the record, not the command line, is at fault: one problem naming the field, exit 1
    path = tmp_path / "malformed.json"
    code, _, _ = run(capsys, "construct", *EX1_FLAGS, "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--record", str(path))
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["passed"] is False
    assert len(report["problems"]) == 1
    assert report["problems"][0].startswith(f"record field {key!r} is not ")


@pytest.mark.parametrize(
    "key,value,problem",
    [
        ("symbols", [], "symbols do not match regeneration from parameters"),
        ("star", float("nan"), "stored star value does not match recomputation"),
    ],
)
def test_verify_record_with_wrong_payload_values_fails(capsys, tmp_path, key, value, problem):
    path = tmp_path / "wrong.json"
    code, _, _ = run(capsys, "construct", *EX1_FLAGS, "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 1
    assert json.loads(out)["problems"] == [problem]


def test_verify_record_that_is_not_an_object_fails(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 1
    assert json.loads(out)["problems"][0].startswith("unparseable parameters")


def test_codeword_doc_roundtrip_functions():
    record = build(EXAMPLE1_PARAMS)
    doc = codeword_doc(record)
    assert verify_codeword_doc(doc) == []
    assert params_from_doc(doc) == EXAMPLE1_PARAMS
    record64 = build(EXAMPLE2_PARAMS)
    doc64 = codeword_doc(record64)
    assert verify_codeword_doc(doc64) == []
    assert params_from_doc(doc64) == EXAMPLE2_PARAMS
