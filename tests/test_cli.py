import errno
import hashlib
import json
import os
import random
import sys

import numpy as np
import pytest

import oracles
from oracles import family_rows, orbit_rows, parameter_grid, traced_peak
from qamseq import analysis, cli, constructions, verification
from qamseq.analysis import default_threshold_grid, pep_batch
from qamseq.cli import (
    EXIT_BROKEN_PIPE,
    _PAIR_TEXTS,
    _z4_texts,
    codeword_doc,
    codeword_lines,
    family_pmeprs,
    main,
    params_from_doc,
    verify_codeword_doc,
)
from qamseq.constellation import _qam_table
from qamseq.constructions import (
    ConstructionParams,
    Modulation,
    build_block,
    count_enumerated,
    enumerate_family,
    iter_family_chunks,
    list_offsets16,
    list_offsets64,
    orbit_offsets,
)
from qamseq.gbf import PathQuadratic
from qamseq.verification import (
    EXAMPLE1_PARAMS,
    EXAMPLE2_PARAMS,
    lemma_sweep,
    theorem_bound_audit,
)

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


def test_enumerate_count_only_sees_a_dropped_chunk(capsys, monkeypatch):
    # negative control: a cell walk that loses its last cell loses records
    # from enumerate, and the count, which reads the same cells, must show
    # it; so must the audit's count, when its orbit walk loses the last
    # cell of each run
    real = constructions.family_cells
    monkeypatch.setattr(constructions, "family_cells", lambda *args: list(real(*args))[:-1])
    code, out, _ = run(capsys, "enumerate", "--m", "3", "--modulation", "16qam", "--count-only")
    assert code == 1
    doc = json.loads(out)
    assert doc["closed_form"] == 6144 > doc["enumerated"]
    assert doc["match"] is False
    runs = verification.orbit_runs
    monkeypatch.setattr(verification, "orbit_runs", lambda *args: [r[:-1] for r in runs(*args)])
    report = theorem_bound_audit(3, Modulation.QAM16)
    assert report.total < 6144
    assert [c.name for c in report.checks() if not c.passed] == ["bounds.16qam.m3.count"]


def split_walk_outputs(capsys, tmp_path):
    """Every family walk's output at m=3: both audits at jobs 1 and 2, the
    lemma sweep, a ccdf CSV and enumerate's JSONL bytes."""
    audits = [theorem_bound_audit(3, modulation, jobs=jobs)
              for modulation in (Modulation.QAM16, Modulation.QAM64) for jobs in (1, 2)]
    files = {}
    for name, argv in (
        ("ccdf", ["ccdf", "--m", "3", "--modulation", "64qam", "--baseline-count", "100"]),
        ("enumerate", ["enumerate", "--m", "3", "--modulation", "16qam"]),
    ):
        path = tmp_path / name
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        files[name] = path.read_bytes()
    return audits, lemma_sweep(3), files


def test_splitting_the_family_into_more_cells_changes_no_result(capsys, monkeypatch, tmp_path):
    default = split_walk_outputs(capsys, tmp_path)
    # 200 symbols: 25-row slices of the 64 orbit rows for the n-symbol walks
    # (25, 25, 14), one orbit row per cell for enumerate's 256-symbol rows
    monkeypatch.setattr(constructions, "CHUNK_SYMBOLS", 200)
    cells = [len(rows) for _, rows in family_rows(3, 8)]
    assert cells == [25, 25, 14] * 3
    assert len(list(constructions.family_cells(3, 256))) == 64 * 3
    assert split_walk_outputs(capsys, tmp_path) == default


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
    out64 = tmp_path / "family64.jsonl"
    code, _, _ = run(
        capsys, "enumerate", "--m", "3", "--modulation", "64qam", "--out", str(out64)
    )
    assert code == 0
    lines64 = out64.read_text().splitlines()
    assert len(lines64) == 49152
    for raw in lines64[:: 4093]:  # both offset kinds under every pi
        assert verify_codeword_doc(json.loads(raw)) == []


def enumerate_m3(capsys, tmp_path, modulation: Modulation) -> list[str]:
    """The lines `enumerate --m 3` writes for this modulation."""
    out_path = tmp_path / f"{modulation.value}.jsonl"
    code, _, _ = run(
        capsys, "enumerate", "--m", "3", "--modulation", modulation.value, "--out", str(out_path)
    )
    assert code == 0
    return out_path.read_text().splitlines()


def grid_params(m: int, modulation: Modulation) -> list[ConstructionParams]:
    """The parameters of every record, in enumeration order."""
    return [
        ConstructionParams(PathQuadratic(m=m, pi=pi, linear=linear, constant=constant), offset)
        for pi, linear, constant, offset in parameter_grid(m, modulation)
    ]


def test_enumerate_writes_every_record_in_grid_order_as_the_per_record_oracle(capsys, tmp_path):
    lines = enumerate_m3(capsys, tmp_path, Modulation.QAM16)
    grid = grid_params(3, Modulation.QAM16)
    assert len(lines) == len(grid) == 6144
    for index, (line, params) in enumerate(zip(lines, grid)):
        assert line == json.dumps(oracles.codeword_doc(params), sort_keys=True), index
        if index % 97 == 0:  # scored by the literal star sum and envelope as well
            literal = oracles.codeword_doc(params, star_of=oracles.star, pmepr_of=oracles.pmepr)
            assert line == json.dumps(literal, sort_keys=True), index


def test_enumerate_64qam_sample_is_the_per_record_oracle(capsys, tmp_path):
    lines = enumerate_m3(capsys, tmp_path, Modulation.QAM64)
    grid = grid_params(3, Modulation.QAM64)
    assert len(lines) == len(grid) == 49152
    # per pi, 256 coefficient rows of 64 offsets: 32 type 1, then 32 type 2
    sample = [pi * 16384 + row * 64 + offset
              for pi in range(3) for row, offset in ((0, 0), (97, 31), (130, 32), (255, 63))]
    kinds = {(grid[i].base.pi, grid[i].offset.kind) for i in sample}
    assert len(kinds) == 6
    for index in sample:
        literal = oracles.codeword_doc(grid[index], star_of=oracles.star, pmepr_of=oracles.pmepr)
        assert lines[index] == json.dumps(literal, sort_keys=True), index


@pytest.mark.parametrize("modulation, stride", [(Modulation.QAM16, 7), (Modulation.QAM64, 61)])
def test_enumerate_family_yields_the_parameters_of_the_chunk_lines(modulation, stride):
    # enumerate_family builds nothing: it yields the (pi, linear, constant,
    # offset) of each row x offset of the iter_family_chunks blocks, in the
    # order codeword_lines writes them, and as many as count_enumerated
    # says; the document of a strided sample, built anew from the yielded
    # parameters, is the line written for that position
    params = enumerate_family(3, modulation)
    index = 0
    for block in iter_family_chunks(3, modulation):
        lines = "".join(codeword_lines(block, 16)).splitlines(keepends=True)
        for row in block.coeffs.tolist():
            for offset in block.offsets:
                p = next(params)
                assert (p.base.pi, p.base.linear, p.base.constant, p.offset) == (
                    block.pi, tuple(row[:3]), row[3], offset)
                if index % stride == 0:
                    doc = json.dumps(codeword_doc(p), sort_keys=True) + "\n"
                    assert doc == lines[index % len(block)], index
                index += 1
    assert next(params, None) is None
    assert index == count_enumerated(3, modulation)


def test_n32_lines_of_a_multi_slice_block_are_the_per_record_oracle():
    block = next(iter_family_chunks(5, Modulation.QAM16))
    lines = "".join(codeword_lines(block, 16)).splitlines()
    offsets = len(block.offsets)
    assert len(lines) == len(block) == 1024
    # rows in the first, a middle and the last slice of the block, and every offset
    for row, o in [(0, 0), (1, 7), (3, 3), (17, 2), (40, 5), (63, 1), (64, 6), (77, 0),
                   (96, 4), (101, 7), (126, 3), (127, 0)]:
        linear, constant = block.coeffs[row, :5].tolist(), int(block.coeffs[row, 5])
        base = PathQuadratic(m=5, pi=block.pi, linear=tuple(linear), constant=constant)
        params = ConstructionParams(base, block.offsets[o])
        assert lines[row * offsets + o] == json.dumps(oracles.codeword_doc(params), sort_keys=True)


def test_pair_table_holds_the_json_of_every_lattice_pair_and_its_negation():
    for k in (2, 3):  # 16-QAM and 64-QAM
        points = _qam_table(k)
        for z in (*points, *-points):
            re, im = int(z.real), int(z.imag)
            assert _PAIR_TEXTS[8 * ((re + 7) // 2) + (im + 7) // 2] == json.dumps([re, im])


@pytest.mark.parametrize("n", [3, 8, 16, 32])
def test_z4_list_texts_are_the_json_of_the_lists(n):
    rng = np.random.default_rng(n)
    digits = np.concatenate([
        np.full((1, n), 0), np.full((1, n), 3), rng.integers(0, 4, size=(200, n))
    ]).astype(np.uint8)
    texts = _z4_texts(digits.reshape(2, -1, n))
    assert texts.shape == (2, len(digits) // 2)
    assert texts.ravel().tolist() == [json.dumps(row) for row in digits.tolist()]


# sha256 of outputs written by the record-by-record renderer that the block
# renderer replaced (enumerate, construct) and by the one-offset-at-a-time
# scorers that the cell scorers replaced (the verify report, the ccdf
# curves): each output has stayed the same byte for byte.  The m=4 verify
# reports and the 64qam m=4 curves are those of the walk over every offset,
# before the walk took one offset per conjugation x reversal orbit.  Every
# verify report is that earlier report less its two analysis.* checks (the
# envelope kernel's self-test, now run by the tests alone), with each
# .pmepr check's requirement naming the star chain it reads; every
# observed value and verdict is the same
PINNED_SHA256 = [
    (["enumerate", "--m", "3", "--modulation", "16qam"],
     "c7cea8093a6aaa574b6bbfbfec0c411f6d459f6d67bf39d4665db521665e9365"),
    (["enumerate", "--m", "3", "--modulation", "64qam"],
     "d8787ece08a4fb9aca5df0ce705006ff6101e86fad71c7435cc70b0e5dfc70cd"),
    (["enumerate", "--m", "4", "--modulation", "16qam"],
     "24bf7a34a870dcdb038a6137a8d5bee7b7e6ee50a2a3f0e20428e13d4fc221df"),
    (["construct", *EX1_FLAGS],
     "9e48fea47afecbfc12ac531fa8c0376d6141a97882e50f502eca87573b86e673"),
    (["construct", *EX2_FLAGS],
     "1dcd390d6dcd2c782688abb71b8562f2504f31d8d3c927103217d59112f2ca2c"),
    (["construct", *EX1_FLAGS, "--format", "csv"],
     "fe5290806856b8e9064f1704c636a931207c50aa8b711f55f5a67114a33d924e"),
    (["verify", "--suite", "all", "--m", "3", "--jobs", "1"],
     "01a70e73734aa2d95d6312192671f2211ec4df8f8ba791dadccd3013446d1f9a"),
    (["verify", "--suite", "all", "--m", "3", "--jobs", "2"],
     "01a70e73734aa2d95d6312192671f2211ec4df8f8ba791dadccd3013446d1f9a"),
    (["ccdf", "--m", "4", "--modulation", "16qam", "--baseline-count", "10000", "--seed", "42"],
     "53c1773248316ccac95f81fa3352f2f4c5321721030c7dbfcbc77ca58bd4a67f"),
    (["ccdf", "--m", "3", "--modulation", "64qam"],
     "f5119e86cf9c861e9076da37bb141e941ea726988c1b66b977c0301b727e0e5c"),
    (["verify", "--suite", "all", "--m", "4", "--jobs", "1"],
     "9a9e703bfa2cd57f0f0ae10e6e2cefbe71a137242503b9d4947c0bd6eb7eb84b"),
    (["verify", "--suite", "all", "--m", "4", "--jobs", "2"],
     "9a9e703bfa2cd57f0f0ae10e6e2cefbe71a137242503b9d4947c0bd6eb7eb84b"),
    (["ccdf", "--m", "4", "--modulation", "64qam"],
     "2388bbdec103ee5d874eb57027849f8d629d13ba1a7ee54195722b4d79eada32"),
    # an odd oversampling rate: the grid is not a power of two, and the
    # computed PEPs of one orbit's records differ in their last bits
    (["ccdf", "--m", "4", "--modulation", "16qam", "--oversample", "3"],
     "79a6b10e3f6fee2a64361ba164e707395b0be6905e35fb6b31b0506a48c61fe7"),
    (["verify", "--suite", "bounds", "--m", "3", "--oversample", "3", "--jobs", "1"],
     "18da90dd778a8725fcd85aed234f644c6a2417e132a9be701caa198959c5c7c9"),
    # n = 8: the most baseline rows lie within the envelope screen's margin
    # of a threshold, many of them on one to within rounding
    (["ccdf", "--m", "3", "--modulation", "16qam"],
     "c31c841f01a7836fdeb4d516bc739a9d4db2d4a51986e553d9cb3a8c28b36f19"),
    # the lemma sweep alone at m=5, on one row per quarter-shift orbit:
    # the report of a walk over every row
    (["verify", "--suite", "lemmas", "--m", "5"],
     "568d8f498b3845943f6f7f434a1b3b8f05b2a2619e502c2df992c9ec7ee34557"),
    # both bound audits at m=5, whose walk splits each pi's 256 orbit rows
    # into several runs: the report of runs of 32 rows, before a run took
    # as many rows as fit the symbol budget
    (["verify", "--suite", "bounds", "--m", "5", "--jobs", "1"],
     "69b44ed1b998fd116a4e5f78c387b218a067d8176ffaa09ee34af8e42b949b36"),
]


@pytest.mark.parametrize("argv,digest", PINNED_SHA256, ids=[
    "enumerate-16qam-m3", "enumerate-64qam-m3", "enumerate-16qam-m4", "construct-16qam",
    "construct-64qam", "construct-16qam-csv", "verify-all-m3-jobs1", "verify-all-m3-jobs2",
    "ccdf-16qam-m4", "ccdf-64qam-m3", "verify-all-m4-jobs1", "verify-all-m4-jobs2",
    "ccdf-64qam-m4", "ccdf-16qam-m4-L3", "verify-bounds-m3-L3", "ccdf-16qam-m3",
    "verify-lemmas-m5", "verify-bounds-m5",
])
def test_output_bytes_are_pinned(capsys, tmp_path, argv, digest):
    path = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_an_unwritable_out_is_a_usage_error(capsys, tmp_path):
    absent = tmp_path / "absent" / "record.json"
    code, out, err = run(capsys, "construct", *EX1_FLAGS, "--out", str(absent))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {absent}: {os.strerror(errno.ENOENT)}\n"
    code, out, err = run(
        capsys, "enumerate", "--m", "3", "--modulation", "16qam", "--out", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {tmp_path}: {os.strerror(errno.EISDIR)}\n"
    # the usage checks run before the file is opened, so a rejected command
    # line leaves an existing file as it was
    kept = tmp_path / "kept.jsonl"
    kept.write_text("kept\n")
    code, _, err = run(
        capsys, "enumerate", "--m", "5", "--modulation", "16qam", "--out", str(kept)
    )
    assert code == 2 and "--stream" in err
    assert kept.read_text() == "kept\n"


def test_a_closed_stdout_is_not_a_library_fault(capsys, monkeypatch, tmp_path):
    # `qamseq enumerate ... | head`: the reader leaves, and the next write fails
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        writelines = write

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        code = main(["enumerate", "--m", "3", "--modulation", "16qam"])
        # the stream's descriptor now points at devnull, so the flush at exit
        # writes nowhere instead of failing again
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
        monkeypatch.undo()
    assert code == EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr() == ("", "")


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


@pytest.mark.parametrize("jobs", ["0", "-5"], ids=["jobs=0", "jobs=-5"])
def test_worker_count_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, "ccdf", "--m", "3", "--modulation", "16qam", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err.startswith("error: worker count") and "must be >= 1" in err


@pytest.mark.parametrize("m, modulation", [
    (3, Modulation.QAM16), (4, Modulation.QAM16), (3, Modulation.QAM64),
])
def test_family_pmeprs_equal_the_full_walk(m, modulation):
    # the counts are exactly the full walk's records above every threshold
    # they were refined at: the CCDF grid, and every distinct PMEPR
    # of the family, so that no threshold can sit between two members of
    # an orbit unseen
    assert family_pmeprs_count_the_full_walk(m, modulation, 16)


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_family_pmeprs_equal_the_full_walk_at_an_odd_rate(modulation):
    # at L = 5 the grid is not a power of two, and the computed PEPs of an
    # orbit's quarter shifts differ in their last bits
    assert family_pmeprs_count_the_full_walk(3, modulation, 5)


def test_an_odd_rate_ccdf_needs_the_quarter_shift_images(monkeypatch):
    # negative control: a refinement that computes only the conjugation x
    # reversal images of a near row gives the full walk's counts at L = 16,
    # but at L = 5 it misses records on the CCDF grid itself
    monkeypatch.setattr(analysis, "orbit_peps", oracles.conjugation_reversal_peps)
    assert family_pmeprs_count_the_full_walk(3, Modulation.QAM16, 16)
    assert not family_pmeprs_count_the_full_walk(3, Modulation.QAM16, 5, grid_only=True)


def family_pmeprs_count_the_full_walk(m, modulation, oversample, grid_only=False):
    """Whether family_pmeprs, refined at the CCDF grid and (unless
    grid_only) at every distinct full-walk PMEPR, gives each kind's int64
    counts as the full walk's: its size, then its records above each of
    those thresholds."""
    full = oracles.full_family_pmeprs(m, modulation, oversample)
    grids = [default_threshold_grid()]
    if not grid_only:
        grids.append(np.unique(np.concatenate(list(full.values()))))
    for thresholds in grids:
        ours = family_pmeprs(m, modulation, thresholds, oversample, jobs=1)
        if list(ours) != list(full) or not all(
                ours[kind].dtype == np.int64
                and np.array_equal(ours[kind], records_above(full[kind], thresholds))
                for kind in full):
            return False
    return True


def records_above(values, thresholds):
    """The counts of the full walk's PMEPRs, one per record: the records,
    then the records strictly above each threshold."""
    return np.array([values.size, *(np.count_nonzero(values > t) for t in thresholds)])


def test_family_pmeprs_refuse_thresholds_out_of_order():
    # the screen finds the threshold nearest each PMEPR by a binary search,
    # which reads wrong neighbours from thresholds out of order: the
    # distinct full-walk PMEPRs shuffled, reversed or with a NaN are
    # refused, and ascending they give the full walk's records above each
    full = oracles.full_family_pmeprs(3, Modulation.QAM16)["qam16"]
    ascending = np.unique(full)
    shuffled = np.random.default_rng(0).permutation(ascending)
    for thresholds in (shuffled, ascending[::-1], np.append(ascending, np.nan)):
        with pytest.raises(ValueError, match="points must be ascending"):
            family_pmeprs(3, Modulation.QAM16, thresholds)
    counts = family_pmeprs(3, Modulation.QAM16, ascending)["qam16"]
    assert np.array_equal(counts, records_above(full, ascending))


def test_family_pmeprs_refuse_an_empty_grid():
    # no point is nearest a PMEPR on an empty grid: the screen's search
    # indexed past its end (IndexError) before the grid was refused
    with pytest.raises(ValueError, match="points must be ascending and nonempty"):
        family_pmeprs(3, Modulation.QAM16, [])


def test_family_pmeprs_do_not_depend_on_jobs():
    thresholds = default_threshold_grid()
    serial = family_pmeprs(3, Modulation.QAM64, thresholds, jobs=1)
    parallel = family_pmeprs(3, Modulation.QAM64, thresholds, jobs=2)
    assert list(serial) == list(parallel) == ["type1", "type2"]
    for kind in serial:
        assert np.array_equal(serial[kind], parallel[kind])


def test_family_pmeprs_memory_stays_flat_in_m():
    # each run's PMEPRs are counted and dropped as the run ends, so the
    # traced peak is one run's, not the whole family's multiset: 64-QAM
    # m = 5 has 20 times the orbit rows of m = 4.  Holding every run's
    # PMEPRs and weights until the walk ended peaked at about 4.4 times m = 4
    thresholds = default_threshold_grid()
    family_pmeprs(3, Modulation.QAM64, thresholds)  # imports, caches
    peaks = [traced_peak(lambda: family_pmeprs(m, Modulation.QAM64, thresholds))
             for m in (4, 5)]
    assert peaks[1] <= 1.5 * peaks[0]


def test_a_threshold_between_two_members_of_an_orbit_is_counted_exactly(monkeypatch):
    # an orbit row whose PEP lies above that of one of its conjugation x
    # reversal images, bit for bit: a threshold at the image's PMEPR has
    # the row above it and the image not.  The refinement counts each
    # member on its own side, as the full walk does; with the spread
    # forced to 0 the row decides for its whole orbit, and the count is off
    m, modulation = 3, Modulation.QAM16
    block = build_block(m, (0, 1, 2), orbit_offsets(modulation), orbit_rows(m))
    z = block.complex_symbols().reshape(-1, 8)
    own = pep_batch(z, 16) / 8
    images = pep_batch(np.concatenate([np.conj(z), z[:, ::-1], np.conj(z[:, ::-1])]), 16) / 8
    below = images.reshape(3, -1) < own
    assert 0 < np.count_nonzero(np.any(below, axis=0)) < len(z)
    threshold = np.array([images.reshape(3, -1)[below][0]])
    full = records_above(oracles.full_family_pmeprs(m, modulation)["qam16"], threshold)
    assert np.array_equal(family_pmeprs(m, modulation, threshold)["qam16"], full)
    monkeypatch.setattr(analysis, "pep_spread", lambda grid: 0.0)
    assert family_pmeprs(m, modulation, threshold)["qam16"][1] > full[1]


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


# the negative controls of the lemma sweep, as the report prints them
NEGATIVE_CONTROLS = {
    "3": {"L1": "16.000000", "L2": "3.678802", "L3": "6.095238"},
    "4": {"L1": "32.000000", "L2": "7.357603", "L3": "12.190476"},
}


@pytest.mark.parametrize("m", ["3", "4"])
def test_each_suite_prints_its_lines_of_the_whole_suite(capsys, m):
    # one orbit walk serves the lemma sweep and both bound audits: the
    # check lines of --suite bounds and of --suite lemmas are the matching
    # lines of --suite all, and the negative controls read as before
    checks = {}
    for suite in ("all", "examples", "lemmas", "bounds"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--m", m)
        assert code == 0
        checks[suite] = json.loads(out)["checks"]
    assert checks["examples"] + checks["lemmas"] + checks["bounds"] == checks["all"]
    controls = {c["name"].rsplit(".", 1)[1]: c["observed"] for c in checks["lemmas"]
                if c["name"].startswith("lemma.negative_control.")}
    assert controls == NEGATIVE_CONTROLS[m]


def test_the_lemma_sweep_fans_out_over_workers(capsys, monkeypatch):
    # --jobs maps the whole walk, the lemma sweep included: two workers
    # print the report of one, byte for byte
    pools = []
    real = constructions._pool_map

    def counted(task, cells, jobs):
        pools.append(jobs)
        return real(task, cells, jobs)

    monkeypatch.setattr(constructions, "_pool_map", counted)
    outs = [run(capsys, "verify", "--suite", "lemmas", "--m", "4", "--jobs", jobs)
            for jobs in ("1", "2")]
    assert pools == [2]
    assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize("suite", ["lemmas", "bounds"])
def test_verify_small_m_is_a_usage_error(capsys, suite):
    # no family exists for m <= 2, so no suite over it may pass
    code, out, err = run(capsys, "verify", "--suite", suite, "--m", "2")
    assert code == 2
    assert out == ""
    assert "family defined for m > 2, got m=2" in err


def test_verify_bounds_suite(capsys):
    code, out, err = run(capsys, "verify", "--m", "3", "--suite", "bounds")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "bounds.16qam.m3.qam16.star" in names
    assert "bounds.64qam.m3.type2.pmepr" in names
    # the envelope kernel's self-test is the tests', not verify's
    assert "analysis.parseval" not in names
    assert "analysis.oversampling_adequacy" not in names


def test_verify_record_roundtrip(capsys, tmp_path):
    path = tmp_path / "ex2.json"
    code, _, _ = run(capsys, "construct", *EX2_FLAGS, "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def construct_doc(capsys, tmp_path, flags, *extra):
    """The record `construct` writes for these flags, and the file it is in."""
    path = tmp_path / "record.json"
    code, _, _ = run(capsys, "construct", *flags, *extra, "--out", str(path))
    assert code == 0
    return json.loads(path.read_text()), path


def verify_doc(capsys, tmp_path, doc):
    """(exit code, problems) of `verify --record` on this document."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--record", str(path))
    assert err == ""
    report = json.loads(out)
    assert report["passed"] is (code == 0)
    return code, report["problems"]


def named(problem: str, doc: dict) -> list[str]:
    return [key for key in doc if repr(key) in problem]


@pytest.mark.parametrize("flags", [EX1_FLAGS, EX2_FLAGS], ids=["16qam", "64qam"])
@pytest.mark.parametrize("rate", [[], ["--oversample", "32"]], ids=["default", "L32"])
def test_construct_output_roundtrips_at_its_rate(capsys, tmp_path, flags, rate):
    doc, path = construct_doc(capsys, tmp_path, flags, *rate)
    assert doc["oversample"] == (int(rate[1]) if rate else 16)
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 0
    assert json.loads(out) == {"record": str(path), "passed": True, "problems": []}


@pytest.mark.parametrize("pi, c", [("0,2,1", "3,0,2,1"), ("0,3,1,4,2", "3,0,2,1,2,1")],
                         ids=["m3", "m5"])
def test_construct_roundtrips_for_every_offset(capsys, tmp_path, pi, c):
    offsets16 = [("16qam", f"{o.d1},{o.d2},{o.d3}") for o in list_offsets16()]
    offsets64 = [("64qam", f"{o.d.d1},{o.d.d2},{o.d.d3},{o.h1},{o.h3}") for o in list_offsets64()]
    assert len(offsets16 + offsets64) == 72
    for modulation, offset in offsets16 + offsets64:
        flags = ["--modulation", modulation, "--pi", pi, "--c", c, "--offset", offset]
        doc, _ = construct_doc(capsys, tmp_path, flags)
        assert verify_doc(capsys, tmp_path, doc) == (0, []), (modulation, offset)
        # the one-row render, at constant 1, is the per-record oracle's document
        assert doc == oracles.codeword_doc(params_from_doc(doc)), (modulation, offset)



@pytest.mark.parametrize("modulation", list(Modulation), ids=lambda mod: mod.value)
def test_a_seeded_record_at_m10_roundtrips(capsys, tmp_path, modulation):
    # one record of n = 1024 symbols through construct and verify --record:
    # a canonical pi, coefficients and an offset drawn with a fixed seed
    m, rng = 10, random.Random(10)
    pi = rng.sample(range(m), m)
    pi = pi if pi[0] < pi[-1] else pi[::-1]
    offset = rng.choice(constructions._offset_list(modulation))
    offset = (offset.d1, offset.d2, offset.d3) if modulation is Modulation.QAM16 else (
        offset.d.d1, offset.d.d2, offset.d.d3, offset.h1, offset.h3)
    flags = ["--modulation", modulation.value, "--pi", ",".join(map(str, pi)),
             "--c", ",".join(str(rng.randrange(4)) for _ in range(m + 1)),
             "--offset", ",".join(map(str, offset))]
    doc, path = construct_doc(capsys, tmp_path, flags)
    assert doc["m"] == m and len(doc["symbols"]) == 1 << m
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True

# for every field of a construct document but m and pi, a value of the right
# JSON type that no regeneration writes there
WRONG_VALUES = {
    "base": lambda v: [(v[0] + 1) % 4, *v[1:]],
    "components": lambda v: [[(v[0][0] + 1) % 4, *v[0][1:]], *v[1:]],
    "constant": lambda v: v + 4,  # reads as the same constant mod 4
    "format": lambda v: "junk",
    "linear": lambda v: [v[0] + 4, *v[1:]],  # the same codeword, not in mod-4 form
    "modulation": lambda v: {"16qam": "64qam", "64qam": "16qam"}[v],
    "n": lambda v: 99,
    "offset": lambda v: {**v, "d1": v["d1"] + 4},  # the same offset, not in mod-4 form
    "oversample": lambda v: 32,
    "pmepr": lambda v: 0.5,
    "primed_symbols": lambda v: [[v[0][0] + 1, v[0][1]], *v[1:]],
    "scale_denominator": lambda v: v + 1,
    "star": lambda v: v + 1.0,
    "star_over_n": lambda v: 7.0,
    "symbols": lambda v: [[v[0][0], v[0][1] + 1], *v[1:]],
}


@pytest.mark.parametrize("flags", [EX1_FLAGS, EX2_FLAGS], ids=["16qam", "64qam"])
@pytest.mark.parametrize("key", sorted(WRONG_VALUES))
def test_verify_record_names_each_wrong_field(capsys, tmp_path, flags, key):
    doc, _ = construct_doc(capsys, tmp_path, flags)
    assert set(doc) == set(WRONG_VALUES) | {"m", "pi"}
    edited = dict(doc, **{key: WRONG_VALUES[key](doc[key])})
    code, problems = verify_doc(capsys, tmp_path, edited)
    assert code == 1
    assert len(problems) == 1
    assert key in named(problems[0], doc)
    assert problems[0].startswith("record field ")


@pytest.mark.parametrize("key,value,text", [("m", 4, "m=4"), ("pi", [0, 1, 1], "(0, 1, 1)")])
def test_verify_record_with_a_parameter_no_codeword_has_fails(capsys, tmp_path, key, value, text):
    # a different valid m or pi names a different codeword, whose payload
    # then differs; a value that names no codeword cannot be built at all
    doc, _ = construct_doc(capsys, tmp_path, EX1_FLAGS)
    code, problems = verify_doc(capsys, tmp_path, dict(doc, **{key: value}))
    assert code == 1
    (problem,) = problems
    assert problem.startswith("unparseable parameters: ") and text in problem


def test_verify_forged_record_names_each_forged_field(capsys, tmp_path):
    doc, _ = construct_doc(capsys, tmp_path, EX1_FLAGS)
    forged = dict(doc, modulation="64qam", n=99, pmepr=0.5, star_over_n=7.0, oversample=3,
                  format="junk", offset=dict(doc["offset"], d1=4))
    code, problems = verify_doc(capsys, tmp_path, forged)
    assert code == 1
    names = [key for problem in problems for key in named(problem, doc)]
    assert sorted(names) == [
        "format", "modulation", "n", "offset", "oversample", "pmepr", "star_over_n"
    ]


def test_verify_record_with_an_unknown_field_fails(capsys, tmp_path):
    doc, _ = construct_doc(capsys, tmp_path, EX2_FLAGS)
    code, problems = verify_doc(capsys, tmp_path, dict(doc, extra=1))
    assert code == 1
    assert problems == ["record field 'extra' is not a codeword field"]


@pytest.mark.parametrize("value", [0, -3, "16", True])
def test_verify_record_with_a_bad_oversample_fails(capsys, tmp_path, value):
    # the record's own rate is a fault of the record (exit 1), never an
    # envelope error inside the library (exit 3)
    doc, _ = construct_doc(capsys, tmp_path, EX1_FLAGS)
    code, problems = verify_doc(capsys, tmp_path, dict(doc, oversample=value))
    assert code == 1
    assert problems == ["record field 'oversample' is not an integer >= 1"]


@pytest.mark.parametrize("key, value, problem", [
    ("m", cli.RECORD_M_LIMIT + 1,
     f"record field 'm' is not an integer in [3, {cli.RECORD_M_LIMIT}]"),
    ("oversample", 10**9, f"record field 'oversample' times n = 2^3 exceeds {cli.GRID_LIMIT}"),
    ("oversample", cli.GRID_LIMIT // 8 + 1,
     f"record field 'oversample' times n = 2^3 exceeds {cli.GRID_LIMIT}"),
])
def test_verify_record_beyond_a_limit_fails(capsys, tmp_path, key, value, problem):
    # an m or an envelope grid beyond the CLI's limits is a fault of the
    # record (exit 1, one problem), never a MemoryError inside the library
    doc, _ = construct_doc(capsys, tmp_path, EX1_FLAGS)
    assert verify_doc(capsys, tmp_path, dict(doc, **{key: value})) == (1, [problem])


def test_verify_record_reads_the_ceiling_from_the_regeneration(monkeypatch):
    # negative control: a regenerated star/n above the published 12/5 is a
    # problem even when the record stores that same star
    def stars_at_two_and_a_half(base, factors):
        # T(0) = 2.5 * n * 10 and T(u) = 0 otherwise: every star 2.5 * n over
        # the 16-QAM denominator 10
        n, terms = factors.shape[:2]
        sums = np.zeros((terms, len(base), n), dtype=complex)
        sums[:, :, 0] = 2.5 * n * 10
        return sums

    monkeypatch.setattr(analysis, "coset_correlation_sums", stars_at_two_and_a_half)
    doc = codeword_doc(EXAMPLE1_PARAMS)
    assert doc["star"] == 2.5 * doc["n"]
    assert verify_codeword_doc(doc) == ["star/n = 2.5 exceeds bound 2.4"]


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


@pytest.mark.parametrize("key", ["symbols", "primed_symbols", "base", "components", "star"])
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
    # the record, not the command line, is at fault: one problem naming the
    # field, exit 1; a payload of the wrong shape is just not its regeneration
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
    "key,value",
    [("m", 3.0), ("pi", [0, 1, 2.0]), ("linear", [1, True, 1]), ("offset.d1", "0"),
     ("offset", [0, 1, 1, 0, 0]), ("offset", None), ("offset", {}),
     ("offset", {"d1": 0, "d2": 1}), ("offset", {"d1": 0, "d2": 1, "d3": 1, "h1": 0})],
)
def test_verify_record_with_malformed_parameters_fails(capsys, tmp_path, key, value):
    # a parameter of the wrong type is the record's fault: one problem naming
    # the field, exit 1, and nothing built from it
    path = tmp_path / "params.json"
    code, _, _ = run(capsys, "construct", *EX2_FLAGS, "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    if key.startswith("offset."):
        doc["offset"][key.split(".")[1]] = value
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--record", str(path))
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["passed"] is False
    assert len(report["problems"]) == 1
    assert report["problems"][0].startswith(f"record field {key!r} is not ")


def test_verify_type1_record_with_nonzero_h2_fails(capsys, tmp_path):
    # no walk writes a type 1 offset with h2 != 0: it would name the same
    # codeword as h2 = 0
    path = tmp_path / "type1.json"
    code, _, _ = run(capsys, "construct", *EX2_FLAGS, "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert (doc["offset"]["kind"], doc["offset"]["h2"]) == ("type1", 0)
    doc["offset"]["h2"] = 3
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 1
    (problem,) = json.loads(out)["problems"]
    assert problem.startswith("unparseable parameters") and "h2=0" in problem


@pytest.mark.parametrize("key,value", [
    ("symbols", []),
    ("star", float("nan")),
    # equal to the regenerated 8 and base under Python's ==, but not of its type
    ("n", 8.0),
    ("base", [0, True, True, 0, True, 2, 0, 3]),
])
def test_verify_record_with_wrong_payload_values_fails(capsys, tmp_path, key, value):
    path = tmp_path / "wrong.json"
    code, _, _ = run(capsys, "construct", *EX1_FLAGS, "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 1
    assert json.loads(out)["problems"] == [f"record field {key!r} is not its regenerated value"]


def test_verify_record_that_is_not_an_object_fails(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]")
    code, out, _ = run(capsys, "verify", "--record", str(path))
    assert code == 1
    assert json.loads(out)["problems"][0].startswith("unparseable parameters")


def test_codeword_doc_roundtrip_functions():
    for params in (EXAMPLE1_PARAMS, EXAMPLE2_PARAMS):
        doc = codeword_doc(params)
        assert verify_codeword_doc(doc) == []
        assert params_from_doc(doc) == params


@pytest.mark.parametrize("argv, message", [
    (["ccdf", "--m", "3", "--modulation", "16qam", "--baseline-count", "0"],
     "baseline count must be >= 1"),
    (["ccdf", "--m", "3", "--modulation", "16qam", "--seed", "-1"], "seed >= 0"),
    # a baseline beyond the limit is refused before the walk, not a MemoryError
    (["ccdf", "--m", "3", "--modulation", "16qam", "--baseline-count", "10000000000000"],
     f"baseline count * n = 10000000000000 * 2^3 exceeds the baseline limit {cli.BASELINE_LIMIT}"),
    (["ccdf", "--m", "5", "--modulation", "64qam", "--baseline-count",
      str(cli.BASELINE_LIMIT // 32 + 1)], "baseline limit"),
    (["construct", *EX1_FLAGS, "--oversample", "0"], "oversample must be >= 1, got 0"),
    (["verify", "--suite", "examples", "--oversample", "0"], "oversample must be >= 1, got 0"),
    (["verify", "--suite", "examples", "--m", "2"], "family defined for m > 2, got m=2"),
    (["enumerate", "--m", "1", "--modulation", "64qam", "--count-only"], "m > 2"),
    # an m or an envelope grid beyond the CLI's limits, not a MemoryError
    (["construct", "--modulation", "16qam", "--pi", ",".join(map(str, range(40))),
      "--c", ",".join("0" * 41), "--offset", "0,1,1"],
     f"m=40 exceeds the construct limit m <= {cli.CONSTRUCT_M_LIMIT}"),
    (["construct", "--modulation", "16qam", "--pi", ",".join(map(str, range(14))),
      "--c", ",".join("0" * 15), "--offset", "0,1,1", "--oversample", "1"],
     f"m=14 exceeds the construct limit m <= {cli.CONSTRUCT_M_LIMIT}"),
    (["construct", *EX1_FLAGS, "--oversample", "1000000000"],
     f"oversample * n = 1000000000 * 2^3 exceeds the grid limit {cli.GRID_LIMIT}"),
    (["construct", *EX1_FLAGS, "--oversample", str(cli.GRID_LIMIT // 8 + 1)], "grid limit"),
    (["enumerate", "--m", "3", "--modulation", "16qam", "--oversample", "1000000000"],
     "grid limit"),
    (["ccdf", "--m", "40", "--modulation", "16qam"], "16 * 2^40 exceeds the grid limit"),
    (["verify", "--suite", "examples", "--oversample", "1000000000"], "grid limit"),
    (["construct", "--modulation", "64qam", "--pi", "0,1,2", "--c", "1,1,1,0",
      "--offset", "0,1,1,1,0"], "satisfies neither"),
])
def test_bad_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_the_baseline_limit_is_checked_before_the_walk(capsys, monkeypatch, tmp_path):
    # count * n = BASELINE_LIMIT exactly passes the check and reaches the
    # family walk (stubbed here, so no baseline is drawn); one row more is
    # refused before it, and no --out is written
    def walk(*args):
        raise cli.UsageError("walk reached")

    monkeypatch.setattr(cli, "family_pmeprs", walk)
    out = tmp_path / "ccdf.csv"
    for count, message in ((cli.BASELINE_LIMIT // 8, "walk reached"),
                           (cli.BASELINE_LIMIT // 8 + 1, "exceeds the baseline limit")):
        code, _, err = run(capsys, "ccdf", "--m", "3", "--modulation", "16qam",
                           "--baseline-count", str(count), "--out", str(out))
        assert code == 2 and message in err and not out.exists()


def test_a_nan_pmepr_is_an_internal_error(capsys, monkeypatch, tmp_path):
    # a NaN PEP is a fault of the envelope kernel: ccdf refuses it, where it
    # once counted as above every threshold, and the command exits 3 with
    # the traceback, writing no --out
    monkeypatch.setattr(cli, "threshold_peps", lambda z, *args: np.full(len(z), np.nan))
    out = tmp_path / "ccdf.csv"
    code, _, err = run(capsys, "ccdf", "--m", "3", "--modulation", "16qam",
                       "--baseline-count", "100", "--out", str(out))
    assert code == 3 and not out.exists()
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().splitlines()[-1] == (
        "internal error: ValueError: need at least one PMEPR sample, and no NaN")


def test_the_grid_limit_itself_is_accepted(capsys):
    # oversample * n = GRID_LIMIT exactly is within the limit
    code, out, _ = run(capsys, "construct", *EX1_FLAGS, "--oversample", str(cli.GRID_LIMIT // 8))
    assert code == 0 and json.loads(out)["oversample"] == cli.GRID_LIMIT // 8


@pytest.mark.parametrize("content", ["{not json", b"\xff\xfe"])
def test_verify_record_that_is_not_json_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "record.json"
    path.write_bytes(content.encode() if isinstance(content, str) else content)
    code, out, err = run(capsys, "verify", "--record", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot parse --record {path}: ")


def test_an_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # negative control: a fault inside the library that happens to raise
    # ValueError must exit 3 with its traceback, not 2 as a usage error
    from qamseq import verification

    def faulty(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr(verification, "coset_correlation_sums", faulty)
    code, out, err = run(capsys, "verify", "--suite", "bounds", "--m", "3", "--jobs", "1")
    assert code == 3
    assert out == ""
    assert "Traceback (most recent call last)" in err and "in faulty" in err
    assert err.rstrip().splitlines()[-1] == "internal error: ValueError: injected fault"
