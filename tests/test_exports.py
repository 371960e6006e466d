"""Every name that callers outside the package look up must resolve.

The traced benchmark run (perfbench/child.py) wraps the functions named in
its LAYERS and ITERATOR_LAYERS with getattr; a deleted or renamed function
makes that run raise AttributeError, which no other test would notice.  Its
count functions read attributes of the results and arguments of the traced
calls, so one traced run checks those too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import qamseq

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    child = load_child()
    layers = [entry[:2] for entry in child.LAYERS + child.ITERATOR_LAYERS]
    assert layers
    for module, function in layers:
        assert callable(getattr(importlib.import_module(f"qamseq.{module}"), function))


def test_public_exports_resolve():
    for name in qamseq.__all__:
        assert getattr(qamseq, name) is not None


def traced_counts(tmp_path, *args):
    """The per-layer counts of one traced benchmark run of the CLI."""
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    args = [*args, "--out", str(tmp_path / "r")]
    proc = subprocess.run([sys.executable, str(CHILD), str(result), "1", "--", *args],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(result.read_text())
    assert doc["exit_code"] == 0
    return doc["layers"]["counts"]


def test_traced_benchmark_child_runs(tmp_path):
    counts = traced_counts(tmp_path, "verify", "--suite", "bounds", "--m", "3", "--jobs", "1")
    # 6 144 16-QAM and 49 152 64-QAM records
    assert counts["audit.distinct_sequences"] == 55296
    # one row per 64-record orbit: the two audits walk the orbit rows with
    # c_{pi^-1(m-1)} = 0, a quarter of the 64 orbit rows of each of the 3
    # pis, under 2 of the 8 16-QAM offsets and 16 of the 64 64-QAM offsets;
    # then the Parseval and oversampling walks of the 16-QAM family, which
    # keep every offset and every orbit row (1 536 rows each)
    walked = 3 * (64 // 4) * 2 + 3 * (64 // 4) * 16
    assert counts["synthesis.rows"] == walked + 1536 + 1536 == 3936
    # per audited block (one pi's 16 walk rows, every orbit offset), one
    # polyphase_lattice for D and all its distinct component forms; the
    # codewords and components are then correlated by coset_correlation_sums,
    # which is not a traced name, and no star_batch, golay_defect_batch or star
    # runs: 3 16-QAM blocks and 3 64-QAM blocks
    assert counts["correlation.calls"] == 3 * 1 + 3 * 1 == 6
    # pep_batch points at n=8: the audited rows at L=16, with the 15 other
    # conjugation x reversal x quarter-shift images of each row within
    # pep_spread of its kind's max in its block (1 + 4 + 1 rows in the three
    # 16-QAM blocks, 1 + 1 + 2 type 1 and 4 + 1 + 1 type 2 rows in the
    # 64-QAM ones, a quarter of the walk over 16-record orbits; no PMEPR lies
    # that near its ceiling plus PMEPR_TOL or its star/n plus STAR_TOL), then
    # the oversampling walk at L=16 and at L=32 (Parseval reads no peak)
    audited = walked + 15 * (6 + 4 + 6)
    assert counts["envelope.fft_points"] == 8 * (16 * audited + 48 * 1536) == 731136
    # the family walk synthesises one row per 64-record orbit: a 64th of the
    # 6 144 records of 16-QAM m=3; it refines the 3 rows, one per pi, whose
    # PMEPR is exactly the threshold 2.0, and the baseline adds its 10 000
    # sequences
    counts = traced_counts(tmp_path, "ccdf", "--m", "3", "--modulation", "16qam", "--jobs", "1")
    assert counts["synthesis.rows"] == 6144 // 64
    assert counts["envelope.fft_points"] == 8 * 16 * (6144 // 64 + 15 * 3 + 10000)
    # enumerate synthesises every record: 3 pis x 8 offsets x 256 coefficient
    # rows; it scores one row per constant orbit, at L=16, and writes every line
    counts = traced_counts(tmp_path, "enumerate", "--m", "3", "--modulation", "16qam")
    assert counts["synthesis.rows"] == 3 * 8 * 256 == 6144
    assert counts["envelope.fft_points"] == 8 * 16 * 6144 // 4
    assert (tmp_path / "r").stat().st_size == 3189024


def test_traced_examples_score_through_the_coset_kernel(tmp_path):
    counts = traced_counts(tmp_path, "verify", "--suite", "examples")
    # each of the 2 examples is a one-row block scored as the audit scores a
    # block: one polyphase_lattice of its components, whose sums
    # coset_correlation_sums (not a traced name) takes, and no star,
    # star_batch or golay_defect_batch
    assert counts["correlation.calls"] == 2 * 1 == 2
    # one pep_batch of the example's one n = 8 row at the default L = 16;
    # pmepr, which would book those 128 points once more around its own
    # pep_batch, does not run
    assert counts["envelope.fft_points"] == 2 * 8 * 16 == 256
