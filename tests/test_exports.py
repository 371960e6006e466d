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

import numpy as np

import qamseq
from qamseq import analysis
from qamseq.analysis import default_threshold_grid, random_baseline
from qamseq.constructions import Modulation

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


def traced_layers(tmp_path, *args):
    """The per-layer self times and counts of one traced benchmark run of the CLI."""
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    args = [*args, "--out", str(tmp_path / "r")]
    proc = subprocess.run([sys.executable, str(CHILD), str(result), "1", "--", *args],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(result.read_text())
    assert doc["exit_code"] == 0
    return doc["layers"]


def traced_counts(tmp_path, *args):
    """The per-layer counts of one traced benchmark run of the CLI."""
    return traced_layers(tmp_path, *args)["counts"]


def test_traced_benchmark_child_runs(tmp_path):
    counts = traced_counts(tmp_path, "verify", "--suite", "bounds", "--m", "3", "--jobs", "1")
    # the CLI walks both families once (verification.orbit_walk), which does
    # not call the traced theorem_bound_audit: no audit.distinct_sequences
    assert "audit.distinct_sequences" not in counts
    # one row per 64-record orbit: the walk's tasks, one per pi, hold the
    # orbit rows with c_{pi^-1(m-1)} = 0, a quarter of the 64 orbit rows of
    # each of the 3 pis, and build a block of each family over them, under
    # 2 of the 8 16-QAM offsets and 16 of the 64 64-QAM offsets; then the one
    # envelope walk of the 16-QAM family, which keeps every offset and every
    # orbit row (1 536 rows)
    walked = 3 * (64 // 4) * 2 + 3 * (64 // 4) * 16
    assert counts["synthesis.rows"] == walked + 1536 == 2400
    # one polyphase_lattice per pi for the terms of the 2 + 16 orbit
    # offsets, which every walk cell of the pi shares, and one for the
    # negative controls' terms; the sums come from coset_correlation_sums,
    # which is not a traced name, and no star_batch, golay_defect_batch or
    # star runs
    assert counts["correlation.calls"] == 3 * 1 + 1 == 4
    # pep_batch points at n=8: the audit screens each task's rows in
    # complex64 (threshold_peps, no FFT) and runs pep_batch, at L=16, only
    # on the rows the screen cannot decide.  No screened PMEPR lies within
    # screen_margin / n of its ceiling plus PMEPR_TOL or its star/n plus
    # STAR_TOL, and the rows that could hold their kind's max in their task
    # are the 16 within pep_spread of it (1 + 4 + 1 16-QAM rows, 1 + 1 + 2
    # type 1 and 4 + 1 + 1 type 2 rows in the three tasks).
    # orbit_peps computes the 15 other conjugation x reversal x quarter-shift
    # images of each of them.  Then the envelope walk runs at L=32; its L=16
    # peaks come from the envelope that also gives the Parseval mean,
    # through envelope_power_batch, which is not a traced name
    refined = (1 + 4 + 1) + (1 + 1 + 2) + (4 + 1 + 1)
    audited = refined + 15 * refined
    assert counts["envelope.fft_points"] == 8 * (16 * audited + 32 * 1536) == 425984
    # the family walk synthesises one row per 64-record orbit: a 64th of the
    # 6 144 records of 16-QAM m=3.  threshold_peps screens its 96 rows and
    # the baseline's 10 000 without an FFT, and pep_batch runs, at n=8 and
    # L=16, on the rows whose screened PMEPR lies within screen_margin / n of
    # a threshold: the 3 family rows, one per pi, whose PMEPR is exactly the
    # threshold 2.0, then the 15 other images of each of them (orbit_peps),
    # then 295 of the seed-42 baseline rows, most of them on a threshold to
    # within rounding, over its two slices of CHUNK_SYMBOLS // 8 rows
    thresholds, refined = default_threshold_grid(), 0
    for z in random_baseline(8, Modulation.QAM16, 10000, 42):
        screened, margin = analysis.screen_peps(z, 16), analysis.screen_margin(z, 16)
        refined += np.count_nonzero(
            np.min(np.abs(screened[:, None] / 8 - thresholds), axis=1) <= margin / 8)
    assert refined == 295
    layers = traced_layers(tmp_path, "ccdf", "--m", "3", "--modulation", "16qam", "--jobs", "1")
    counts = layers["counts"]
    # random_baseline makes every draw before it returns its lazy slices, so
    # its span times the generator, not zero
    assert layers["self_s"]["ccdf.baseline"] > 0
    assert counts["synthesis.rows"] == 6144 // 64
    assert counts["envelope.fft_points"] == 8 * 16 * (3 + 15 * 3 + 295) == 43904
    # enumerate synthesises every record: 3 pis x 8 offsets x 256 coefficient
    # rows; it scores one row per constant orbit, at L=16, and writes every line
    counts = traced_counts(tmp_path, "enumerate", "--m", "3", "--modulation", "16qam")
    assert counts["synthesis.rows"] == 3 * 8 * 256 == 6144
    assert counts["envelope.fft_points"] == 8 * 16 * 6144 // 4
    assert (tmp_path / "r").stat().st_size == 3189024


def test_importing_the_cli_leaves_the_worker_pool_out():
    # concurrent.futures, and the logging it imports, load only when a walk
    # fans out over worker processes (jobs > 1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, qamseq.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False\n"


def test_the_benchmarked_commands_leave_numpy_ma_out(tmp_path):
    # importing numpy.ma takes 10-20 ms, as long as the screen saves a
    # whole verify --suite all --m 3; np.unique without return options
    # imports it on first use, and the last run shows the check sees that
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, numpy, qamseq.cli\n"
            "code = qamseq.cli.main(sys.argv[2:])\n"
            "if sys.argv[1] == 'unique': numpy.unique(numpy.zeros(3))\n"
            "sys.stderr.write(f'{code} {\"numpy.ma\" in sys.modules}\\n')")
    runs = (("verify", "--suite", "all", "--m", "3"),
            ("ccdf", "--m", "3", "--modulation", "16qam"),
            ("enumerate", "--m", "3", "--modulation", "16qam"))
    seen = []
    for call, args in [("cli", args) for args in runs] + [("unique", runs[2])]:
        proc = subprocess.run([sys.executable, "-c", code, call, *args, "--out", str(tmp_path / "r")],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        seen.append(proc.stderr.splitlines()[-1])
    assert seen == ["0 False"] * 3 + ["0 True"]


def test_traced_examples_score_through_the_coset_kernel(tmp_path):
    counts = traced_counts(tmp_path, "verify", "--suite", "examples")
    # each of the 2 examples is a one-row block scored by score_block, as
    # construct scores it: its sums come from coset_correlation_sums (not a
    # traced name) on the block's base rows and parts, so no polyphase_lattice,
    # star, star_batch or golay_defect_batch runs
    assert counts.get("correlation.calls", 0) == 0
    # one pep_batch of the example's one n = 8 row at the default L = 16;
    # pmepr, which would book those 128 points once more around its own
    # pep_batch, does not run
    assert counts["envelope.fft_points"] == 2 * 8 * 16 == 256
