"""Every name that callers outside the package look up must resolve.

The traced benchmark run (perfbench/child.py) wraps the functions named in
its LAYERS and ITERATOR_LAYERS with getattr; a deleted or renamed function
makes that run raise AttributeError, which no other test would notice.  Its
count functions read attributes of the results and arguments of the traced
calls, so one traced run checks those too.  The package's one memory rule,
constructions.row_slices, is the only code that divides CHUNK_SYMBOLS; no
verdict has a PMEPR_TOL slack; and verify's checks keep their names and order.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import qamseq
from qamseq import analysis, cli
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


def chunk_divisions(source: str) -> list[int]:
    """The lines of a module's source that divide or shift CHUNK_SYMBOLS
    (a name or an attribute) outside the body of a function row_slices."""
    tree = ast.parse(source)
    allowed = {line for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "row_slices"
               for line in range(node.lineno, node.end_lineno + 1)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.FloorDiv, ast.Div, ast.RShift, ast.Mod))
        and "CHUNK_SYMBOLS" in {getattr(node.left, "id", None), getattr(node.left, "attr", None)}
        and node.lineno not in allowed)


def test_only_row_slices_divides_the_symbol_budget():
    # every walk and kernel sizes its slices through row_slices; negative
    # controls: the hand-written rules it replaced are found anywhere else
    for path in sorted((ROOT / "src" / "qamseq").glob("*.py")):
        assert chunk_divisions(path.read_text()) == [], path.name
    rules = ("step = max(1, CHUNK_SYMBOLS // per_row)\n"
             "step = max(1, CHUNK_SYMBOLS >> (per_row - 1).bit_length())\n"
             "budget = constructions.CHUNK_SYMBOLS // per_row\n")
    assert chunk_divisions(rules) == [1, 2, 3]
    assert chunk_divisions("def row_slices(count, per_row):\n    " + rules.splitlines()[0]) == []


def tolerance_lines(source: str) -> list[int]:
    """The lines of a source text that name PMEPR_TOL, in code, a string or
    a comment; EXAMPLE_PMEPR_TOL is another name."""
    return [number for number, line in enumerate(source.splitlines(), 1)
            if re.search(r"\bPMEPR_TOL\b", line)]


def test_no_verdict_has_a_pmepr_tolerance():
    # every bound audit's PMEPR verdict reads the certified chain pmepr <=
    # star/n <= ceiling, with no slack on a sampled value; negative
    # controls: each way the old tolerance could come back is found
    for path in sorted((ROOT / "src" / "qamseq").glob("*.py")):
        assert tolerance_lines(path.read_text()) == [], path.name
    comebacks = ("PMEPR_TOL = 0.01\n"
                 "ok = p <= bound + verification.PMEPR_TOL\n"
                 "from .verification import PMEPR_TOL\n"
                 "requirement = f'<= {bound} + PMEPR_TOL'\n")
    assert tolerance_lines(comebacks) == [1, 2, 3, 4]
    assert tolerance_lines("EXAMPLE_PMEPR_TOL = 0.05\nx = EXAMPLE_PMEPR_TOL\n") == []


# the checks of verify --suite all --m 3, in report order
VERIFY_ALL_M3_CHECKS = [
    *(f"example1.{c}" for c in ("base_sequence", "offset_component", "symbols", "pmepr",
                                 "star_bound")),
    *(f"example2.{c}" for c in ("component0", "component1", "component2", "symbols", "pmepr",
                                 "star_bound")),
    *(f"lemma.{lemma}.max_residual" for lemma in ("L1", "L2a", "L2b", "L2c", "L3a", "L3b", "L3c")),
    *(f"lemma.negative_control.{lemma}" for lemma in ("L1", "L2", "L3")),
    *(f"bounds.{modulation}.m3.{check}"
      for modulation, kinds in (("16qam", ("qam16",)), ("64qam", ("type1", "type2")))
      for check in ("count", *(f"{kind}.{c}" for kind in kinds for c in ("star", "pmepr")),
                    "golay_base_pair", "component_stars", "pmepr_le_star",
                    "strictly_near_complementary", "distinct_sequences")),
]


def test_verify_check_names_are_pinned(tmp_path):
    # a dropped, renamed or reordered check shows here by name, not only as
    # the pinned report's sha256 mismatch
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "all", "--m", "3", "--out", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert len(VERIFY_ALL_M3_CHECKS) == 39
    assert names == VERIFY_ALL_M3_CHECKS


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
    # one row per 64-record orbit: the walk's one task, a run of the 3 pis
    # (orbit_runs), holds the orbit rows with c_{pi^-1(m-1)} = 0, a
    # quarter of the 64 orbit rows of each pi, and builds a block of each
    # family per pi over them, under
    # 2 of the 8 16-QAM offsets and 16 of the 64 64-QAM offsets.  verify
    # runs no envelope self-test (verification.envelope_audit), so nothing
    # else is synthesised
    walked = 3 * (64 // 4) * 2 + 3 * (64 // 4) * 16
    assert counts["synthesis.rows"] == walked == 864
    # one polyphase_lattice per pi for the terms of the 2 + 16 orbit
    # offsets on the pi's zero row, whose reductions every orbit row of the
    # pi shares (the audit takes the pi-free term layout, and builds no
    # terms of its own), and one for the negative controls' terms; the sums
    # come from coset_correlation_sums, which is not a traced name, and no
    # star_batch, golay_defect_batch or star runs
    assert counts["correlation.calls"] == 3 * 1 + 1 == 4
    # pep_batch points at n=8: the audit screens the run's 864 rows in
    # complex64 (threshold_peps, no FFT) in one call and runs pep_batch, at
    # L=16, only on the rows the screen cannot decide.  A row's one decision
    # point is its star/n plus STAR_TOL (no PMEPR verdict reads a ceiling),
    # and no screened PMEPR lies within screen_margin / n of it; the rows
    # that could hold their kind's max over the run are the 9 within
    # pep_spread of it (4 16-QAM rows, 1 type 1 and 4 type 2 rows).
    # orbit_peps computes the 15 other conjugation x reversal x
    # quarter-shift images of each of them.  No L=32 envelope runs
    refined = 4 + 1 + 4
    audited = refined + 15 * refined
    assert counts["envelope.fft_points"] == 8 * 16 * audited == 18432
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
    # fans out over worker processes (jobs > 1); traceback only when main
    # reports an internal error
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, qamseq.cli\n"
            "print(*(name in sys.modules for name in ('concurrent.futures', 'traceback')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "False False\n"


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
