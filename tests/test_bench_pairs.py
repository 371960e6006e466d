"""tools/bench_pairs.py: the claim rule it applies to pairs of benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread():
    faster = [v - 0.10 for v in PARENT]
    stats = bench_pairs.compare(PARENT, faster, "lower")
    assert stats["wins"] == 10 and stats["met"]
    assert stats["parent_q1"] < stats["parent_median"] < stats["parent_q3"]
    # the same runs read as a metric where higher is better: no pair won
    assert bench_pairs.compare(PARENT, faster, "higher")["wins"] == 0
    # negative controls: two pairs lost, a gap inside the parent's
    # interquartile range, a tie (counts for neither side), and fewer
    # than ten pairs each fail the claim
    lost_two = faster[:8] + [v + 0.20 for v in PARENT[8:]]
    assert bench_pairs.compare(PARENT, lost_two, "lower")["wins"] == 8
    assert not bench_pairs.compare(PARENT, lost_two, "lower")["met"]
    close = [v - 0.01 for v in PARENT]
    assert bench_pairs.compare(PARENT, close, "lower")["wins"] == 10
    assert not bench_pairs.compare(PARENT, close, "lower")["met"]
    tied = faster[:9] + PARENT[9:]
    assert bench_pairs.compare(PARENT, tied, "lower")["wins"] == 9
    assert not bench_pairs.compare(PARENT[:9], faster[:9], "lower")["met"]


def test_checkouts_at_paths_of_unequal_length_are_refused(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--workload", "w",
                          "--pairs", "1", "--seconds", "1"])
    assert exit_info.value.code == 2
    assert "differ in length" in capsys.readouterr().err
