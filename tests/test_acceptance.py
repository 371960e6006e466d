"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest -s to watch them); the
assertions carry the same thresholds, so a red line is a failed test.
"""

import time

import numpy as np
import pytest

from qamseq.analysis import ccdf, pep_batch, random_baseline
from qamseq.cli import family_pmeprs
from qamseq.constructions import Modulation, count_enumerated, family_size
from qamseq.verification import (
    example_regression,
    lemma_sweep,
    oversampling_audit,
    parseval_audit,
    theorem_bound_audit,
)

STAR_TOL = 1e-9


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def audit_16_m3():
    return theorem_bound_audit(3, Modulation.QAM16)


@pytest.fixture(scope="module")
def audit_16_m4():
    return theorem_bound_audit(4, Modulation.QAM16)


@pytest.fixture(scope="module")
def audit_64_m3():
    return theorem_bound_audit(3, Modulation.QAM64)


def test_criterion_1_family_counts():
    expectations = [
        (3, Modulation.QAM16, 6144),
        (4, Modulation.QAM16, 98304),
        (3, Modulation.QAM64, 49152),
    ]
    details = []
    ok = True
    for m, modulation, expected in expectations:
        start = time.perf_counter()
        counted = count_enumerated(m, modulation)
        elapsed = time.perf_counter() - start
        closed = family_size(m, modulation)
        good = counted == expected == closed and elapsed < 10.0
        ok &= good
        details.append(f"{modulation.value} m={m}: {counted} in {elapsed:.2f}s")
        assert counted == expected
        assert closed == expected
        assert elapsed < 10.0
    report("1 family counts", ok, "; ".join(details))


def test_criterion_2_theorem1_bounds(audit_16_m3, audit_16_m4):
    ok = True
    details = []
    for audit in (audit_16_m3, audit_16_m4):
        (stats,) = audit.kinds
        (star,) = [c for c in audit.checks() if c.name == f"bounds.16qam.m{audit.m}.qam16.star"]
        star_ok = star.passed and stats.max_star_over_n <= 2.4 + STAR_TOL
        # the PMEPR bound is certified by the star: pmepr <= star/n <= 2.4
        pmepr_ok = audit.pmepr_le_star_ok and stats.max_pmepr <= stats.max_star_over_n + STAR_TOL
        ok &= star_ok and pmepr_ok
        details.append(
            f"m={audit.m}: {stats.total} records, max star/n {stats.max_star_over_n:.9f}, "
            f"max pmepr {stats.max_pmepr:.6f}"
        )
        assert star_ok
        assert pmepr_ok
    report("2 theorem-1 bounds", ok, "; ".join(details))


def test_criterion_3_theorem2_bounds(audit_64_m3):
    by_kind = {k.kind: k for k in audit_64_m3.kinds}
    t1, t2 = by_kind["type1"], by_kind["type2"]
    passed = {c.name: c.passed for c in audit_64_m3.checks()}
    ok = (
        passed["bounds.64qam.m3.type1.star"]
        and t1.max_star_over_n <= 3.62 + STAR_TOL
        and t1.max_pmepr <= t1.max_star_over_n + STAR_TOL
        and passed["bounds.64qam.m3.type2.star"]
        and t2.max_star_over_n <= 2.48 + STAR_TOL
        and t2.max_pmepr <= t2.max_star_over_n + STAR_TOL
        and audit_64_m3.pmepr_le_star_ok
        and audit_64_m3.total == 49152
    )
    report(
        "3 theorem-2 bounds",
        ok,
        f"type1 max star/n {t1.max_star_over_n:.9f} pmepr {t1.max_pmepr:.6f}; "
        f"type2 max star/n {t2.max_star_over_n:.9f} pmepr {t2.max_pmepr:.6f}",
    )
    assert ok


def test_criterion_4_example_regression():
    checks = example_regression()
    failed = [c.name for c in checks if not c.passed]
    report(
        "4 example regression",
        not failed,
        "all reference sequences, symbols, and PMEPR values reproduced"
        if not failed
        else f"failed: {failed}",
    )
    assert not failed


def test_criterion_5_golay_substructure(audit_16_m3, audit_16_m4, audit_64_m3):
    ok = audit_16_m3.golay_exact and audit_16_m4.golay_exact and audit_64_m3.golay_exact
    report(
        "5 Golay substructure",
        ok,
        "exact integer cancellation of the base pair on all 6144 + 98304 + 49152 records",
    )
    assert ok


def test_criterion_6_lemma_oracles():
    result = lemma_sweep(m=3)
    worst = max(result.max_residuals.values())
    controls = result.negative_controls
    ok = (
        worst == 0
        and controls["L1"] > 0.5
        and all(v > 0.1 for v in controls.values())
    )
    report(
        "6 lemma oracles",
        ok,
        f"max residual {worst:.3e} over {sum(result.evaluations.values())} evaluations; "
        f"controls L1={controls['L1']:.2f} L2={controls['L2']:.2f} L3={controls['L3']:.2f}",
    )
    assert worst == 0
    assert controls["L1"] > 0.5
    assert all(v > 0.1 for v in controls.values())


def test_criterion_7_ccdf_shape():
    thresholds = np.array([2.0, 2.4, 2.48, 3.0, 3.62, 4.0])

    counts16 = family_pmeprs(4, Modulation.QAM16, thresholds)["qam16"]
    beyond16 = counts16[1:][thresholds >= 2.4]
    counts_t2 = family_pmeprs(3, Modulation.QAM64, thresholds)["type2"]
    beyond_t2 = counts_t2[1:][thresholds >= 2.48]

    baseline = random_baseline(16, Modulation.QAM16, 10_000, seed=42)
    baseline_counts = sum(ccdf(pep_batch(z, 16) / 16, thresholds) for z in baseline)
    baseline_at_24 = float(baseline_counts[1:][thresholds == 2.4][0] / baseline_counts[0])

    ok = (
        counts16[0] == family_size(4, Modulation.QAM16)
        and not np.any(beyond16)
        and not np.any(beyond_t2)
        and baseline_at_24 > 0.0
    )
    report(
        "7 ccdf shape",
        ok,
        f"constructed CCDF 0 at/beyond bounds; baseline CCDF(2.4) = {baseline_at_24:.4f}",
    )
    assert counts16[0] == family_size(4, Modulation.QAM16)
    assert not np.any(beyond16)
    assert not np.any(beyond_t2)
    assert baseline_at_24 > 0.0


def test_criterion_8_analysis_self_consistency(audit_16_m3, audit_16_m4, audit_64_m3):
    parseval = parseval_audit()
    gap, _ = oversampling_audit()
    pmepr_le_star = (
        audit_16_m3.pmepr_le_star_ok
        and audit_16_m4.pmepr_le_star_ok
        and audit_64_m3.pmepr_le_star_ok
    )
    ok = parseval <= 1e-9 and gap <= 0.005 and pmepr_le_star
    report(
        "8 analysis self-consistency",
        ok,
        f"parseval {parseval:.3e}; oversampling gap {gap:.4%}; "
        f"pmepr<=star/n on every enumerated pair: {pmepr_le_star}",
    )
    assert parseval <= 1e-9
    assert gap <= 0.005
    assert pmepr_le_star
