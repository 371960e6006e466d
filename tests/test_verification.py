import json

import numpy as np
import pytest

from oracles import lemma1_residual, lemma2_residuals, lemma3_residuals, lemma_reports
from qamseq.algebra import coefficient_matrix
from qamseq.constructions import (
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset16,
    Offset64,
    OffsetKind,
    build_block,
    default_jobs,
    list_offsets64,
    map_family_blocks,
)
from qamseq.gbf import PathQuadratic
from qamseq.verification import (
    EXAMPLE1_PARAMS,
    EXAMPLE2_PARAMS,
    LEMMA_TOL,
    _audit_block,
    example_regression,
    lemma_sweep,
    negative_controls,
    oversampling_audit,
    parseval_audit,
    theorem_bound_audit,
)

ID_BASE = PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0)
ZERO_BASE = PathQuadratic(m=3, pi=(0, 1, 2), linear=(0, 0, 0), constant=0)


def test_lemma1_reference_params_vanish():
    assert lemma1_residual(EXAMPLE1_PARAMS) <= LEMMA_TOL


def test_lemma1_all_offsets_zero_coefficients():
    from qamseq.constructions import list_offsets16

    for off in list_offsets16():
        params = ConstructionParams(base=ZERO_BASE, offset=off)
        assert lemma1_residual(params) <= LEMMA_TOL


def test_lemma1_negative_control():
    params = ConstructionParams(base=ID_BASE, offset=Offset16(0, 0, 0))
    assert lemma1_residual(params) > 0.5


def test_lemma1_requires_offset16():
    with pytest.raises(ValueError):
        lemma1_residual(EXAMPLE2_PARAMS)


def test_lemma2_reference_params_vanish():
    residuals = lemma2_residuals(EXAMPLE2_PARAMS)
    assert all(r <= LEMMA_TOL for r in residuals)


def test_lemma2_all_type1_offsets():
    for off in list_offsets64():
        if off.kind is not OffsetKind.TYPE1:
            continue
        params = ConstructionParams(base=ID_BASE, offset=off)
        assert max(lemma2_residuals(params)) <= LEMMA_TOL


def test_lemma2_negative_control_lights_up_a2a3():
    bad = Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 2, 0, 0)
    r12, r13, r23 = lemma2_residuals(ConstructionParams(base=ID_BASE, offset=bad))
    assert r12 <= LEMMA_TOL
    assert r13 <= LEMMA_TOL
    assert r23 > 0.1


def test_lemma2_kind_guard():
    t2 = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 3, 1)
    with pytest.raises(ValueError):
        lemma2_residuals(ConstructionParams(base=ID_BASE, offset=t2))


def test_lemma3_reference_offset_vanishes():
    t2 = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 3, 1)
    residuals = lemma3_residuals(ConstructionParams(base=ID_BASE, offset=t2))
    assert all(r <= LEMMA_TOL for r in residuals)


def test_lemma3_all_type2_offsets():
    for off in list_offsets64():
        if off.kind is not OffsetKind.TYPE2:
            continue
        params = ConstructionParams(base=ID_BASE, offset=off)
        assert max(lemma3_residuals(params)) <= LEMMA_TOL


def test_lemma3_negative_control_relabeled_type1():
    relabeled = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 0, 0)
    residuals = lemma3_residuals(ConstructionParams(base=ID_BASE, offset=relabeled))
    assert max(residuals) > 0.1


def test_lemma3_kind_guard():
    with pytest.raises(ValueError):
        lemma3_residuals(EXAMPLE2_PARAMS)


def test_lemma_reports_dispatch():
    ids = [r.lemma_id for r in lemma_reports(EXAMPLE1_PARAMS)]
    assert ids == ["L1"]
    ids = [r.lemma_id for r in lemma_reports(EXAMPLE2_PARAMS)]
    assert ids == ["L2a", "L2b", "L2c"]
    t2 = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 3, 1)
    ids = [r.lemma_id for r in lemma_reports(ConstructionParams(base=ID_BASE, offset=t2))]
    assert ids == ["L3a", "L3b", "L3c"]
    assert all(r.passed for r in lemma_reports(EXAMPLE2_PARAMS))


def test_negative_controls_pinned_values():
    controls = negative_controls()
    assert controls["L1"] == pytest.approx(16.0, abs=1e-9)
    assert controls["L2"] == pytest.approx(3.678802, abs=1e-5)
    assert controls["L3"] == pytest.approx(6.095238, abs=1e-5)


def test_lemma_sweep_passes_and_counts():
    result = lemma_sweep(m=3, coeff_stride=4)
    assert result.passed
    # full grid for the first permutation + stride-4 subsample for the others
    per_offset = 256 + 2 * 64
    assert result.evaluations["L1"] == 8 * per_offset
    assert result.evaluations["L2a"] == 32 * per_offset
    assert result.evaluations["L3c"] == 32 * per_offset
    assert all(v <= LEMMA_TOL for v in result.max_residuals.values())
    assert all(v > 0.1 for v in result.negative_controls.values())
    names = [c.name for c in result.checks()]
    assert "lemma.L1.max_residual" in names
    assert "lemma.negative_control.L3" in names


def test_sweep_batch_agrees_with_per_record_oracle():
    # the vectorized sweep path must reproduce the literal per-record sums,
    # including on invalid offsets where the residuals are far from zero
    # (the negative controls evaluate those through the same path)
    from qamseq.constructions import base_rows
    from qamseq.verification import _lemma_residuals

    pi = (0, 2, 1)
    coeffs = coefficient_matrix(3)[::31]
    base_all = base_rows(3, pi, coeffs)
    d = Offset16(0, 1, 1)
    offsets = (
        Offset16(0, 1, 3),
        Offset16(0, 0, 0),
        Offset16(1, 2, 3),
        Offset64(OffsetKind.TYPE1, d, 0, 0, 2),
        Offset64(OffsetKind.TYPE1, d, 2, 1, 3),
        Offset64(OffsetKind.TYPE1, d, 2, 0, 0),
        Offset64(OffsetKind.TYPE2, d, 2, 3, 0),
        Offset64(OffsetKind.TYPE2, d, 0, 0, 0),
    )
    for off in offsets:
        batch = _lemma_residuals(base_all, off, 3, pi)
        for j, row in enumerate(coeffs):
            base = PathQuadratic(
                m=3, pi=pi, linear=tuple(int(v) for v in row[:3]), constant=int(row[3])
            )
            reports = lemma_reports(ConstructionParams(base=base, offset=off))
            assert list(batch) == [r.lemma_id for r in reports]
            for r in reports:
                assert batch[r.lemma_id][j] == pytest.approx(r.residual, abs=1e-12)


def test_bound_audit_16qam_m3():
    report = theorem_bound_audit(3, Modulation.QAM16)
    assert report.passed
    assert report.total == report.expected_total == 6144
    assert report.golay_exact
    assert report.component_bounds_ok
    assert report.pmepr_le_star_ok
    assert report.strictly_near_complementary
    assert report.distinct_sequences == 6144
    (stats,) = report.kinds
    assert stats.kind == "qam16"
    assert stats.star_ok == stats.pmepr_ok == 6144
    assert stats.max_star_over_n <= 2.4 + 1e-9
    assert stats.max_star_over_n > 2.0
    assert stats.max_pmepr <= 2.41


def test_bound_audit_64qam_m3():
    report = theorem_bound_audit(3, Modulation.QAM64)
    assert report.passed
    assert report.total == 49152
    assert report.golay_exact
    by_kind = {k.kind: k for k in report.kinds}
    assert by_kind["type1"].max_star_over_n <= 3.62 + 1e-9
    assert by_kind["type1"].max_star_over_n == pytest.approx(76 / 21, abs=1e-9)
    assert by_kind["type2"].max_star_over_n <= 2.48 + 1e-9
    assert by_kind["type2"].max_star_over_n == pytest.approx(52 / 21, abs=1e-9)
    assert by_kind["type1"].max_pmepr <= 3.63
    assert by_kind["type2"].max_pmepr <= 2.49
    # collapsed-component type 1 offsets legitimately fall below star/n = 2
    assert by_kind["type1"].min_star_over_n < 2.0
    assert by_kind["type2"].min_star_over_n > 2.0


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_bound_audit_parallel_matches_serial(modulation):
    serial = theorem_bound_audit(3, modulation, jobs=1)
    parallel = theorem_bound_audit(3, modulation, jobs=2)
    assert serial == parallel


def test_bound_audit_checks_have_expected_names():
    report = theorem_bound_audit(3, Modulation.QAM16)
    names = {c.name for c in report.checks()}
    assert "bounds.16qam.m3.count" in names
    assert "bounds.16qam.m3.qam16.star" in names
    assert "bounds.16qam.m3.golay_base_pair" in names
    assert all(c.passed for c in report.checks())


def test_audit_block_sees_a_companion_that_is_not_derived(monkeypatch):
    # negative control: with the companion sign forced to all +1 the base
    # "pair" is a sequence with itself, which is never a Golay pair
    block = build_block(3, (0, 1, 2), Offset16(0, 1, 1))
    assert _audit_block(block, 16)["golay_defect"] == 0
    monkeypatch.setattr(
        FamilyBlock, "companion_sign", property(lambda b: np.ones(1 << b.m, dtype=np.int64))
    )
    assert _audit_block(block, 16)["golay_defect"] > 0


def test_oversampling_audit_within_half_percent():
    assert oversampling_audit(3, Modulation.QAM16)[0] <= 0.005


def test_dense_envelope_gap_machine_precision():
    # the second gap of the shared envelope walk: FFT against a dense DFT
    assert oversampling_audit(3, Modulation.QAM16)[1] <= 1e-9


def test_oversampling_check_fails_on_a_kernel_that_ignores_oversample(monkeypatch, capsys):
    # negative control: an envelope FFT stuck at 2n points agrees with itself
    # at L=16 and L=32, so only the dense-DFT reference can see it
    from qamseq import verification
    from qamseq.cli import main

    def two_n_grid(z, oversample=16):
        n = z.shape[1]
        return np.max(np.abs(np.fft.ifft(z, n=2 * n, axis=1) * 2 * n) ** 2, axis=1)

    monkeypatch.setattr(verification, "pep_batch", two_n_grid)
    gap, dense_gap = oversampling_audit(3, Modulation.QAM16)
    assert gap == 0.0
    assert dense_gap > 1e-9
    assert main(["verify", "--suite", "bounds", "--m", "3", "--jobs", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "analysis.oversampling_adequacy"
    ]


def test_parseval_audit_machine_precision():
    assert parseval_audit() <= 1e-9


def test_example_regression_all_pass():
    checks = example_regression()
    failed = [c.name for c in checks if not c.passed]
    assert not failed
    names = {c.name for c in checks}
    assert "example1.symbols" in names
    assert "example2.pmepr" in names


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("QAMSEQ_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("QAMSEQ_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("QAMSEQ_JOBS", "junk")
    with pytest.raises(ValueError, match="QAMSEQ_JOBS must be an integer, got 'junk'"):
        default_jobs()
    # a count below 1 is refused where the fan-out resolves it, from either source
    for env, jobs in (("0", None), ("1", 0), ("1", -5)):
        monkeypatch.setenv("QAMSEQ_JOBS", env)
        expected = 0 if jobs is None else jobs
        with pytest.raises(ValueError, match=f"must be >= 1, got {expected}"):
            map_family_blocks(len, 3, Modulation.QAM16, jobs)
