import dataclasses
import json
import math
import os
from concurrent import futures

import numpy as np
import pytest

import oracles
from oracles import (
    audit_block,
    coefficient_matrix,
    family_rows,
    full_bound_audit,
    full_family_blocks,
    l1_row_sums,
    lemma1_residual,
    lemma2_residuals,
    lemma3_residuals,
    lemma_reports,
    lemma_residuals,
    lemma_terms,
    offset_bound_audit,
    offset_block,
    offset_lemma_sweep,
    orbit_rows,
    run_cells,
)
from qamseq import analysis, cli, constructions, verification
from qamseq.algebra import ZETA, canonical_permutations
from qamseq.analysis import (
    default_threshold_grid,
    near_points,
    pep_batch,
    pep_spread,
    polyphase_lattice,
    score_block,
    star_sum,
)
from qamseq.constellation import Scale
from qamseq.constructions import (
    CEILINGS,
    FORM_SYMMETRIES,
    FULL_ORBIT_SIZE,
    ORBIT_SIZE,
    SHIFT_ORBIT_SIZE,
    ConstructionParams,
    Modulation,
    Offset16,
    Offset64,
    OffsetKind,
    _map_cells,
    _offset_list,
    build_block,
    list_offsets64,
    offset_forms,
    offset_kind,
    orbit_offsets,
    orbit_runs,
    quarter_shift,
)
from qamseq.gbf import PathQuadratic, base_rows
from qamseq.verification import (
    EXAMPLE1_PARAMS,
    EXAMPLE2_PARAMS,
    KindStats,
    _envelope_gaps,
    envelope_audit,
    example_regression,
    lemma_sweep,
    negative_controls,
    oversampling_audit,
    parseval_audit,
    theorem_bound_audit,
)

ID_BASE = PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0)
ZERO_BASE = PathQuadratic(m=3, pi=(0, 1, 2), linear=(0, 0, 0), constant=0)


def _lemma_residuals(base, offsets, m, pi):
    """The lemma residuals of base rows D at pi under offsets, each row
    reduced on its own: the per-row oracle of the walk's zero row."""
    return verification._reductions(base, verification._walk_terms(m, pi, offsets))[2]


def test_lemma1_reference_params_vanish():
    assert lemma1_residual(EXAMPLE1_PARAMS) == 0


def test_lemma1_all_offsets_zero_coefficients():
    from qamseq.constructions import list_offsets16

    for off in list_offsets16():
        params = ConstructionParams(base=ZERO_BASE, offset=off)
        assert lemma1_residual(params) == 0


def test_lemma1_negative_control():
    params = ConstructionParams(base=ID_BASE, offset=Offset16(0, 0, 0))
    assert lemma1_residual(params) > 0.5


def test_lemma1_requires_offset16():
    with pytest.raises(ValueError):
        lemma1_residual(EXAMPLE2_PARAMS)


def test_lemma2_reference_params_vanish():
    residuals = lemma2_residuals(EXAMPLE2_PARAMS)
    assert all(r == 0 for r in residuals)


def test_lemma2_all_type1_offsets():
    for off in list_offsets64():
        if off.kind is not OffsetKind.TYPE1:
            continue
        params = ConstructionParams(base=ID_BASE, offset=off)
        assert max(lemma2_residuals(params)) == 0


def test_lemma2_negative_control_lights_up_a2a3():
    bad = Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 2, 0, 0)
    r12, r13, r23 = lemma2_residuals(ConstructionParams(base=ID_BASE, offset=bad))
    assert r12 == 0
    assert r13 == 0
    assert r23 > 0.1


def test_lemma2_kind_guard():
    t2 = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 3, 1)
    with pytest.raises(ValueError):
        lemma2_residuals(ConstructionParams(base=ID_BASE, offset=t2))


def test_lemma3_reference_offset_vanishes():
    t2 = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 3, 1)
    residuals = lemma3_residuals(ConstructionParams(base=ID_BASE, offset=t2))
    assert all(r == 0 for r in residuals)


def test_lemma3_all_type2_offsets():
    for off in list_offsets64():
        if off.kind is not OffsetKind.TYPE2:
            continue
        params = ConstructionParams(base=ID_BASE, offset=off)
        assert max(lemma3_residuals(params)) == 0


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
    result = lemma_sweep(m=3)
    assert result.passed
    # the 64 constant-0 rows of each of the 3 permutations, once per offset
    per_offset = 3 * 64
    assert result.evaluations["L1"] == 8 * per_offset
    assert result.evaluations["L2a"] == 32 * per_offset
    assert result.evaluations["L3c"] == 32 * per_offset
    assert all(v == 0 for v in result.max_residuals.values())
    assert all(v > 0.1 for v in result.negative_controls.values())
    names = [c.name for c in result.checks()]
    assert "lemma.L1.max_residual" in names
    assert "lemma.negative_control.L3" in names


def test_lemma_sweep_verdict_is_its_checks():
    # negative control: a negative control that no longer lights up fails
    # its check, and with it the sweep
    result = lemma_sweep(m=3)
    dead = dataclasses.replace(result, negative_controls={**result.negative_controls, "L2": 0.0})
    assert [c.name for c in dead.checks() if not c.passed] == ["lemma.negative_control.L2"]
    assert dead.passed is False


def test_lemma_sweep_rejects_small_m():
    with pytest.raises(ValueError, match="family defined for m > 2, got m=2"):
        lemma_sweep(m=2)


def test_lemma_residuals_do_not_depend_on_the_constant():
    # the symmetry the sweep rests on: over the full 4^(m+1)-row grid, every
    # residual equals, bit for bit, that of the row's constant-0 twin; the
    # invalid offsets of the negative controls are included
    m = 3
    coeffs = coefficient_matrix(m)
    d = Offset16(0, 1, 1)
    offsets = _offset_list(Modulation.QAM16) + _offset_list(Modulation.QAM64) + (
        Offset16(0, 0, 0),
        Offset64(OffsetKind.TYPE1, d, 2, 0, 0),
        Offset64(OffsetKind.TYPE2, d, 0, 0, 0),
    )
    lit = 0
    for pi in canonical_permutations(m):
        got = _lemma_residuals(base_rows(m, pi, coeffs), offsets, m, pi)
        reduced = _lemma_residuals(base_rows(m, pi, coeffs[::4]), offsets, m, pi)
        for key, values in got.items():
            assert np.array_equal(values, np.repeat(reduced[key], 4, axis=1))
            lit += int(np.count_nonzero(values))
    assert lit > 0


def test_lemma_residuals_see_a_companion_that_is_not_derived(monkeypatch, capsys):
    # negative control: with the companion sign forced to all +1 the
    # (-1)^(lb_i - lb_{i+u}) factor is gone, and the per-shift oracle of
    # valid offsets lights up; the kernel's certificate refuses that sign
    # (P2: g must change sign with x_pi(m-1)), and verify exits 3, an
    # internal error, not a verdict
    m, pi = 3, (0, 1, 2)
    row = base_rows(m, pi, np.array([[1, 1, 1, 0]]))
    valid = (Offset16(0, 1, 1), Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0))
    assert all(np.all(r == 0) for r in _lemma_residuals(row, valid, m, pi).values())
    plain = lambda m, pi: np.ones(1 << m, dtype=np.int64)  # noqa: E731
    monkeypatch.setattr(oracles, "companion_sign", plain)
    assert lemma_residuals(row, valid[0], m, pi)["L1"][0] == math.sqrt(40)
    assert all(np.all(r > 0.1) for r in lemma_residuals(row, valid[1], m, pi).values())
    monkeypatch.setattr(verification, "companion_sign", plain)
    with pytest.raises(AssertionError, match="P1 and P2"):
        _lemma_residuals(row, valid, m, pi)
    assert cli.main(["verify", "--m", "3", "--jobs", "1"]) == 3
    assert "AssertionError" in capsys.readouterr().err


def test_sweep_batch_agrees_with_per_record_oracle():
    # the vectorized sweep path must reproduce the literal per-record sums,
    # including on invalid offsets where the residuals are far from zero
    # (the negative controls evaluate those through the same path)
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
    batch = _lemma_residuals(base_all, offsets, 3, pi)
    # each lemma's rows hold its offsets in the order given
    position = dict.fromkeys(batch, 0)
    for off in offsets:
        for j, row in enumerate(coeffs):
            base = PathQuadratic(
                m=3, pi=pi, linear=tuple(int(v) for v in row[:3]), constant=int(row[3])
            )
            reports = lemma_reports(ConstructionParams(base=base, offset=off))
            for r in reports:
                assert batch[r.lemma_id][position[r.lemma_id], j] == pytest.approx(
                    r.residual, abs=1e-12
                )
        for r in reports:
            position[r.lemma_id] += 1
    assert position == {key: len(values) for key, values in batch.items()}
    assert position == {"L1": 3, "L2a": 3, "L2b": 3, "L2c": 3, "L3a": 2, "L3b": 2, "L3c": 2}


def test_the_per_shift_l1_implies_the_row_sum():
    # L1 is max_u |T(u)|, 0 only where T vanishes at every shift: the
    # lemma's full double sum |sum_u T(u)|, here in its row-sum form, is
    # then 0 too, and at most 2n - 1 times L1 elsewhere; on every valid
    # 16-QAM offset and four constraint-breaking triples, over every row of
    # every cell of m=3, 4.  The L1 negative control reads 2n either way
    broken = tuple(Offset16(*t) for t in ((0, 0, 0), (0, 1, 0), (2, 0, 1), (1, 1, 1)))
    assert all(o.violations() for o in broken)
    offsets = _offset_list(Modulation.QAM16) + broken
    total = lit = 0
    for m in (3, 4):
        n = 1 << m
        for pi, rows in family_rows(m, n):
            base_all = base_rows(m, pi, rows)
            got = _lemma_residuals(base_all, offsets, m, pi)["L1"]
            for values, off in zip(got, offsets, strict=True):
                row_sums = l1_row_sums(base_all, off, m, pi)
                assert not np.any(row_sums[values == 0])
                assert np.all(row_sums <= (2 * n - 1) * values * (1 + 1e-12))
            total += got.size
            lit += int(np.count_nonzero(got))
        identity = tuple(range(m))
        row = base_rows(m, identity, np.array([[1] * m + [0]]))
        assert l1_row_sums(row, Offset16(0, 0, 0), m, identity)[0] == 2 * n
        assert negative_controls(m)["L1"] == 2 * n
    assert total == 12 * (3 * 4**3 + 12 * 4**4) == 39168
    assert lit > 0


@pytest.mark.parametrize("m", [3, 4])
def test_a_quarter_shift_turns_each_lemma_term_by_a_unit(m):
    # what the orbit-row sweep rests on: a row plus quarter_shift turns
    # every T(u) of every lemma pair of every offset, valid or broken, into
    # i^(-u) * T(u) exactly, so every |T(u)| and every residual is bit-equal
    # on the row and its image; the lemma's full double sum is not, which a
    # sweep that still read it on a quarter of the rows would miss
    d = Offset16(0, 1, 1)
    broken = (Offset16(0, 0, 0), Offset16(1, 2, 3),
              Offset64(OffsetKind.TYPE1, d, 2, 0, 0), Offset64(OffsetKind.TYPE2, d, 0, 0, 0))
    offsets = _offset_list(Modulation.QAM16) + _offset_list(Modulation.QAM64) + broken
    turn = ZETA[-np.arange(1 << m) % 4]  # i^(-u)
    moved = 0
    for pi in canonical_permutations(m):
        rows = orbit_rows(m)[:: 4 ** (m - 3)]  # 64 rows of each pi
        base = base_rows(m, pi, rows)
        image = base_rows(m, pi, (rows + quarter_shift(m, pi)) % 4)
        for off in offsets:
            for t, t_image in zip(lemma_terms(base, off, m, pi), lemma_terms(image, off, m, pi),
                                  strict=True):
                assert np.array_equal(t_image, turn * t)
                assert np.array_equal(np.abs(t_image), np.abs(t))
            if off in broken[:2]:
                moved += int(np.count_nonzero(
                    l1_row_sums(base, off, m, pi) != l1_row_sums(image, off, m, pi)))
        got, shifted = (_lemma_residuals(b, offsets, m, pi) for b in (base, image))
        assert list(got) == list(shifted)
        for key in got:
            assert np.array_equal(got[key], shifted[key])
    assert moved > 0


def image_offset(offset, symmetry):
    """The offset, valid or broken, whose forms are symmetry's images of
    the forms of offset (one of FORM_SYMMETRIES, or their product)."""
    forms = [symmetry(*form) for form in offset_forms(offset)]
    if isinstance(offset, Offset16):
        return Offset16(*forms[0][1:])
    s1, s2 = forms
    if offset.kind is OffsetKind.TYPE1:
        return Offset64(offset.kind, Offset16(*s2[1:]), s1[1], 0, s1[3])
    return Offset64(offset.kind, Offset16(*s1[1:]), *s2[1:])


@pytest.mark.parametrize("m", [3, 4])
def test_conjugation_and_reversal_keep_every_lemma_residual(m):
    # what the offset-orbit sweep rests on: the conjugate (sigma), the
    # reverse (rho) and the reversed conjugate of a record, each with its
    # image row and image offset, turn every T(u) of every lemma pair of
    # every offset, valid or broken, into conj T(u) (sigma, rho) or T(u)
    # (sigma rho), so every residual is bit-equal on the four.  The raw
    # T(u) do move: on the broken offsets T has imaginary parts, which
    # sigma and rho negate
    d = Offset16(0, 1, 1)
    controls = (Offset16(0, 0, 0), Offset64(OffsetKind.TYPE1, d, 2, 0, 0),
                Offset64(OffsetKind.TYPE2, d, 0, 0, 0))
    offsets = _offset_list(Modulation.QAM16) + _offset_list(Modulation.QAM64) + controls
    sigma, rho = FORM_SYMMETRIES
    lit = moved = 0
    for pi in canonical_permutations(m):
        rows = orbit_rows(m)[:: 4 ** (m - 3)]  # 64 rows of each pi
        conj, rev = oracles.image_rows(rows, m)
        images = ((conj, sigma, True), (rev, rho, True),
                  (oracles.image_rows(conj, m)[1], lambda *f: rho(*sigma(*f)), False))
        base = base_rows(m, pi, rows)
        got = _lemma_residuals(base, offsets, m, pi)
        lit += sum(int(np.count_nonzero(r[-1])) for r in got.values())  # the controls
        for coeffs, symmetry, conjugates in images:
            image = base_rows(m, pi, coeffs)
            image_offsets = tuple(image_offset(off, symmetry) for off in offsets)
            assert set(image_offsets[:72]) == set(offsets[:72])
            shifted = _lemma_residuals(image, image_offsets, m, pi)
            assert list(got) == list(shifted)
            for key in got:
                assert np.array_equal(got[key], shifted[key])
            for off, off_image in zip(controls, image_offsets[72:]):
                for t, t_image in zip(lemma_terms(base, off, m, pi),
                                      lemma_terms(image, off_image, m, pi), strict=True):
                    assert np.array_equal(t_image, np.conj(t) if conjugates else t)
                    moved += int(np.count_nonzero(t_image != t))
    assert lit > 0
    assert moved > 0


@pytest.mark.parametrize("m", [3, 4])
def test_the_orbit_row_sweep_equals_the_every_row_walk(monkeypatch, m):
    # the sweep, on one row per quarter-shift orbit and one offset per
    # conjugation x reversal orbit, each (row, offset) counted for the 16 of
    # its orbit, reports the maxima and evaluation counts of every offset
    # correlated alone over every row of family_cells
    result = lemma_sweep(m)
    maxima, counts = offset_lemma_sweep(m)
    assert (result.max_residuals, result.evaluations) == (maxima, counts)
    # negative control: 2 + 16 offsets that are not one per orbit (the
    # first of each list, every 64-QAM one of type 1) miscount the lemmas
    monkeypatch.setattr(verification, "orbit_offsets",
                        lambda modulation: _offset_list(modulation)[: len(orbit_offsets(modulation))])
    assert lemma_sweep(m).evaluations != counts


@pytest.mark.parametrize("m", [3, 4])
def test_cell_lemma_residuals_equal_the_per_offset_reference(m):
    # every residual of a cell, each distinct form correlated once and the
    # a2a3 sums in offset groups, equals bit for bit that of its offset
    # correlated alone, on every cell and on the negative controls' offsets
    d = Offset16(0, 1, 1)
    offsets = _offset_list(Modulation.QAM16) + _offset_list(Modulation.QAM64) + (
        Offset16(0, 0, 0),
        Offset64(OffsetKind.TYPE1, d, 2, 0, 0),
        Offset64(OffsetKind.TYPE2, d, 0, 0, 0),
    )
    lit = 0
    for pi, rows in family_rows(m, 1 << m):
        base_all = base_rows(m, pi, rows)
        cell = _lemma_residuals(base_all, offsets, m, pi)
        reference: dict[str, list] = {}
        for off in offsets:
            for key, values in lemma_residuals(base_all, off, m, pi).items():
                reference.setdefault(key, []).append(values)
        assert list(cell) == list(reference)
        for key, values in cell.items():
            assert np.array_equal(values, np.stack(reference[key]))
            lit += int(np.count_nonzero(values))
    assert lit > 0


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
    assert {c.name: c.passed for c in report.checks()}["bounds.16qam.m3.qam16.star"]
    assert stats.min_star_over_n >= 2.0 - 1e-9
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


@pytest.mark.parametrize("m, modulation", [
    (3, Modulation.QAM16), (4, Modulation.QAM16), (3, Modulation.QAM64),
])
def test_bound_audit_equals_the_full_walk(m, modulation):
    # one row per constant orbit, weighted, against every record scored and
    # counted once: counts, extrema, the Golay defect and every flag
    report = theorem_bound_audit(m, modulation, jobs=1)
    assert report == full_bound_audit(m, modulation)
    assert report.total == report.expected_total


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_bound_audit_parallel_matches_serial(modulation):
    serial = theorem_bound_audit(3, modulation, jobs=1)
    parallel = theorem_bound_audit(3, modulation, jobs=2)
    assert serial == parallel


def test_bound_audit_checks_have_expected_names():
    report = theorem_bound_audit(3, Modulation.QAM16)
    names = {c.name for c in report.checks()}
    (distinct,) = [c for c in report.checks() if c.name == "bounds.16qam.m3.distinct_sequences"]
    assert distinct.observed == "6144 distinct of 6144 tuples"
    assert "injectivity" in distinct.requirement
    assert "bounds.16qam.m3.count" in names
    assert "bounds.16qam.m3.qam16.star" in names
    assert "bounds.16qam.m3.golay_base_pair" in names
    assert all(c.passed for c in report.checks())


def test_bound_audit_verdict_is_its_checks():
    # negative control: a report forged to star/n = 2 on every kind is all
    # Golay, not strictly near-complementary; its verdict must say so, as the
    # exit code of verify does
    report = theorem_bound_audit(3, Modulation.QAM16)
    forged = dataclasses.replace(report, kinds=tuple(
        dataclasses.replace(k, min_star_over_n=2.0, max_star_over_n=2.0) for k in report.kinds
    ))
    failed = [c.name for c in forged.checks() if not c.passed]
    assert failed == ["bounds.16qam.m3.strictly_near_complementary"]
    assert forged.passed is False


def walk_audit(block, oversample):
    """The walk's audit of one block as a task of its own, a run of one
    pi: the sums of every term of its offsets from one kernel call over
    each of its rows, the per-row oracle of the walk's zero row, then its
    envelope."""
    terms = verification._walk_terms(block.m, block.pi, block.offsets)
    cells = [verification._reductions(block.components[0], terms)]
    return verification._audit_blocks([[block]], terms, cells, oversample)


def cell_stats(block):
    """The cell audit of a block, its KindStats by kind."""
    return {k.kind: k for k in walk_audit(block, 16)}


def test_audit_block_sees_a_companion_that_is_not_derived(monkeypatch, capsys):
    # negative control: with the companion sign forced to all +1 every
    # "pair" is a sequence with itself, which is never a Golay pair: the
    # per-offset oracle shows a defect in the base pair of every cell and
    # in the type 1 first component; the kernel's certificate refuses that
    # sign (P2), for the audit as for the walk, and verify exits 3
    pi = (0, 1, 2)
    cell16 = build_block(3, pi, _offset_list(Modulation.QAM16), orbit_rows(3))
    cell64 = build_block(3, pi, _offset_list(Modulation.QAM64), orbit_rows(3))
    assert cell_stats(cell16)["qam16"].golay_defect == 0
    assert cell_stats(cell64)["type1"].component_ok
    plain = lambda m, pi: np.ones(1 << m, dtype=np.int64)  # noqa: E731
    monkeypatch.setattr(oracles, "companion_sign", plain)
    type1 = Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0)
    stats = audit_block(offset_block(3, pi, type1, orbit_rows(3)), 16, 1)
    assert stats.golay_defect > 0 and not stats.component_ok
    assert audit_block(offset_block(3, pi, Offset16(0, 1, 1), orbit_rows(3)), 16, 1).golay_defect > 0
    monkeypatch.setattr(verification, "companion_sign", plain)
    for cell in (cell16, cell64):
        with pytest.raises(AssertionError, match="P1 and P2"):
            cell_stats(cell)
    assert cli.main(["verify", "--m", "3", "--jobs", "1"]) == 3
    assert "AssertionError" in capsys.readouterr().err


def test_audit_block_correlates_each_component_once(monkeypatch):
    # D and the 10 distinct component forms of the 16 orbit offsets (4
    # linear type 1 s1 forms, 2 quadratic forms serving as d and type 2 s1,
    # 4 type 2 s2 forms) are correlated once per cell, not 3 times per
    # offset, in the one kernel call that also gives every cross term the
    # codewords and the lemmas need: over the cell's base rows D, the
    # 64 / 4 = 16 orbit rows of the orbit walk's first cell, every row once
    pi, rows = next(run_cells(3, 8 * 16))
    block = build_block(3, pi, orbit_offsets(Modulation.QAM64), rows)
    assert block.components.shape == (11, 16, 8)
    assert len(block) == 16 * 16
    calls = []
    real = verification.coset_correlation_sums

    def counted(base, factors, pi):
        sums = real(base, factors, pi)
        calls.append((base, factors.shape, sums))
        return sums

    monkeypatch.setattr(verification, "coset_correlation_sums", counted)
    stats = walk_audit(block, 16)
    ((base, shape, sums),) = calls
    assert np.array_equal(base, block.components[0])
    # (shifts u = 0 and u0, terms, n): A of D and of the 10 forms, each
    # correlated with its companion as the explicit sequences are, then T
    # of D with each form, and T(F, G) and the a2a3 T of each of the 16
    # offsets
    assert shape == (2, 11 + 10 + 16 + 16, 8)
    units = polyphase_lattice(block.components).reshape(-1, 8)
    pair = np.stack([units, units * block.companion_sign])
    at, rest = oracles.two_shifts(oracles.correlation_sums_batch(pair, pair), pi)
    assert np.array_equal(sums[:11], at.reshape(11, 16, 2)) and not rest.any()
    # each (offset, row) counts for the 64 records of its orbit: 8 offsets
    # per kind over 16 rows
    assert FULL_ORBIT_SIZE == 64
    assert [(k.kind, k.total) for k in stats] == [("type1", 64 * 8 * 16), ("type2", 64 * 8 * 16)]


def walk_groups():
    """The orbit offsets of each family, as the walk of both families takes
    them, and all of them in its order."""
    groups = tuple(orbit_offsets(modulation) for modulation in Modulation)
    return groups, groups[0] + groups[1]


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("modulation", list(Modulation), ids=lambda mod: mod.value)
def test_the_component_identity_gives_every_codeword_sum(m, modulation):
    # W @ sums, the codeword sums the walk takes from its components' A
    # and T terms at u = 0 and u0, equals bit for bit the per-shift
    # correlation of every codeword there, which is 0 at every other
    # shift, over every orbit row of every pi
    offsets = orbit_offsets(modulation)
    for pi, rows in run_cells(m, 1):
        block = build_block(m, pi, offsets, rows)
        terms = verification._walk_terms(m, pi, offsets)
        sums = analysis.coset_correlation_sums(block.components[0], terms.factors, pi)
        at, rest = oracles.two_shifts(oracles.direct_codeword_sums(block), pi)
        assert np.array_equal(verification._codeword_sums(sums, terms), at)
        assert not rest.any()


@pytest.mark.parametrize("m, step", [(3, 1), (4, 1), (5, 16)])
def test_every_orbit_row_reduces_as_the_zero_row_of_its_pi(monkeypatch, m, step):
    # the walk reduces one row per pi, the zero row, and credits it to each
    # orbit row of the pi.  Against its per-row oracles, under the orbit
    # offsets of both families, on every orbit row at m = 3 and 4 and every
    # 16th at m = 5: each row's own _reductions (every star, Golay defect
    # and lemma residual) and score_block's star of each family's block
    # equal the zero row's, bit for bit.  Negative control: with the
    # companion sign forced to +1 the per-shift oracle scores another star,
    # and score_block refuses the sign
    groups, offsets = walk_groups()
    for pi, rows in run_cells(m, 1):
        rows = rows[::step]
        zero = verification._pi_reductions.__wrapped__(m, pi, offsets)
        own = verification._reductions(base_rows(m, pi, rows),
                                       verification._walk_terms(m, pi, offsets))
        assert list(own[2]) == list(zero[2])
        for each, once in zip((*own[:2], *own[2].values()), (*zero[:2], *zero[2].values())):
            assert np.array_equal(each, np.repeat(once, len(rows), axis=1))
        for first, group in zip((0, len(groups[0])), groups):
            block = build_block(m, pi, group, rows)
            walk = zero[0][first : first + len(group)] / block.scale.value
            assert np.array_equal(score_block(block, 16)[0], np.repeat(walk, len(rows), axis=1))
    monkeypatch.setattr(constructions, "companion_sign", lambda m, pi: np.ones(1 << m, np.int64))
    plain = star_sum(oracles.direct_codeword_sums(block).reshape(-1, 1 << m)) / block.scale.value
    assert not np.array_equal(plain.reshape(len(walk), -1), np.repeat(walk, len(rows), axis=1))
    with pytest.raises(AssertionError, match="P1 and P2"):
        score_block(block, 16)


def test_a_reduction_that_reads_the_phase_of_s_u0_differs_between_rows():
    # negative control for the zero row: S(u0) of a row is zeta^(-c0) times
    # the zero row's, so a reduction that reads its phase, Re S(u0) of each
    # 16-QAM codeword, differs between the rows of the first pi at m = 4,
    # where its modulus, which the star reads, does not
    m = 4
    pi, rows = next(run_cells(m, 1))
    offsets = orbit_offsets(Modulation.QAM16)
    terms = verification._walk_terms(m, pi, offsets)
    sums = analysis.coset_correlation_sums(base_rows(m, pi, rows), terms.factors, pi)
    at_u0 = verification._codeword_sums(sums, terms)[:, :, 1]
    assert len(np.unique(at_u0.real)) > 1
    assert len(np.unique(np.abs(at_u0))) == 1


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_every_base_row_is_the_zero_row_plus_its_affine_part(m):
    # premise P3 of the zero row: base_rows of any coefficient row minus
    # base_rows of the zero row is the row's affine part, sum_k c_k *
    # x_pi(k) + c, mod 4, read here off the bits of each index; on the
    # first and last pi and a seeded sample of rows
    rng = np.random.default_rng(m)
    rows = rng.integers(0, 4, size=(64, m + 1), dtype=np.uint8)
    i = np.arange(1 << m)
    for pi in (tuple(range(m)), list(canonical_permutations(m))[-1]):
        zero = base_rows(m, pi, np.zeros((1, m + 1), np.uint8)).astype(np.int64)
        bits = np.stack([(i >> (m - 1 - v)) & 1 for v in pi])  # x_pi(k), k = 0 .. m-1
        affine = (rows[:, :m].astype(np.int64) @ bits + rows[:, m:]) % 4
        assert np.array_equal((base_rows(m, pi, rows) - zero) % 4, affine)


def test_a_form_that_reads_a_third_variable_fails_the_certificate(monkeypatch, capsys):
    # negative control for premise P1: forms that also read x_pi(2), 2 *
    # x_pi(2) added to every form value, would let a row's sums differ from
    # the zero row's; the walk refuses them, and verify exits 3, an
    # internal error, not a verdict
    real = verification.form_values

    def third(forms, m, pi):
        return (real(forms, m, pi) + 2 * ((np.arange(1 << m) >> (m - 1 - pi[2])) & 1)) % 4

    monkeypatch.setattr(verification, "form_values", third)
    with pytest.raises(AssertionError, match="P1 and P2"):
        verification.orbit_walk(3)
    assert cli.main(["verify", "--m", "3", "--jobs", "1"]) == 3
    assert "AssertionError" in capsys.readouterr().err


def test_the_walk_correlates_one_zero_row_per_pi(monkeypatch):
    # every orbit row of a pi is credited with the reductions of its zero
    # row, so the walk makes one kernel call per pi, with or without the
    # audits, on the zero row alone, and one for the negative controls;
    # the lemma walk makes one task per pi, and the audit walk at m = 5
    # spans a pi over several runs, which share the pi's one call
    real = verification.coset_correlation_sums
    calls = []

    def recorded(base, factors, pi):
        calls.append((base.copy(), factors.shape))
        return real(base, factors, pi)

    monkeypatch.setattr(verification, "coset_correlation_sums", recorded)
    for m, walk in [(3, lemma_sweep), (3, verification.orbit_walk), (4, lemma_sweep),
                    (4, verification.orbit_walk), (5, lemma_sweep), (5, verification.orbit_walk)]:
        calls.clear()
        walk(m)
        n, pis = 1 << m, list(canonical_permutations(m))
        assert len(calls) == len(pis) + 1
        for (base, shape), pi in zip(calls, pis):
            # the 11 components, 10 forms and 16 + 16 terms of the 2 + 16
            # orbit offsets
            assert shape == (2, 53, n)
            assert np.array_equal(base, base_rows(m, pi, np.zeros((1, m + 1), np.uint8)))
        # the negative controls' one row: 3 distinct forms, and T(F, G) and
        # the a2a3 T of L2 and L3
        assert calls[-1][0].shape == (1, n) and calls[-1][1] == (2, 1 + 2 * 3 + 2 * 2, n)


@pytest.mark.parametrize("modulation", list(Modulation), ids=lambda mod: mod.value)
def test_the_component_identity_needs_every_term_and_its_companion(monkeypatch, modulation):
    # negative controls: one T_jk forged by one lattice unit at u = 0, where
    # C_H(0) + C_H'(0) is twice the energy, raises the star of every
    # codeword with that cross term; the codewords taken without the
    # companion sign, (1 + g_i g_{i+u}) replaced by 2, have sums outside
    # u = 0 and u0, and the terms refuse that sign; and the weight of A of
    # the first form off by one moves the star of exactly the offsets that
    # carry it away from the direct star, on every row
    m, pi, rows = 3, (0, 2, 1), orbit_rows(3)[:16]
    offsets = orbit_offsets(modulation)
    block = build_block(m, pi, offsets, rows)
    direct = oracles.direct_codeword_sums(block)
    terms = verification._walk_terms(m, pi, offsets)
    sums = analysis.coset_correlation_sums(block.components[0], terms.factors, pi)
    stars = star_sum(direct.reshape(-1, 8)).reshape(direct.shape[:2])
    t = terms.components  # T of D with the first form
    forged = sums.copy()
    forged[t, 0, 0] += 1
    moved = star_sum(verification._codeword_sums(forged, terms).reshape(-1, 2)).reshape(stars.shape)
    changed = moved != stars
    assert np.array_equal(changed[:, 0], terms.weights[:, t] != 0) and changed[:, 0].any()
    assert not changed[:, 1:].any()
    # a plain sign, g = +1 everywhere, which P2 refuses
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "companion_sign", lambda m, pi: np.ones(1 << m, np.int64))
        assert oracles.two_shifts(oracles.direct_codeword_sums(block), pi)[1].any()
        patch.setattr(verification, "companion_sign", lambda m, pi: np.ones(1 << m, np.int64))
        with pytest.raises(AssertionError, match="P1 and P2"):
            verification._walk_terms(m, pi, offsets)
    weights = terms.weights.copy()
    carriers = weights[:, 1] != 0  # A of D plus the first form
    weights[carriers, 1] += 1
    off = verification._codeword_sums(sums, terms._replace(weights=weights))
    off = star_sum(off.reshape(-1, 2)).reshape(stars.shape)
    assert 0 < carriers.sum() < len(offsets)
    assert np.array_equal(off != stars, np.repeat(carriers[:, None], len(rows), axis=1))


def test_a_walk_cell_stays_within_its_memory_bound():
    # the walk holds no row's sums: a lemma-only task over the 256 orbit
    # rows of a pi at m = 5 peaks as one over 8 of them, within 16 times
    # the (2, 53, n) complex factors of the pi's one zero-row reduction.
    # Negative control: the per-row reductions of the 256 rows, the walk's
    # oracle, hold their (53, 256, 2) sums and go beyond that bound
    import tracemalloc

    m, n = 5, 32
    groups, offsets = walk_groups()
    pi, rows = next(run_cells(m, 1))
    assert len(rows) == 256
    bound = 16 * 2 * 53 * n * np.dtype(complex).itemsize
    peaks = []
    for count in (8, 256):
        tracemalloc.start()
        verification._walk_task((m, [(pi, rows[:count])], groups), None)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        verification._pi_reductions.cache_clear()
    tracemalloc.start()
    verification._reductions(base_rows(m, pi, rows), verification._walk_terms(m, pi, offsets))
    oracle = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 << 10
    assert max(peaks) <= bound < oracle


def test_audit_block_requires_a_golay_first_component_for_type1_only(monkeypatch):
    # every Golay defect read one unit high: the type 1 offsets of a cell
    # must lose their component check (their first component must be a
    # Golay pair), the type 2 offsets must keep it (their components are
    # only held to star <= 4n)
    cell64 = build_block(3, (0, 1, 2), _offset_list(Modulation.QAM64), orbit_rows(3))
    real = verification.golay_defect
    monkeypatch.setattr(verification, "golay_defect", lambda sums: real(sums) + 1)
    stats = cell_stats(cell64)
    assert not stats["type1"].component_ok
    assert stats["type2"].component_ok


@pytest.mark.parametrize("m, modulation", [
    (3, Modulation.QAM16), (3, Modulation.QAM64), (4, Modulation.QAM16), (4, Modulation.QAM64),
])
def test_cell_audit_equals_the_per_offset_reference(m, modulation):
    # the cell audit (one offset per conjugation x reversal orbit, D and
    # each distinct form correlated once per cell, PMEPRs refined near each
    # decision) against each (pi, offset) block of every offset scored alone
    # on the same orbit rows, weighted ORBIT_SIZE: every count, extremum,
    # defect and flag, bit for bit
    reference = offset_bound_audit(m, modulation, orbit_rows(m), ORBIT_SIZE)
    assert theorem_bound_audit(m, modulation, jobs=1) == reference
    # and cell by cell: the KindStats of the first orbit-walk block, which
    # holds every orbit of its pi, are the reference's blocks of every
    # offset over every orbit row of that pi, summed
    offsets = orbit_offsets(modulation)
    pi, rows = next(run_cells(m, (1 << m) * len(offsets)))
    assert len(rows) == 4**m // SHIFT_ORBIT_SIZE
    summed: dict[str, KindStats] = {}
    for off in _offset_list(modulation):
        stats = audit_block(offset_block(m, pi, off, orbit_rows(m)), 16, ORBIT_SIZE)
        summed[stats.kind] = summed[stats.kind] + stats if stats.kind in summed else stats
    assert cell_stats(build_block(m, pi, offsets, rows)) == summed


@pytest.mark.parametrize("oversample", [16, 32, 5])
@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_the_orbit_walk_audit_equals_every_orbit_row_scored_alone(modulation, oversample):
    # one row per 64-record orbit, its PMEPR screened and refined near each
    # decision, against every offset scored alone by pep_batch on every
    # orbit row: at L = 16 and 32, where the grid is a power of two, and at
    # L = 5, where it is not and no row is screened
    reference = offset_bound_audit(3, modulation, orbit_rows(3), ORBIT_SIZE, oversample)
    assert theorem_bound_audit(3, modulation, oversample, jobs=1) == reference


def test_an_odd_rate_needs_the_quarter_shift_images(monkeypatch):
    # negative control: at L = 5 the computed PEPs of a record's quarter
    # shifts differ from its own in the last bits, and a refinement that
    # computes only the conjugation x reversal images misses the type 1 max
    # of 64-QAM m=3, which a quarter shift reaches; at L = 16 they are
    # bit-equal here, and the same refinement gives the reference
    monkeypatch.setattr(analysis, "orbit_peps", oracles.conjugation_reversal_peps)
    audits = {oversample: (theorem_bound_audit(3, Modulation.QAM64, oversample, jobs=1),
                           offset_bound_audit(3, Modulation.QAM64, orbit_rows(3), ORBIT_SIZE,
                                              oversample)) for oversample in (16, 5)}
    assert audits[16][0] == audits[16][1]
    got, expected = (audit.kinds for audit in audits[5])
    assert got[0].max_pmepr < expected[0].max_pmepr
    assert got == (dataclasses.replace(expected[0], max_pmepr=got[0].max_pmepr), expected[1])


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_every_row_is_near_at_an_odd_rate_and_none_far_at_a_power_of_two(monkeypatch, modulation):
    # pep_spread proves a spread only on power-of-two grids: elsewhere it is
    # infinite, so at L = 3 every row of an orbit block is near every point
    # and the audit computes the PEPs of all 16 images of every row; at
    # L = 16 no row is near the ceilings, which no PMEPR lies close to
    assert pep_spread(3 * 8) == pep_spread(5 * 16) == math.inf
    assert 0 < pep_spread(16 * 8) < 1e-12
    block = build_block(3, (0, 1, 2), orbit_offsets(modulation), orbit_rows(3))
    ceilings = sorted(bound for bound, _ in CEILINGS.values())
    real, marked = analysis.orbit_peps, []

    def spy(z, peps, near, oversample):
        marked.append(near.copy())
        return real(z, peps, near, oversample)

    monkeypatch.setattr(analysis, "orbit_peps", spy)
    for oversample, every in ((3, True), (16, False)):
        p = np.concatenate([pep_batch(z, oversample) for z in block.complex_symbols()]) / 8
        near = near_points(p, ceilings, oversample * 8)
        assert np.all(near) if every else not np.any(near)
        marked.clear()
        walk_audit(block, oversample)
        assert all(np.all(near) for near in marked) == every
    # at L = 16 only rows within the spread of their kind's max are refined
    assert 0 < sum(np.count_nonzero(near) for near in marked) < len(block)


def test_the_audit_max_needs_the_refinement(monkeypatch):
    # negative control: an audit that lets every orbit row stand for its
    # whole orbit misses the type 2 max of 64-QAM m=3, which an image
    # reaches in its last bits
    reference = offset_bound_audit(3, Modulation.QAM64, orbit_rows(3), ORBIT_SIZE)
    real = analysis.orbit_peps
    monkeypatch.setattr(analysis, "orbit_peps",
                        lambda z, peps, near, oversample: real(z, peps, near & False, oversample))
    unrefined = {k.kind: k for k in theorem_bound_audit(3, Modulation.QAM64, jobs=1).kinds}
    expected = {k.kind: k for k in reference.kinds}
    assert unrefined["type1"] == expected["type1"]
    assert unrefined["type2"].max_pmepr < expected["type2"].max_pmepr
    assert unrefined["type2"] == dataclasses.replace(
        expected["type2"], max_pmepr=unrefined["type2"].max_pmepr)


def test_the_audit_screen_without_its_margin_misses_a_max(monkeypatch):
    # negative control: with screen_margin forced to 0, the audit sends to
    # pep_batch only the rows whose screened PMEPR is their kind's screened
    # max, and at 64-QAM m=4 the type 2 float64 max lies in another row, so
    # the reported max moves in its last bits; every other field stays
    reference = theorem_bound_audit(4, Modulation.QAM64, jobs=1)
    monkeypatch.setattr(analysis, "screen_margin", lambda z, oversample: np.zeros(len(z)))
    got, expected = ({k.kind: k for k in audit.kinds}
                     for audit in (theorem_bound_audit(4, Modulation.QAM64, jobs=1), reference))
    assert got["type1"] == expected["type1"]
    assert got["type2"].max_pmepr != expected["type2"].max_pmepr
    assert got["type2"] == dataclasses.replace(expected["type2"], max_pmepr=got["type2"].max_pmepr)


@pytest.mark.parametrize("m, oversample", [(7, 16), (3, 3)])
def test_the_audit_runs_pep_batch_where_the_screen_proves_nothing(monkeypatch, m, oversample):
    # beyond n = 64 and on a grid that is not a power of two the audit takes
    # every PEP from pep_batch and never screens: its tally is that of an
    # audit whose PEPs are all pep_batch's
    offsets = orbit_offsets(Modulation.QAM16)
    pi, rows = next(run_cells(m, (1 << m) * len(offsets)))
    block = build_block(m, pi, offsets, rows[:8])

    def refused(z, oversample):
        raise AssertionError("screened")

    monkeypatch.setattr(analysis, "screen_peps", refused)
    stats = walk_audit(block, oversample)
    # the negative control: at n = 8 and L = 16 the audit screens
    with pytest.raises(AssertionError, match="screened"):
        walk_audit(build_block(3, (0, 1, 2), offsets, orbit_rows(3)), 16)
    monkeypatch.setattr(analysis, "threshold_peps",
                        lambda z, oversample, points, groups: pep_batch(z, oversample))
    assert walk_audit(block, oversample) == stats


def test_each_pmepr_decision_refines_the_rows_near_its_point(monkeypatch):
    # the audit compares a row's PMEPR with its star/n plus STAR_TOL and
    # with the kind's max, and with no ceiling, screening every row against
    # one shared set: every offset's star/n plus STAR_TOL and each kind's
    # max.  STAR_TOL moved so that one row's point lands on its PMEPR must
    # send that row, and only rows near a point of the set, to orbit_peps
    # for its images' PEPs
    block = build_block(3, (0, 1, 2), orbit_offsets(Modulation.QAM64), orbit_rows(3))
    terms = verification._walk_terms(3, (0, 1, 2), block.offsets)
    stars = verification._reductions(block.components[0], terms)[0]
    type2 = np.array(block.kinds) == "type2"
    stars_over_n = stars[: len(block.offsets)] / 42 / 8
    pmeprs = np.stack([pep_batch(z, 16) for z in block.complex_symbols()]) / 8
    s, p = stars_over_n[type2].ravel(), pmeprs[type2].ravel()
    row = int(np.argsort(p)[len(p) // 2])  # a middling PMEPR, far from the max
    real, marked = analysis.orbit_peps, []

    def spy(z, peps, near, oversample):
        # the one call of the block holds every offset's rows: its type 2 rows
        marked.append(near.reshape(len(block.offsets), -1)[type2].ravel())
        return real(z, peps, near, oversample)

    monkeypatch.setattr(analysis, "orbit_peps", spy)
    cell_stats(block)
    assert not marked[0][row]
    monkeypatch.setattr(verification, "STAR_TOL", p[row] - s[row])
    marked.clear()
    cell_stats(block)
    assert marked[0][row]
    points = [pmeprs[type2].max(), pmeprs[~type2].max(),
              *np.ravel(stars_over_n + verification.STAR_TOL)]
    near = np.abs(p[:, None] - points) <= pep_spread(16 * 8) * p[:, None]
    assert np.array_equal(marked[0], np.any(near, axis=1))


def test_kind_stats_add():
    a = KindStats("type1", 10, 0.5, 3.0, 2.9, 0, True, True)
    b = KindStats("type1", 5, 0.6, 3.5, 2.8, 2, False, True)
    total = KindStats("type1", 15, 0.5, 3.5, 2.9, 2, False, True)
    assert a + b == b + a == total
    assert (total.bound, total.exact_bound) == CEILINGS["type1"]


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_bound_audit_does_not_depend_on_block_order(monkeypatch, modulation):
    # the walk's tasks folded in reverse order: at m = 3 one run holds every
    # pi, so the m at which a one-family walk makes several runs, 30 for
    # 16-QAM m = 5 and 6 for 64-QAM m = 4, is checked too
    real = verification._map_cells
    for m in (3, {Modulation.QAM16: 5, Modulation.QAM64: 4}[modulation]):
        forward = theorem_bound_audit(m, modulation, jobs=1)
        with monkeypatch.context() as patch:
            patch.setattr(verification, "_map_cells", lambda *args: list(real(*args))[::-1])
            assert theorem_bound_audit(m, modulation, jobs=1) == forward


def packed_walks(m):
    """(orbit_walk(m) and the bound audit of each family alone,
    family_pmeprs of each family at m, run_pmeprs calls of the audits and
    of ccdf)."""
    calls = {"walk": 0, "ccdf": 0}
    with pytest.MonkeyPatch.context() as patch:
        for module, key in ((verification, "walk"), (cli, "ccdf")):
            def counted(*args, real=module.run_pmeprs, key=key, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            patch.setattr(module, "run_pmeprs", counted)
        walk = (verification.orbit_walk(m), *(theorem_bound_audit(m, mod) for mod in Modulation))
        thresholds = default_threshold_grid()
        counts = {kind: count for modulation in Modulation
                  for kind, count in cli.family_pmeprs(m, modulation, thresholds).items()}
    return walk, counts, calls


@pytest.mark.parametrize("m, calls", [(3, ({"walk": 3, "ccdf": 2}, {"walk": 9, "ccdf": 6})),
                                      (4, ({"walk": 19, "ccdf": 7}, {"walk": 36, "ccdf": 24}))])
def test_packing_cells_into_runs_moves_no_report(monkeypatch, m, calls):
    # the walks with their cells packed into runs of at most CHUNK_SYMBOLS
    # symbols, one run_pmeprs call per run, against one cell per run (each
    # run of orbit_runs split into its cells): every orbit_walk report,
    # every one-family bound audit and every family_pmeprs count.
    # At m = 3 a run holds all 3 pis of every walk; at m = 4 one pi fills a
    # run of the walk of both families, and the one-family walks pack 12
    # pis of 16-QAM or 2 of 64-QAM, as ccdf does
    packed = packed_walks(m)
    for module in (verification, cli):
        monkeypatch.setattr(module, "orbit_runs",
                            lambda m, per_row: ([cell] for cell in run_cells(m, per_row)))
    unpacked = packed_walks(m)
    assert (packed[2], unpacked[2]) == calls
    assert packed[0] == unpacked[0]
    assert packed[1].keys() == unpacked[1].keys() == set(CEILINGS)
    for kind, counts in packed[1].items():
        assert np.array_equal(counts, unpacked[1][kind])


def test_bound_audit_fails_the_star_and_pmepr_checks_of_the_kind_over_its_ceiling(
        monkeypatch, capsys):
    # negative control: the first record of the first type 2 orbit offset
    # of the first cell reads one lattice unit (1/42) above the published type 2
    # ceiling: its zero-shift sum, in the codeword sums of the component
    # identity, is raised by the gap, which raises its star by exactly that
    # much (T(0) > 0).  The kind's PMEPR verdict is the chain pmepr <=
    # star/n <= ceiling, so it fails with the star, though no sampled PEP
    # moves.  The walk of both families holds the 2 16-QAM offsets before
    # the 16 64-QAM ones
    from qamseq.cli import main

    first_type2 = [offset_kind(o) for o in orbit_offsets(Modulation.QAM64)].index("type2")
    real = verification._codeword_sums
    forged = []

    def one_over(sums, terms):
        codewords = real(sums, terms)
        if not forged:  # the first cell
            row = codewords[first_type2 + len(terms.weights) - 16, 0]
            row[0] += CEILINGS["type2"][0] * 8 * Scale.QAM64.value + 1 - star_sum(row[None])[0]
            forged.append(row[0])
        return codewords

    monkeypatch.setattr(verification, "_codeword_sums", one_over)
    over = ["bounds.64qam.m3.type2.star", "bounds.64qam.m3.type2.pmepr"]
    report = theorem_bound_audit(3, Modulation.QAM64, jobs=1)
    assert [c.name for c in report.checks() if not c.passed] == over
    assert not report.passed
    by_kind = {k.kind: k for k in report.kinds}
    assert by_kind["type2"].max_star_over_n == pytest.approx(CEILINGS["type2"][0] + 1 / (42 * 8))

    assert len(forged) == 1 and forged[0].real > 0
    forged.clear()
    assert main(["verify", "--suite", "bounds", "--m", "3", "--jobs", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in out["checks"] if not c["passed"]] == over


def test_a_16qam_star_forged_below_2n_fails_the_star_and_pmepr_le_star_checks(
        monkeypatch, capsys):
    # negative control for the 16-QAM floor star/n >= 2: the first 16-QAM
    # codeword of the first pi's zero row has its zero-shift sum lowered
    # until its star reads one lattice unit below 2n (the floor
    # C(0)_H + C(0)_H' = 2n of valid offsets), star/n = 159/80.  The walk
    # credits the zero row to every orbit row of its (pi, offset), so that
    # star is theirs: the star check, which reads the kind's least star/n,
    # fails, and so does pmepr <= star/n, as some of those rows have a
    # sampled PMEPR above 159/80.  The kind's largest star/n, which its
    # pmepr check reads, does not move, and no other check fails.  The walk
    # of both families holds the 16-QAM offsets first
    from qamseq.cli import main

    pi, rows = next(run_cells(3, 1))
    block = build_block(3, pi, orbit_offsets(Modulation.QAM16)[:1], rows)
    pmeprs = pep_batch(block.complex_symbols()[0], 16) / 8
    floor = 2 * 8 * Scale.QAM16.value
    assert pmeprs.min() < (floor - 1) / 80 < pmeprs.max()
    real = verification._codeword_sums
    forged = []

    def one_under(sums, terms):
        codewords = real(sums, terms)
        if not forged:  # the first pi's zero row
            sums = codewords[0, 0]
            sums[0] += floor - 1 - star_sum(sums[None])[0]
            forged.append(sums[0])
        return codewords

    monkeypatch.setattr(verification, "_codeword_sums", one_under)
    failed = ["bounds.16qam.m3.qam16.star", "bounds.16qam.m3.pmepr_le_star"]
    report = theorem_bound_audit(3, Modulation.QAM16, jobs=1)
    assert [c.name for c in report.checks() if not c.passed] == failed
    (stats,) = report.kinds
    assert stats.min_star_over_n == pytest.approx((floor - 1) / 80, abs=1e-12)
    assert stats.max_star_over_n == pytest.approx(2.4, abs=1e-12)
    assert len(forged) == 1 and forged[0].real > 0
    forged.clear()
    assert main(["verify", "--suite", "bounds", "--m", "3", "--jobs", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in out["checks"] if not c["passed"]] == failed


def test_a_sampled_pep_forged_above_its_star_fails_only_pmepr_le_star(monkeypatch, capsys):
    # negative control: in the first orbit_pmeprs call, the row 0 codeword of
    # the first pi with the least star/n has its sampled PEP forged to 1e-3
    # above its own star/n + STAR_TOL, the point of its pmepr <= star/n
    # decision.  For 64-QAM that is a type 1 row of star/n 4/7, so the
    # forged value lies below its kind's largest star/n and ceiling: a
    # pmepr_le_star that read either instead of the row's own star would
    # pass it.  pmepr <= star/n fails for that row; each kind's pmepr check
    # reads the star, not a sample, so it stays passed, as does every other
    # check.  The walk of both families holds the 16-QAM offsets first,
    # whose star/n are all 12/5
    from qamseq.cli import main

    def least_star_row(modulation):
        pi = next(iter(canonical_permutations(3)))
        block = build_block(3, pi, orbit_offsets(modulation), orbit_rows(3))
        terms = verification._walk_terms(3, pi, block.offsets)
        stars = verification._reductions(block.components[0], terms)[0][: len(block.offsets)]
        stars_over_n = stars / block.scale.value / 8
        c = int(np.argmin(stars_over_n[:, 0]))
        kind = np.array(block.kinds) == block.kinds[c]
        return (stars_over_n[c, 0], block.complex_symbols()[c, 0],
                min(np.max(stars_over_n[kind]), CEILINGS[block.kinds[c]][0]))

    real = analysis.threshold_peps
    forged = []

    def over(z, oversample, points, groups=None):
        peps = real(z, oversample, points, groups)
        if not forged:
            own, symbols, _ = target
            at = np.flatnonzero(np.all(z == symbols, axis=1))
            assert at.size == 1
            peps[at] = (own + verification.STAR_TOL + 1e-3) * z.shape[1]
            forged.append(peps[at[0]] / z.shape[1])
        return peps

    monkeypatch.setattr(analysis, "threshold_peps", over)
    target = least_star_row(Modulation.QAM64)
    assert target[0] + verification.STAR_TOL + 1e-3 < target[2]
    report = theorem_bound_audit(3, Modulation.QAM64, jobs=1)
    assert [c.name for c in report.checks() if not c.passed] == ["bounds.64qam.m3.pmepr_le_star"]
    assert all(c.passed for c in report.checks() if c.name.endswith(".pmepr"))
    assert len(forged) == 1
    forged.clear()
    target = least_star_row(Modulation.QAM16)
    assert main(["verify", "--suite", "bounds", "--m", "3", "--jobs", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in out["checks"] if not c["passed"]] == ["bounds.16qam.m3.pmepr_le_star"]
    assert len(forged) == 1


def envelope_failures(gaps):
    """The bounds of the envelope kernel's self-test that envelope_audit's
    (Parseval, PEP, dense) gaps break: Parseval <= 1e-9 relative, and PEP
    gap L=16 vs L=32 <= 0.5 % with FFT vs dense DFT <= 1e-9 relative."""
    parseval, gap, dense_gap = gaps
    verdicts = (("parseval", parseval <= 1e-9),
                ("oversampling_adequacy", gap <= 0.005 and dense_gap <= 1e-9))
    return [name for name, passed in verdicts if not passed]


def test_oversampling_audit_within_half_percent():
    assert oversampling_audit()[0] <= 0.005


def test_dense_envelope_gap_machine_precision():
    # the second gap of the shared envelope walk: FFT against a dense DFT
    assert oversampling_audit()[1] <= 1e-9


def test_oversampling_check_fails_on_a_kernel_that_ignores_oversample(monkeypatch):
    # negative control: an envelope FFT stuck at 2n points agrees with itself
    # at L=16 and L=32, so only the dense-DFT reference can see it.  The
    # envelope walk takes its L=16 PEP from envelope_power_batch and its
    # L=32 PEP from pep_batch, which calls the analysis module's
    # envelope_power_batch: the broken kernel replaces both names
    def two_n_grid(z, oversample=16):
        n = z.shape[1]
        return np.abs(np.fft.ifft(z, n=2 * n, axis=1) * 2 * n) ** 2

    monkeypatch.setattr(analysis, "envelope_power_batch", two_n_grid)
    monkeypatch.setattr(verification, "envelope_power_batch", two_n_grid)
    gaps = envelope_audit()
    assert gaps[1:] == oversampling_audit()
    assert gaps[1] == 0.0
    assert gaps[2] > 1e-9
    assert envelope_failures(gaps) == ["oversampling_adequacy"]


def test_parseval_audit_machine_precision():
    assert parseval_audit() <= 1e-9
    assert envelope_failures(envelope_audit()) == []


def test_envelope_audit_equals_the_full_walk():
    # one row per constant orbit against every record of the family, and
    # the two traced views are its parts
    gaps = envelope_audit()
    full = full_family_blocks(_envelope_gaps, 3, Modulation.QAM16)
    assert gaps == tuple(max(g) for g in zip(*full))
    assert (parseval_audit(), oversampling_audit()) == (gaps[0], gaps[1:])


def test_parseval_check_fails_on_an_envelope_off_by_one_part_in_a_million(monkeypatch):
    # negative control: grid-mean power 1 + 1e-6 times the energy
    real = verification.envelope_power_batch
    monkeypatch.setattr(
        verification, "envelope_power_batch", lambda z, oversample: real(z, oversample) * (1 + 1e-6)
    )
    assert envelope_failures(envelope_audit()) == ["parseval"]


def test_verify_leaves_the_envelope_self_test_to_the_tests(monkeypatch, capsys):
    # the envelope kernel's self-test runs here, in the tests, and not in
    # verify: with it refused, both suites that walk the bound audits still
    # pass, and no report names an analysis.* check
    from qamseq.cli import main

    def refused():
        raise AssertionError("verify ran the envelope self-test")

    monkeypatch.setattr(verification, "envelope_audit", refused)
    for suite in ("all", "bounds"):
        assert main(["verify", "--suite", suite, "--m", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert not [c["name"] for c in report["checks"] if c["name"].startswith("analysis.")]


def test_example_regression_all_pass():
    checks = example_regression()
    failed = [c.name for c in checks if not c.passed]
    assert not failed
    names = {c.name for c in checks}
    assert "example1.symbols" in names
    assert "example2.pmepr" in names


def test_example_symbols_check_fails_on_a_forged_pin(monkeypatch):
    # negative control: the symbols check compares the pinned Gaussian
    # integers exactly, and their scale: one symbol moved by one lattice
    # unit, or the right symbols pinned over the wrong scale, fails it
    (name, params, comps, (symbols, scale), pmepr), second = verification._EXAMPLES
    for pin in ((symbols + np.eye(8)[5], scale), (symbols, Scale.QAM64)):
        monkeypatch.setattr(verification, "_EXAMPLES", ((name, params, comps, pin, pmepr), second))
        failed = [c.name for c in example_regression() if not c.passed]
        assert failed == ["example1.symbols"]


def test_example_star_reads_the_coset_kernel(monkeypatch):
    # negative control: each example's star comes from score_block's
    # coset_correlation_sums of its codeword; one unit more on T(0) lifts
    # star/n by 1 / (10 * 8) and 1 / (42 * 8), above both published
    # ceilings, which example 1 meets exactly and example 2 clears by less
    # than 1e-3
    real = analysis.coset_correlation_sums

    def forged(base, factors, pi):
        sums = real(base, factors, pi)
        sums[..., 0] += 1
        return sums

    monkeypatch.setattr(analysis, "coset_correlation_sums", forged)
    failed = [c.name for c in example_regression() if not c.passed]
    assert failed == ["example1.star_bound", "example2.star_bound"]


class InProcessPool:
    """A stand-in for concurrent.futures.ProcessPoolExecutor that records
    the max_workers asked of it and maps in this process: no process starts."""

    workers: list = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, task, cells):
        return map(task, cells)


def test_a_huge_jobs_count_asks_no_more_workers_than_cpus(monkeypatch, capsys):
    # a fork-started pool launches every worker at its first submit, so
    # --jobs 100000 must not reach the pool: it asks for no more workers
    # than the CPUs this process may run on, and every report is that of
    # --jobs 1.  The pool is a stand-in: no process starts at any count
    monkeypatch.setattr(futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "workers", [])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for command in (["verify", "--m", "3"],
                    ["ccdf", "--m", "3", "--modulation", "64qam", "--baseline-count", "100"]):
        outputs = []
        for jobs in ("1", "100000", "2"):
            assert cli.main([*command, "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] == outputs[0]
    assert InProcessPool.workers == [cpus, min(2, cpus)] * 2


def test_fan_out_defaults_to_one_worker(monkeypatch):
    # the library's one fan-out, _map_cells, runs in this process at one
    # job, the walks' default, and refuses a count below 1; a cell of
    # family_cells at the symbols of all 8 offsets is one pi's 64 orbit rows
    monkeypatch.setattr(futures, "ProcessPoolExecutor", None)
    offsets = _offset_list(Modulation.QAM16)
    cells = ((3, pi, offsets, rows) for pi, rows in family_rows(3, 8 * len(offsets)))
    assert list(_map_cells(lambda cell: len(build_block(*cell)), cells, 1)) == [8 * 64] * 3
    assert theorem_bound_audit(3, Modulation.QAM16).passed
    for jobs in (0, -5):
        with pytest.raises(ValueError, match=f"worker count must be >= 1, got {jobs}"):
            _map_cells(len, iter([]), jobs)
