import dataclasses
import json
import math
from concurrent import futures

import numpy as np
import pytest

import oracles
from oracles import (
    audit_block,
    full_bound_audit,
    full_family_blocks,
    l1_row_sums,
    lemma1_residual,
    lemma2_residuals,
    lemma3_residuals,
    lemma_reports,
    lemma_residuals,
    offset_bound_audit,
    offset_block,
    offset_lemma_sweep,
)
from qamseq import verification
from qamseq.algebra import canonical_permutations, coefficient_matrix
from qamseq.analysis import (
    coset_footprint,
    near_points,
    pep_batch,
    pep_spread,
    polyphase_lattice,
    star_sum,
)
from qamseq.constellation import Scale
from qamseq.constructions import (
    CEILINGS,
    CHUNK_SYMBOLS,
    FULL_ORBIT_SIZE,
    ORBIT_SIZE,
    SHIFT_ORBIT_SIZE,
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset16,
    Offset64,
    OffsetKind,
    _offset_list,
    build_block,
    family_cells,
    list_offsets64,
    map_family_blocks,
    offset_kind,
    orbit_cells,
    orbit_offsets,
    orbit_rows,
)
from qamseq.gbf import PathQuadratic, base_rows
from qamseq.verification import (
    EXAMPLE1_PARAMS,
    EXAMPLE2_PARAMS,
    KindStats,
    _audit_block,
    _lemma_residuals,
    _parseval_gap,
    envelope_checks,
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


def test_lemma_residuals_see_a_companion_that_is_not_derived(monkeypatch):
    # negative control: with the companion sign forced to all +1 the
    # (-1)^(lb_i - lb_{i+u}) factor is gone, and valid offsets light up
    m, pi = 3, (0, 1, 2)
    row = base_rows(m, pi, np.array([[1, 1, 1, 0]]))
    valid = (Offset16(0, 1, 1), Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0))

    def residuals():
        return {k: float(r[0, 0]) for k, r in _lemma_residuals(row, valid, m, pi).items()}

    assert all(v == 0 for v in residuals().values())
    monkeypatch.setattr(verification, "companion_sign", lambda m, pi: np.ones(1 << m, dtype=np.int64))
    lit = residuals()
    assert lit["L1"] == 32.0
    assert all(v > 0.1 for v in lit.values())


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


def test_l1_from_row_sums_equals_the_per_shift_sum():
    # summed over every shift, X_{a,b} is (sum a) * conj(sum b): the sweep's
    # L1, |T(0) + 2 * sum_{u>=1} Re T(u)| from the per-shift sums T, equals the
    # row-sum L1 row by row, on every valid 16-QAM offset and four
    # constraint-breaking triples, over every cell of m=3, 4
    broken = tuple(Offset16(*t) for t in ((0, 0, 0), (0, 1, 0), (2, 0, 1), (1, 1, 1)))
    assert all(o.violations() for o in broken)
    offsets = _offset_list(Modulation.QAM16) + broken
    total = lit = 0
    for m in (3, 4):
        for pi, rows in family_cells(m, 1 << m):
            base_all = base_rows(m, pi, rows)
            got = _lemma_residuals(base_all, offsets, m, pi)["L1"]
            for values, off in zip(got, offsets, strict=True):
                assert np.array_equal(values, l1_row_sums(base_all, off, m, pi))
            total += got.size
            lit += int(np.count_nonzero(got))
    assert total == 12 * (3 * 4**3 + 12 * 4**4) == 39168
    assert lit > 0
    assert [negative_controls(m)["L1"] for m in (3, 4)] == [16.0, 32.0]


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
    for pi, rows in family_cells(m, 1 << m):
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
    # and the sweep reports the reference's maxima and evaluation counts
    result = lemma_sweep(m)
    maxima, counts = offset_lemma_sweep(m)
    assert (result.max_residuals, result.evaluations) == (maxima, counts)


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


def cell_stats(block):
    """The cell audit of a block, its KindStats by kind."""
    return {k.kind: k for k in _audit_block(block, 16)}


def test_audit_block_sees_a_companion_that_is_not_derived(monkeypatch):
    # negative control: with the companion sign forced to all +1 every
    # "pair" is a sequence with itself, which is never a Golay pair: the
    # base pair of every cell shows a defect, and so does the type 1 first
    # component
    cell16 = build_block(3, (0, 1, 2), _offset_list(Modulation.QAM16), orbit_rows(3))
    cell64 = build_block(3, (0, 1, 2), _offset_list(Modulation.QAM64), orbit_rows(3))
    assert cell_stats(cell16)["qam16"].golay_defect == 0
    assert cell_stats(cell64)["type1"].component_ok
    monkeypatch.setattr(
        FamilyBlock, "companion_sign", property(lambda b: np.ones(1 << b.m, dtype=np.int64))
    )
    assert cell_stats(cell16)["qam16"].golay_defect > 0
    stats64 = cell_stats(cell64)
    assert stats64["type1"].golay_defect > 0 and stats64["type2"].golay_defect > 0
    assert not stats64["type1"].component_ok


def test_audit_block_correlates_each_component_once(monkeypatch):
    # D and the 10 distinct component forms of the 16 orbit offsets (4
    # linear type 1 s1 forms, 2 quadratic forms serving as d and type 2 s1,
    # 4 type 2 s2 forms) are correlated once per cell, not 3 times per
    # offset, in the one kernel call that also correlates the 16 codewords:
    # over the cell's base rows D, the 64 / 4 = 16 orbit rows of the orbit
    # walk's first cell, every row once
    pi, rows = next(orbit_cells(3, 8 * 16))
    block = build_block(3, pi, orbit_offsets(Modulation.QAM64), rows)
    assert block.components.shape == (11, 16, 8)
    assert len(block) == 16 * 16
    calls = []
    real = verification.coset_correlation_sums

    def counted(base, factors):
        sums = real(base, factors)
        calls.append((base, factors.shape, sums))
        return sums

    monkeypatch.setattr(verification, "coset_correlation_sums", counted)
    stats = _audit_block(block, 16)
    ((base, shape, sums),) = calls
    assert np.array_equal(base, block.components[0])
    # (shifts, terms, n): the 16 codewords, then D and the 10 forms, each
    # correlated with its companion as the explicit sequences are
    assert shape == (8, 16 + 11, 8)
    explicit = np.concatenate([block.symbols, polyphase_lattice(block.components)])
    z = explicit.reshape(-1, 8)
    pair = np.stack([z, z * block.companion_sign])
    assert np.array_equal(sums, oracles.correlation_sums_batch(pair, pair).reshape(explicit.shape))
    # each (offset, row) counts for the 64 records of its orbit: 8 offsets
    # per kind over 16 rows
    assert FULL_ORBIT_SIZE == 64
    assert [(k.kind, k.total) for k in stats] == [("type1", 64 * 8 * 16), ("type2", 64 * 8 * 16)]


def test_audit_block_refuses_a_symbol_outside_its_coset():
    # negative control: the audit reads each codeword's row-free sequence
    # back from the block's symbols and each form from its components; one
    # symbol, or one component value, of one row moved by one unit makes
    # them differ between rows, and the audit must refuse the cell rather
    # than score some other sequence
    block = build_block(3, (0, 1, 2), _offset_list(Modulation.QAM64), orbit_rows(3))
    assert all(k.star_ok == k.total and k.component_ok for k in _audit_block(block, 16))
    symbols = block.symbols.copy()
    symbols[40, 9, 6] += 1
    components = block.components.copy()
    components[5, 9, 6] = (components[5, 9, 6] + 1) % 4
    for forged in (dataclasses.replace(block, symbols=symbols),
                   dataclasses.replace(block, components=components)):
        with pytest.raises(ValueError, match="not zeta\\^D times one row-free sequence"):
            _audit_block(forged, 16)


def test_lemma_cells_hold_the_kernel_footprint(monkeypatch):
    # each lemma cell, sized by the kernel's per-row footprint (unit
    # products and sums), holds at most CHUNK_SYMBOLS complex values, and
    # the sweep correlates every orbit row of every pi once
    real = verification.coset_correlation_sums
    calls = []

    def recorded(base, factors):
        calls.append((len(base), factors.shape))
        return real(base, factors)

    monkeypatch.setattr(verification, "coset_correlation_sums", recorded)
    for m in (3, 4):
        calls.clear()
        lemma_sweep(m)
        n = 1 << m
        assert all(rows * coset_footprint(n, shape[1]) <= CHUNK_SYMBOLS for rows, shape in calls)
        # 12 forms and 64 a2a3 terms per call, then the negative controls'
        # one row: their 3 distinct forms and the a2a3 terms of L2 and L3
        assert {shape for _, shape in calls[:-1]} == {(n, 12 + 64, n)}
        assert sum(rows for rows, _ in calls[:-1]) == len(canonical_permutations(m)) * 4**m
        assert calls[-1] == (1, (n, 3 + 2, n))


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
    pi, rows = next(orbit_cells(m, (1 << m) * len(offsets)))
    assert len(rows) == 4**m // SHIFT_ORBIT_SIZE
    summed: dict[str, KindStats] = {}
    for off in _offset_list(modulation):
        stats = audit_block(offset_block(m, pi, off, orbit_rows(m)), 16, ORBIT_SIZE)
        summed[stats.kind] = summed[stats.kind] + stats if stats.kind in summed else stats
    assert cell_stats(build_block(m, pi, offsets, rows)) == summed


@pytest.mark.parametrize("oversample", [16, 5])
@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_the_orbit_walk_audit_equals_every_orbit_row_scored_alone(modulation, oversample):
    # one row per 64-record orbit, refined near each decision, against every
    # offset scored alone on every orbit row: at L = 16, where the grid is a
    # power of two, and at L = 5, where it is not
    reference = offset_bound_audit(3, modulation, orbit_rows(3), ORBIT_SIZE, oversample)
    assert theorem_bound_audit(3, modulation, oversample, jobs=1) == reference


def test_an_odd_rate_needs_the_quarter_shift_images(monkeypatch):
    # negative control: at L = 5 the computed PEPs of a record's quarter
    # shifts differ from its own in the last bits, and a refinement that
    # computes only the conjugation x reversal images misses the type 1 max
    # of 64-QAM m=3, which a quarter shift reaches; at L = 16 they are
    # bit-equal here, and the same refinement gives the reference
    monkeypatch.setattr(verification, "orbit_peps", oracles.conjugation_reversal_peps)
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
    real, marked = verification.orbit_peps, []

    def spy(z, peps, near, oversample):
        marked.append(near.copy())
        return real(z, peps, near, oversample)

    monkeypatch.setattr(verification, "orbit_peps", spy)
    for oversample, every in ((3, True), (16, False)):
        p = np.concatenate([pep_batch(z, oversample) for z in block.complex_symbols()]) / 8
        near = near_points(p, ceilings, oversample * 8)
        assert np.all(near) if every else not np.any(near)
        marked.clear()
        _audit_block(block, oversample)
        assert all(np.all(near) for near in marked) == every
    # at L = 16 only rows within the spread of their kind's max are refined
    assert 0 < sum(np.count_nonzero(near) for near in marked) < len(block)


def test_the_audit_max_needs_the_refinement(monkeypatch):
    # negative control: an audit that lets every orbit row stand for its
    # whole orbit misses the type 2 max of 64-QAM m=3, which an image
    # reaches in its last bits
    reference = offset_bound_audit(3, Modulation.QAM64, orbit_rows(3), ORBIT_SIZE)
    real = verification.orbit_peps
    monkeypatch.setattr(verification, "orbit_peps",
                        lambda z, peps, near, oversample: real(z, peps, near & False, oversample))
    unrefined = {k.kind: k for k in theorem_bound_audit(3, Modulation.QAM64, jobs=1).kinds}
    expected = {k.kind: k for k in reference.kinds}
    assert unrefined["type1"] == expected["type1"]
    assert unrefined["type2"].max_pmepr < expected["type2"].max_pmepr
    assert unrefined["type2"] == dataclasses.replace(
        expected["type2"], max_pmepr=unrefined["type2"].max_pmepr)


@pytest.mark.parametrize("tolerance", ["PMEPR_TOL", "STAR_TOL"])
def test_each_pmepr_decision_refines_the_rows_near_its_point(monkeypatch, tolerance):
    # the audit compares a row's PMEPR with the ceiling plus PMEPR_TOL, with
    # its star/n plus STAR_TOL and with the kind's max.  A tolerance moved so
    # that its point lands on one row's PMEPR must send that row, and only
    # rows that near, to orbit_peps for its images' PEPs
    block = build_block(3, (0, 1, 2), orbit_offsets(Modulation.QAM64), orbit_rows(3))
    stars, _ = verification._block_stars(block)
    type2 = np.array(block.kinds) == "type2"
    s = (stars[: len(block.offsets)] / 42 / 8)[type2].ravel()
    p = np.stack([pep_batch(z, 16) for z in block.complex_symbols()])[type2].ravel() / 8
    row = int(np.argsort(p)[len(p) // 2])  # a middling PMEPR, far from the max
    point = {"PMEPR_TOL": CEILINGS["type2"][0], "STAR_TOL": s[row]}[tolerance]
    real, marked = verification.orbit_peps, []

    def spy(z, peps, near, oversample):
        marked.append(near.copy())
        return real(z, peps, near, oversample)

    monkeypatch.setattr(verification, "orbit_peps", spy)
    cell_stats(block)
    assert not marked[1][row]
    monkeypatch.setattr(verification, tolerance, p[row] - point)
    marked.clear()
    cell_stats(block)
    assert marked[1][row]
    points = [p.max(), CEILINGS["type2"][0] + verification.PMEPR_TOL, s + verification.STAR_TOL]
    near = [np.abs(p - point) <= pep_spread(16 * 8) * p for point in points]
    assert np.array_equal(marked[1], near[0] | near[1] | near[2])


def test_kind_stats_add():
    a = KindStats("type1", 10, 9, 10, 0.5, 3.0, 2.9, 0, True, True)
    b = KindStats("type1", 5, 5, 4, 0.6, 3.5, 2.8, 2, False, True)
    total = KindStats("type1", 15, 14, 14, 0.5, 3.5, 2.9, 2, False, True)
    assert a + b == b + a == total
    assert (total.bound, total.exact_bound) == CEILINGS["type1"]


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_bound_audit_does_not_depend_on_block_order(monkeypatch, modulation):
    forward = theorem_bound_audit(3, modulation, jobs=1)
    real = verification.map_orbit_blocks
    monkeypatch.setattr(verification, "map_orbit_blocks", lambda *args: list(real(*args))[::-1])
    assert theorem_bound_audit(3, modulation, jobs=1) == forward


def test_bound_audit_fails_only_the_star_check_of_the_kind_over_its_ceiling(monkeypatch, capsys):
    # negative control: the first record of the first type 2 orbit offset
    # of the first cell reads one lattice unit (1/42) above the published type 2
    # ceiling: its zero-shift sum, in the kernel's output, is raised by the
    # gap, which raises its star by exactly that much (T(0) > 0)
    from qamseq.cli import main

    first_type2 = [offset_kind(o) for o in orbit_offsets(Modulation.QAM64)].index("type2")
    real = verification.coset_correlation_sums
    forged = []

    def one_over(base, factors):
        sums = real(base, factors)
        n, terms = factors.shape[:2]
        if terms == 16 + 11 and not forged:  # the first 64-QAM cell: codewords, D, forms
            row = sums[first_type2, 0]
            row[0] += CEILINGS["type2"][0] * n * Scale.QAM64.value + 1 - star_sum(row[None])[0]
            forged.append(row[0])
        return sums

    monkeypatch.setattr(verification, "coset_correlation_sums", one_over)
    report = theorem_bound_audit(3, Modulation.QAM64, jobs=1)
    assert [c.name for c in report.checks() if not c.passed] == ["bounds.64qam.m3.type2.star"]
    assert not report.passed
    by_kind = {k.kind: k for k in report.kinds}
    # the forged row is an orbit representative: its star fails for the
    # FULL_ORBIT_SIZE records of its orbit
    assert by_kind["type2"].star_ok == by_kind["type2"].total - FULL_ORBIT_SIZE
    assert by_kind["type1"].star_ok == by_kind["type1"].total
    assert by_kind["type2"].max_star_over_n == pytest.approx(CEILINGS["type2"][0] + 1 / (42 * 8))

    assert len(forged) == 1 and forged[0].real > 0
    forged.clear()
    assert main(["verify", "--suite", "bounds", "--m", "3", "--jobs", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in out["checks"] if not c["passed"]] == ["bounds.64qam.m3.type2.star"]


def test_oversampling_audit_within_half_percent():
    assert oversampling_audit()[0] <= 0.005


def test_dense_envelope_gap_machine_precision():
    # the second gap of the shared envelope walk: FFT against a dense DFT
    assert oversampling_audit()[1] <= 1e-9


def test_oversampling_check_fails_on_a_kernel_that_ignores_oversample(monkeypatch, capsys):
    # negative control: an envelope FFT stuck at 2n points agrees with itself
    # at L=16 and L=32, so only the dense-DFT reference can see it
    from qamseq import verification
    from qamseq.cli import main

    def two_n_grid(z, oversample=16):
        n = z.shape[1]
        return np.max(np.abs(np.fft.ifft(z, n=2 * n, axis=1) * 2 * n) ** 2, axis=1)

    monkeypatch.setattr(verification, "pep_batch", two_n_grid)
    gap, dense_gap = oversampling_audit()
    assert gap == 0.0
    assert dense_gap > 1e-9
    assert main(["verify", "--suite", "bounds", "--m", "3", "--jobs", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "analysis.oversampling_adequacy"
    ]


def test_parseval_audit_machine_precision():
    assert parseval_audit() <= 1e-9
    (check,) = [c for c in envelope_checks() if c.name == "analysis.parseval"]
    assert check.passed
    assert check.observed.endswith("over all 6144 codewords of the m=3 16qam family")


def test_parseval_audit_equals_the_full_walk():
    # one row per constant orbit against every record of the family
    assert parseval_audit() == max(full_family_blocks(_parseval_gap, 3, Modulation.QAM16))


def test_parseval_check_fails_on_an_envelope_off_by_one_part_in_a_million(monkeypatch):
    # negative control: grid-mean power 1 + 1e-6 times the energy
    real = verification.envelope_power_batch
    monkeypatch.setattr(
        verification, "envelope_power_batch", lambda z, oversample: real(z, oversample) * (1 + 1e-6)
    )
    assert [c.name for c in envelope_checks() if not c.passed] == ["analysis.parseval"]


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
    # negative control: each example's star comes from the audit's
    # coset_correlation_sums; one unit more on T(0) of every sum lifts star/n
    # by 1 / (scale * n), above both published ceilings, which example 1
    # meets exactly and example 2 clears by less than 1e-3
    real = verification.coset_correlation_sums

    def forged(base, factors):
        sums = real(base, factors)
        sums[..., 0] += 1
        return sums

    monkeypatch.setattr(verification, "coset_correlation_sums", forged)
    failed = [c.name for c in example_regression() if not c.passed]
    assert failed == ["example1.star_bound", "example2.star_bound"]


def test_fan_out_defaults_to_one_worker(monkeypatch):
    # the library's fan-out runs in this process unless it is given a
    # worker count, and refuses a count below 1; a block is one pi's 64
    # orbit rows with all 8 offsets, and len counts its sequences
    monkeypatch.setattr(futures, "ProcessPoolExecutor", None)
    assert list(map_family_blocks(len, 3, Modulation.QAM16)) == [8 * 64] * 3
    for jobs in (0, -5):
        with pytest.raises(ValueError, match=f"worker count must be >= 1, got {jobs}"):
            map_family_blocks(len, 3, Modulation.QAM16, jobs)
