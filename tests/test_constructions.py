import cmath
import itertools

import numpy as np
import pytest

from qamseq.constructions import (
    BOUND_QAM16,
    ConstructionParams,
    EXACT_BOUND_TYPE1,
    EXACT_BOUND_TYPE2,
    Modulation,
    Offset16,
    Offset64,
    OffsetConstraintError,
    OffsetKind,
    build,
    build_block,
    classify_offset64,
    component_values,
    count_enumerated,
    enumerate_family,
    family_size,
    list_offsets16,
    list_offsets64,
    map_family_blocks,
    offset16_values,
    parameter_grid,
    star_bound,
)
from oracles import offset16_eval
from qamseq.algebra import bits_of, canonical_permutations
from qamseq.analysis import polyphase_lattice
from qamseq.constellation import Scale, qam16_lattice, qam64_lattice
from qamseq.gbf import PathQuadratic

EX1_BASE = PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0)
EX1_PARAMS = ConstructionParams(base=EX1_BASE, offset=Offset16(0, 1, 1))
EX2_PARAMS = ConstructionParams(
    base=EX1_BASE, offset=Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0)
)


def test_offset16_eval_reference_values():
    o = Offset16(0, 1, 1)
    assert offset16_eval(o, (0, 0, 0), (0, 1, 2)) == 1
    assert offset16_eval(o, (0, 1, 0), (0, 1, 2)) == 2
    assert offset16_eval(Offset16(2, 1, 0), (0, 0, 0), (0, 1, 2)) == 0


def test_list_offsets16_exact():
    triples = [(o.d1, o.d2, o.d3) for o in list_offsets16()]
    assert triples == [
        (0, 1, 1), (0, 1, 3), (0, 3, 1), (0, 3, 3),
        (2, 1, 0), (2, 1, 2), (2, 3, 0), (2, 3, 2),
    ]
    for o in list_offsets16():
        assert (o.d1 + 2 * o.d3) % 4 == 2
        assert (2 * o.d2) % 4 == 2
    # exhaust Z4^3: exactly those 8 satisfy both congruences
    valid = [
        t for t in itertools.product(range(4), repeat=3)
        if (t[0] + 2 * t[2]) % 4 == 2 and (2 * t[1]) % 4 == 2
    ]
    assert triples == valid


def test_list_offsets64_structure():
    offsets = list_offsets64()
    assert len(offsets) == 64
    type1 = [o for o in offsets if o.kind is OffsetKind.TYPE1]
    type2 = [o for o in offsets if o.kind is OffsetKind.TYPE2]
    assert len(type1) == len(type2) == 32
    assert {(o.h1, o.h3) for o in type1} == {(0, 0), (0, 2), (2, 1), (2, 3)}
    assert {(o.h1, o.h3) for o in type2} == {(0, 1), (0, 3), (2, 0), (2, 2)}
    for o in type2:
        assert o.h2 == (o.d.d2 + 2) % 4
    # (h1, h3) = (0, 0) violates h1+2*h3=2, so no such type 2 record exists
    assert not any((o.h1, o.h3) == (0, 0) for o in type2)


def test_offset_validation_messages():
    with pytest.raises(OffsetConstraintError, match=r"d1\+2\*d3=2"):
        Offset16(0, 0, 0).validate()
    with pytest.raises(OffsetConstraintError, match=r"2\*d2=2"):
        Offset16(0, 0, 0).validate()
    with pytest.raises(OffsetConstraintError, match=r"h1\+2\*h3"):
        classify_offset64(Offset16(0, 1, 1), 1, 0)


def test_classify_offset64_by_constraints():
    d = Offset16(0, 1, 1)
    t1 = classify_offset64(d, 0, 0)
    assert t1.kind is OffsetKind.TYPE1
    t2 = classify_offset64(d, 0, 1)
    assert t2.kind is OffsetKind.TYPE2
    assert t2.h2 == 3


def test_construction_params_requires_m_above_two():
    small = PathQuadratic(m=2, pi=(0, 1), linear=(0, 0), constant=0)
    with pytest.raises(ValueError):
        ConstructionParams(base=small, offset=Offset16(0, 1, 1))


def test_build_16qam_reference_positions():
    record = build(EX1_PARAMS)
    assert (record.sequence.re[6], record.sequence.im[6]) == (3, 3)
    assert (record.sequence.re[7], record.sequence.im[7]) == (3, -3)


def test_build_16qam_against_independent_symbol_map():
    # recompute every symbol with plain complex arithmetic from the component
    # sequences; no shared code with the lattice tables
    record = build(EX1_PARAMS)
    d_vals, e_vals = component_values(EX1_PARAMS)
    gamma = cmath.exp(1j * cmath.pi / 4)
    r1, r2 = 2 / 5**0.5, 1 / 5**0.5
    got = record.sequence.to_complex()
    for i in range(8):
        expected = gamma * (r1 * 1j ** int(d_vals[i]) + r2 * 1j ** int(e_vals[i]))
        assert abs(got[i] - expected) < 1e-12


def test_build_64qam_reference_positions():
    record = build(EX2_PARAMS)
    seq = record.sequence
    assert (seq.re[0], seq.im[0]) == (5, 7)
    assert (seq.re[1], seq.im[1]) == (-7, 5)
    assert (seq.re[6], seq.im[6]) == (7, 7)


def test_build_64qam_against_independent_symbol_map():
    record = build(EX2_PARAMS)
    d_vals, f_vals, g_vals = component_values(EX2_PARAMS)
    gamma = cmath.exp(1j * cmath.pi / 4)
    a1, a2, a3 = 4 / 21**0.5, 2 / 21**0.5, 1 / 21**0.5
    got = record.sequence.to_complex()
    for i in range(8):
        expected = gamma * (
            a1 * 1j ** int(d_vals[i]) + a2 * 1j ** int(f_vals[i]) + a3 * 1j ** int(g_vals[i])
        )
        assert abs(got[i] - expected) < 1e-12


def test_build_dispatch_and_offset_type_guards():
    # the offset type picks the constellation and the constraints it must meet
    assert build(EX1_PARAMS).sequence.scale is Scale.QAM16
    assert len(build(EX1_PARAMS).components) == 2
    assert build(EX2_PARAMS).sequence.scale is Scale.QAM64
    assert len(build(EX2_PARAMS).components) == 3
    bad_type1 = Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 2, 0, 0)
    with pytest.raises(OffsetConstraintError, match=r"h1\+2\*h3=0"):
        build(ConstructionParams(base=EX1_BASE, offset=bad_type1))


def test_build_rejects_invalid_offset():
    params = ConstructionParams(base=EX1_BASE, offset=Offset16(0, 0, 0))
    with pytest.raises(OffsetConstraintError):
        build(params)


def test_family_sizes_closed_form():
    assert family_size(3, Modulation.QAM16) == 6144
    assert family_size(4, Modulation.QAM16) == 98304
    assert family_size(3, Modulation.QAM64) == 49152
    with pytest.raises(ValueError):
        family_size(2, Modulation.QAM16)


def test_count_enumerated_matches_closed_form():
    assert count_enumerated(3, Modulation.QAM16) == 6144
    assert count_enumerated(3, Modulation.QAM64) == 49152


def test_enumeration_order_deterministic():
    first = next(iter(enumerate_family(3, Modulation.QAM16)))
    assert first.params.base.pi == (0, 1, 2)
    assert first.params.base.linear == (0, 0, 0)
    assert first.params.base.constant == 0
    assert (first.params.offset.d1, first.params.offset.d2, first.params.offset.d3) == (0, 1, 1)
    grid = parameter_grid(3, Modulation.QAM16)
    pi, linear, constant, off = next(iter(grid))
    assert (pi, linear, constant) == ((0, 1, 2), (0, 0, 0), 0)
    assert (off.d1, off.d2, off.d3) == (0, 1, 1)


def test_enumerate_family_offset_identity_sample():
    # psi(E) - psi(D) must equal the offset sequence pointwise
    for record in itertools.islice(enumerate_family(3, Modulation.QAM16), 0, 512, 37):
        params = record.params
        d_vals, e_vals = component_values(params)
        s = offset16_values(params.offset, params.m, params.base.pi)
        assert np.array_equal((e_vals.astype(int) - d_vals) % 4, s)


def test_enumerate_family_matches_direct_build_sample():
    records = itertools.islice(enumerate_family(3, Modulation.QAM64), 0, 2048, 171)
    for record in records:
        rebuilt = build(record.params)
        assert record.sequence == rebuilt.sequence
        assert record.primed_sequence == rebuilt.primed_sequence


def test_enumerate_family_walks_the_grid_and_matches_build():
    # every record, across chunk boundaries, carries the parameters of the
    # grid tuple at its position; a strided sample is rebuilt one by one
    records = enumerate_family(3, Modulation.QAM64)
    grid = parameter_grid(3, Modulation.QAM64)
    gamma = cmath.exp(1j * cmath.pi / 4)
    weights = (4 / 21**0.5, 2 / 21**0.5, 1 / 21**0.5)
    count = 0
    for index, (record, (pi, linear, constant, offset)) in enumerate(zip(records, grid)):
        base = record.params.base
        assert (base.pi, base.linear, base.constant, record.params.offset) == (
            pi, linear, constant, offset
        )
        if index % 389 == 0:
            rebuilt = build(record.params)
            assert record.sequence == rebuilt.sequence
            assert record.primed_sequence == rebuilt.primed_sequence
            # build is a one-row block too: also check against psi and plain
            # complex arithmetic, which share no code with the block kernel
            comps = component_values(record.params)
            for ours, theirs in zip(record.components, comps):
                assert np.array_equal(ours, theirs)
            expected = gamma * sum(a * 1j ** c.astype(int) for a, c in zip(weights, comps))
            assert np.max(np.abs(record.sequence.to_complex() - expected)) < 1e-12
        count += 1
    assert count == family_size(3, Modulation.QAM64)
    assert next(records, None) is None


def test_blocks_agree_with_enumerate():
    blocks = map_family_blocks(lambda b: b, 3, Modulation.QAM16, jobs=1)
    # pi-major, then offset list order, each block over every coefficient row
    assert [(b.pi, b.offset, len(b)) for b in blocks] == [
        (pi, off, 256) for pi in canonical_permutations(3) for off in list_offsets16()
    ]
    block = blocks[0]
    # row j of the first block is (pi0, coeff row j, first offset)
    target = [r for r in itertools.islice(enumerate_family(3, Modulation.QAM16), 0, 64, 8)]
    for record in target:
        row = 0
        coeffs = record.params.base.linear + (record.params.base.constant,)
        for v in coeffs:
            row = row * 4 + v
        assert np.array_equal(block.sym_re[row], record.sequence.re)
        assert np.array_equal(block.sym_im[row], record.sequence.im)
        assert np.array_equal(block.sym_re[row] * block.companion_sign, record.primed_sequence.re)


def test_block_shapes():
    block = build_block(3, (0, 1, 2), Offset16(0, 1, 1))
    assert block.coeffs.shape == (256, 4)
    assert block.sym_re.shape == (256, 8)
    assert len(block.components) == 2
    # x_{pi(2)} = x_2 is the least significant index bit
    assert block.companion_sign.tolist() == [1, -1, 1, -1, 1, -1, 1, -1]
    block64 = build_block(3, (0, 1, 2), list_offsets64()[0])
    assert len(block64.components) == 3


def test_enumerate_rejects_small_m():
    with pytest.raises(ValueError):
        enumerate_family(2, Modulation.QAM16)
    with pytest.raises(ValueError):
        parameter_grid(2, Modulation.QAM16)
    with pytest.raises(ValueError):
        map_family_blocks(len, 2, Modulation.QAM16, jobs=1)


def test_bounds_constants():
    assert star_bound(Offset16(0, 1, 1)) == BOUND_QAM16 == 2.4
    t1 = Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0)
    t2 = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 3, 1)
    assert star_bound(t1) == 3.62
    assert star_bound(t2) == 2.48
    assert float(EXACT_BOUND_TYPE1) == pytest.approx(76 / 21)
    assert float(EXACT_BOUND_TYPE2) == pytest.approx(52 / 21)


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_companion_sign_is_the_primed_definition(modulation):
    # the primed companion adds 2*x_{pi(m-1)} to every component; on every
    # block the sign vector must give exactly that, for the symbols and for
    # the polyphase sequence of each component
    m = 3
    lattice = qam16_lattice if modulation is Modulation.QAM16 else qam64_lattice

    def check(block):
        shift = np.array([2 * bits_of(i, m)[block.pi[m - 1]] for i in range(1 << m)])
        primed = [(c.astype(np.int64) + shift) % 4 for c in block.components]
        sign = block.companion_sign
        re, im = lattice(*primed)
        assert np.array_equal(block.sym_re * sign, re)
        assert np.array_equal(block.sym_im * sign, im)
        for c, p in zip(block.components, primed):
            c_re, c_im = polyphase_lattice(c)
            p_re, p_im = polyphase_lattice(p)
            assert np.array_equal(c_re * sign, p_re)
            assert np.array_equal(c_im * sign, p_im)
        return len(block)

    assert sum(map_family_blocks(check, m, modulation, jobs=1)) == family_size(m, modulation)


def test_primed_sequence_is_family_member():
    # the primed companion is itself a codeword: same offset, last path
    # coefficient shifted by 2
    record = build(EX1_PARAMS)
    base = EX1_PARAMS.base
    shifted = list(base.linear)
    shifted[base.m - 1] = (shifted[base.m - 1] + 2) % 4
    companion = ConstructionParams(
        base=PathQuadratic(m=base.m, pi=base.pi, linear=tuple(shifted), constant=base.constant),
        offset=EX1_PARAMS.offset,
    )
    assert build(companion).sequence == record.primed_sequence
