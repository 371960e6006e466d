import cmath
import functools
import itertools
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from qamseq.constructions import (
    CEILINGS,
    CHUNK_SYMBOLS,
    FULL_ORBIT_SIZE,
    OFFSET_ORBIT_SIZE,
    ORBIT_SIZE,
    SHIFT_ORBIT_SIZE,
    ConstructionParams,
    Modulation,
    Offset16,
    Offset64,
    OffsetConstraintError,
    OffsetKind,
    build,
    build_block,
    classify_offset64,
    count_enumerated,
    enumerate_family,
    family_cells,
    family_size,
    iter_family_chunks,
    list_offsets16,
    list_offsets64,
    offset_forms,
    offset_kind,
    offset_symmetries,
    orbit_offsets,
    orbit_runs,
    quarter_shift,
    row_slices,
    star_bound,
)
import oracles
from oracles import (
    bits_of,
    block_records,
    build_record,
    coefficient_matrix,
    distinct_rows,
    family_rows,
    family_blocks,
    full_family_blocks,
    offset16_eval,
    offset_eval,
    offset_values,
    orbit_rows,
    parameter_grid,
    run_cells,
    traced_peak,
)
from qamseq import constructions
from qamseq.algebra import ZETA, canonical_permutations, coefficient_rows
from qamseq.analysis import golay_defect, pep_batch, polyphase_lattice, star_sum
from qamseq.constellation import Scale, qam_lattice
from qamseq.gbf import PathQuadratic
from qamseq.verification import ENVELOPE_MODULATION

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


@pytest.mark.parametrize("m", [3, 4, 5])
def test_offset_values_are_the_offset_definitions(m):
    # every offset of both families at every canonical pi, against the
    # pointwise definition of each kind's component offsets
    offsets = list_offsets16() + list_offsets64()
    points = [bits_of(i, m) for i in range(1 << m)]
    for pi in canonical_permutations(m):
        for o in offsets:
            got = offset_values(o, m, pi)
            assert all(v.dtype == np.uint8 for v in got)
            want = np.array([offset_eval(o, x, pi) for x in points]).T
            assert np.array_equal(np.stack(got), want)


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
    z = build(EX1_PARAMS).symbols[0, 0]
    assert (z[6], z[7]) == (3 + 3j, 3 - 3j)


def components_of(params):
    """The components ((D, E) or (D, F, G)) of the one-row block of params."""
    return build(params).offset_components(0)[:, 0]


def assert_pointwise_components(params, components):
    """components equal the pointwise evaluate/offset_eval oracle of params."""
    expected = oracles.components(params)
    assert len(components) == len(expected)
    for ours, theirs in zip(components, expected):
        assert np.array_equal(ours, theirs)


def test_build_16qam_against_independent_symbol_map():
    # recompute every symbol with plain complex arithmetic from the pointwise
    # component sequences; no shared code with the lattice tables
    assert_pointwise_components(EX1_PARAMS, components_of(EX1_PARAMS))
    d_vals, e_vals = oracles.components(EX1_PARAMS)
    gamma = cmath.exp(1j * cmath.pi / 4)
    r1, r2 = 2 / 5**0.5, 1 / 5**0.5
    got = build(EX1_PARAMS).complex_symbols()[0, 0]
    for i in range(8):
        expected = gamma * (r1 * 1j ** int(d_vals[i]) + r2 * 1j ** int(e_vals[i]))
        assert abs(got[i] - expected) < 1e-12


def test_build_64qam_reference_positions():
    z = build(EX2_PARAMS).symbols[0, 0]
    assert (z[0], z[1], z[6]) == (5 + 7j, -7 + 5j, 7 + 7j)


def test_build_64qam_against_independent_symbol_map():
    assert_pointwise_components(EX2_PARAMS, components_of(EX2_PARAMS))
    d_vals, f_vals, g_vals = oracles.components(EX2_PARAMS)
    gamma = cmath.exp(1j * cmath.pi / 4)
    a1, a2, a3 = 4 / 21**0.5, 2 / 21**0.5, 1 / 21**0.5
    got = build(EX2_PARAMS).complex_symbols()[0, 0]
    for i in range(8):
        expected = gamma * (
            a1 * 1j ** int(d_vals[i]) + a2 * 1j ** int(f_vals[i]) + a3 * 1j ** int(g_vals[i])
        )
        assert abs(got[i] - expected) < 1e-12


def test_build_dispatch_and_offset_type_guards():
    # the offset type picks the constellation and the constraints it must
    # meet; build gives the one-row block of the parameters
    for params, scale, components in ((EX1_PARAMS, Scale.QAM16, 2), (EX2_PARAMS, Scale.QAM64, 3)):
        block = build(params)
        assert block.scale is scale
        assert block.offsets == (params.offset,) and block.pi == params.base.pi
        assert block.coeffs.tolist() == [[*params.base.linear, params.base.constant]]
        assert block.symbols.shape == (1, 1, 8)
        assert len(components_of(params)) == components
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


def test_count_enumerated_counts_the_records_enumerate_yields():
    # the count reads the cells that enumerate walks, not a walk of its own
    yielded = sum(1 for _ in enumerate_family(3, Modulation.QAM16))
    assert count_enumerated(3, Modulation.QAM16) == yielded == 6144


def test_enumeration_order_deterministic():
    first = next(iter(enumerate_family(3, Modulation.QAM16)))
    assert first.base.pi == (0, 1, 2)
    assert first.base.linear == (0, 0, 0)
    assert first.base.constant == 0
    assert (first.offset.d1, first.offset.d2, first.offset.d3) == (0, 1, 1)
    grid = parameter_grid(3, Modulation.QAM16)
    pi, linear, constant, off = next(iter(grid))
    assert (pi, linear, constant) == ((0, 1, 2), (0, 0, 0), 0)
    assert (off.d1, off.d2, off.d3) == (0, 1, 1)


def test_enumerate_family_offset_identity_sample():
    # E - D must equal the offset sequence pointwise, and D the base function
    for params in itertools.islice(enumerate_family(3, Modulation.QAM16), 0, 512, 37):
        d_vals, e_vals = components_of(params)
        (s,) = offset_values(params.offset, params.m, params.base.pi)
        assert np.array_equal((e_vals.astype(int) - d_vals) % 4, s)
        assert_pointwise_components(params, (d_vals, e_vals))


def test_chunk_records_match_direct_build_sample():
    chunks = (r for block in iter_family_chunks(3, Modulation.QAM64) for r in block_records(block))
    for record in itertools.islice(chunks, 0, 2048, 171):
        rebuilt = build_record(record.params)
        assert record.sequence == rebuilt.sequence
        assert record.primed_sequence == rebuilt.primed_sequence


def test_enumerate_family_walks_the_grid_and_matches_build():
    # every record of the chunks, across chunk boundaries, carries the
    # parameters of the grid tuple at its position, as does every parameter
    # set enumerate_family yields; a strided sample is rebuilt one by one
    records = (r for block in iter_family_chunks(3, Modulation.QAM64) for r in block_records(block))
    params = enumerate_family(3, Modulation.QAM64)
    grid = parameter_grid(3, Modulation.QAM64)
    gamma = cmath.exp(1j * cmath.pi / 4)
    weights = (4 / 21**0.5, 2 / 21**0.5, 1 / 21**0.5)
    count = 0
    for index, (record, yielded, (pi, linear, constant, offset)) in enumerate(
            zip(records, params, grid)):
        base = record.params.base
        assert (base.pi, base.linear, base.constant, record.params.offset) == (
            pi, linear, constant, offset
        )
        assert yielded == record.params
        if index % 389 == 0:
            rebuilt = build_record(record.params)
            assert record.sequence == rebuilt.sequence
            assert record.primed_sequence == rebuilt.primed_sequence
            # build is a one-row block too: also check against the pointwise
            # components and plain complex arithmetic, which share no code
            # with the block kernel
            assert_pointwise_components(record.params, record.components)
            comps = oracles.components(record.params)
            expected = gamma * sum(a * 1j ** c.astype(int) for a, c in zip(weights, comps))
            assert np.max(np.abs(record.sequence.to_complex() - expected)) < 1e-12
        count += 1
    assert count == family_size(3, Modulation.QAM64)
    assert next(records, None) is None and next(params, None) is None


def test_blocks_agree_with_enumerate():
    blocks = family_blocks(3, Modulation.QAM16)
    # one block per pi, every offset in list order along its first axis,
    # over the 64 constant-0 rows
    assert [(b.pi, b.offsets, len(b)) for b in blocks] == [
        (pi, tuple(list_offsets16()), 8 * 64) for pi in canonical_permutations(3)
    ]
    assert np.array_equal(blocks[0].coeffs, coefficient_matrix(3)[::4])
    block = blocks[0]
    # row j of offset o of the first block is (pi0, linear part j, constant
    # 0, offset o): record 32 * j + o, as 8 offsets follow each coefficient
    # row and the constant varies fastest
    chunk = next(iter_family_chunks(3, Modulation.QAM16))
    for index, record in enumerate(itertools.islice(block_records(chunk), 2048)):
        row, o = divmod(index, 32)
        if index % 32 >= 8:
            continue
        assert record.params.base.constant == 0
        assert record.params.offset == block.offsets[o]
        seq, primed_seq = record.sequence, record.primed_sequence
        assert np.array_equal(block.symbols[o, row], seq.re + 1j * seq.im)
        assert np.array_equal(
            block.symbols[o, row] * block.companion_sign, primed_seq.re + 1j * primed_seq.im
        )
        assert all(np.array_equal(a, b) for a, b in zip(
            block.offset_components(o)[:, row], record.components, strict=True))
    # the oracle's blocks over every coefficient row, all four constants,
    # hold every enumerated record in parameter_grid order
    records = (r for block in iter_family_chunks(3, Modulation.QAM16) for r in block_records(block))
    for full in full_family_blocks(lambda b: b, 3, Modulation.QAM16):
        for record in block_records(full):
            expected = next(records)
            assert record.params == expected.params
            assert record.sequence == expected.sequence
            assert record.primed_sequence == expected.primed_sequence
    assert next(records, None) is None


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_records_hold_the_block_symbols_as_int64_pairs(modulation):
    # the oracle's record form: block_records makes a block's complex lattice
    # points, and its companion's, int64 (re, im) pairs, exactly
    block = next(iter_family_chunks(3, modulation))
    sign = block.companion_sign
    offsets = len(block.offsets)
    records = list(block_records(block))
    assert len(records) == len(block)
    for j, record in enumerate(records):
        row, o = divmod(j, offsets)
        z = block.symbols[o, row]
        for seq, expected in ((record.sequence, z), (record.primed_sequence, z * sign)):
            assert seq.re.dtype == seq.im.dtype == np.int64
            assert np.array_equal(seq.re, expected.real) and np.array_equal(seq.im, expected.imag)
    # row views into one int64 array per block, not one conversion per record
    first, second = records[0].sequence.re, records[offsets + 1].sequence.re
    assert first.base is not None and first.base is second.base


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("modulation", list(Modulation), ids=lambda mod: mod.value)
def test_block_symbols_are_the_synthesis_of_their_components(m, modulation):
    # a block stores D and its row-free parts K and derives its symbols as
    # zeta^D * K: on every cell of both family walks they are, bit for bit,
    # qam_lattice over (D, D + s_j..) from base_rows and form_values, whose
    # row-free part the oracle's row_free reads back as K.  Negative
    # control: the synthesis forged on one row is no row-free part's coset
    walks = ((constructions._offset_list(modulation), family_rows),
             (orbit_offsets(modulation), run_cells))
    for offsets, cells_of in walks:
        for pi, rows in cells_of(m, (1 << m) * len(offsets)):
            block = build_block(m, pi, offsets, rows)
            symbols, units = oracles.synthesized_symbols(block), polyphase_lattice(block.base)
            assert block.symbols.tobytes() == symbols.tobytes()
            scaled = symbols / np.sqrt(block.scale.value)
            assert block.complex_symbols().tobytes() == scaled.tobytes()
            assert np.array_equal(oracles.row_free(symbols, units), block.parts)
    symbols[-1, -1] *= 1j
    with pytest.raises(ValueError, match="not zeta\\^D times one row-free sequence"):
        oracles.row_free(symbols, units)


def test_block_shapes():
    block = build_block(3, (0, 1, 2), list_offsets16(), orbit_rows(3))
    assert np.array_equal(block.coeffs, orbit_rows(3))
    assert block.coeffs.shape == (64, 4)
    assert block.symbols.shape == (8, 64, 8) and block.symbols.dtype == complex
    assert len(block) == 8 * 64
    # D, then the 8 quadratic forms d of the offsets, each once
    assert block.components.shape == (1 + 8, 64, 8)
    assert block.component_index.tolist() == [[0, 1 + o] for o in range(8)]
    assert block.offset_components(3).shape == (2, 64, 8)
    # x_{pi(2)} = x_2 is the least significant index bit
    assert block.companion_sign.tolist() == [1, -1, 1, -1, 1, -1, 1, -1]
    offsets = list_offsets64()
    block64 = build_block(3, (0, 1, 2), offsets, orbit_rows(3))
    # D, then 12 distinct forms: 4 linear type 1 s1, 8 quadratic d = type 2 s1
    # = type 2 s2
    assert block64.components.shape == (1 + 12, 64, 8)
    assert block64.component_index.shape == (64, 3)
    assert block64.kinds == ("type1",) * 32 + ("type2",) * 32
    for o, off in enumerate(offsets):
        # each offset reads back the form of each of its components
        for k, values in enumerate(offset_values(off, 3, (0, 1, 2)), start=1):
            form = (block64.offset_components(o)[k] - block64.components[0]) % 4
            assert np.array_equal(form, np.broadcast_to(values, form.shape))
    forms = {f for off in offsets for f in offset_forms(off)}
    assert len(forms) == 12 and sum(f[0] == 0 for f in forms) == 4


def test_enumerate_rejects_small_m():
    with pytest.raises(ValueError):
        enumerate_family(2, Modulation.QAM16)
    with pytest.raises(ValueError):
        count_enumerated(2, Modulation.QAM16)
    with pytest.raises(ValueError):
        list(family_cells(2, 8))
    with pytest.raises(ValueError):
        list(orbit_runs(2, 8))


def test_bounds_constants():
    assert CEILINGS == {
        "qam16": (2.4, Fraction(12, 5)),
        "type1": (3.62, Fraction(76, 21)),
        "type2": (2.48, Fraction(52, 21)),
    }
    # each published ceiling is its exact rational rounded up to hundredths
    for published, exact in CEILINGS.values():
        assert Fraction(str(published)) == Fraction(math.ceil(exact * 100), 100)
    t1 = Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0)
    t2 = Offset64(OffsetKind.TYPE2, Offset16(0, 1, 1), 0, 3, 1)
    assert [offset_kind(o) for o in (Offset16(0, 1, 1), t1, t2)] == ["qam16", "type1", "type2"]
    assert star_bound(Offset16(0, 1, 1)) == 2.4
    assert star_bound(t1) == 3.62
    assert star_bound(t2) == 2.48


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_companion_sign_is_the_primed_definition(modulation):
    # the primed companion adds 2*x_{pi(m-1)} to every component; on every
    # block the sign vector must give exactly that, for the symbols and for
    # the polyphase sequence of each component
    m = 3

    def check(block):
        shift = np.array([2 * bits_of(i, m)[block.pi[m - 1]] for i in range(1 << m)])
        sign = block.companion_sign
        for o in range(len(block.offsets)):
            comps = block.offset_components(o)
            primed = [(c.astype(np.int64) + shift) % 4 for c in comps]
            assert np.array_equal(block.symbols[o] * sign, qam_lattice(*primed)[0])
            for c, p in zip(comps, primed):
                assert np.array_equal(polyphase_lattice(c) * sign, polyphase_lattice(p))
        return len(block)

    # every record, all four constants of each orbit: enumerate and build
    # apply companion_sign to them all, not only to the orbit rows
    assert sum(full_family_blocks(check, m, modulation)) == family_size(m, modulation)
    rows = sum(map(check, family_blocks(m, modulation)))
    assert ORBIT_SIZE * rows == family_size(m, modulation)


def test_primed_sequence_is_family_member():
    # the primed companion is itself a codeword: same offset, last path
    # coefficient shifted by 2
    block = build(EX1_PARAMS)
    base = EX1_PARAMS.base
    shifted = list(base.linear)
    shifted[base.m - 1] = (shifted[base.m - 1] + 2) % 4
    companion = ConstructionParams(
        base=PathQuadratic(m=base.m, pi=base.pi, linear=tuple(shifted), constant=base.constant),
        offset=EX1_PARAMS.offset,
    )
    assert np.array_equal(build(companion).symbols, block.symbols * block.companion_sign)


@pytest.mark.parametrize("m, modulation", [
    (3, Modulation.QAM16), (4, Modulation.QAM16), (3, Modulation.QAM64),
])
def test_every_family_record_is_a_distinct_sequence(m, modulation):
    # the injectivity that the audit's distinct count rests on, seen by
    # hashing every symbol row of the family
    assert distinct_rows(m, modulation) == (family_size(m, modulation),) * 2


def test_distinct_rows_sees_a_repeated_offset(monkeypatch):
    # negative control: a family walk that lists one offset twice synthesises
    # the same rows twice, and the hash count must fall below the total
    offsets = list_offsets16()
    monkeypatch.setattr(constructions, "_offset_list", lambda modulation: (*offsets, offsets[0]))
    distinct, total = distinct_rows(3, Modulation.QAM16)
    assert total == 9 * 3 * 256
    assert distinct == family_size(3, Modulation.QAM16) < total


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_family_chunks_stay_within_the_symbol_budget(m, modulation):
    n, offsets = 1 << m, constructions._offset_list(modulation)
    per_row = ORBIT_SIZE * n * len(offsets)
    (pi, span), block = next(family_cells(m, per_row)), next(iter_family_chunks(m, modulation))
    assert block.offsets == offsets
    # the first cell's orbit rows, each followed by its constants 1-3: the
    # first rows of the counter, in order
    coeffs = coefficient_matrix(m)[slice(*span)]
    assert block.pi == pi and np.array_equal(block.coeffs, coeffs)
    assert block.symbols.shape == (len(offsets), len(coeffs), n)
    assert len(coeffs) * n * len(offsets) <= CHUNK_SYMBOLS
    # as many orbits as fit, up to the 4^m of one pi
    assert span == (0, ORBIT_SIZE * min(CHUNK_SYMBOLS // per_row, 4**m))


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
@pytest.mark.parametrize("m", [3, 4])
def test_family_blocks_hold_every_offset_within_the_symbol_budget(m, modulation):
    # the blocks of family_cells at the symbols of every offset: every
    # offset of an orbit-row cell, as many rows as fit in CHUNK_SYMBOLS, and
    # every orbit row of each pi once
    n, offsets = 1 << m, constructions._offset_list(modulation)
    blocks = [(b.pi, b.offsets, b.coeffs) for b in family_blocks(m, modulation)]
    rows = min(CHUNK_SYMBOLS // (n * len(offsets)), 4**m)
    assert [len(coeffs) for _, _, coeffs in blocks] == [rows] * len(blocks)
    assert all(block_offsets == offsets for _, block_offsets, _ in blocks)
    assert len(offsets) * rows * n <= CHUNK_SYMBOLS
    for pi in canonical_permutations(m):
        per_pi = np.concatenate([coeffs for p, _, coeffs in blocks if p == pi])
        assert np.array_equal(per_pi, orbit_rows(m))


def test_family_cells_shape(monkeypatch):
    # the cells are the counter spans of orbit slices of each pi, every
    # constant of an orbit in one span, and nothing is built for them
    monkeypatch.setattr(constructions, "build_block", None)
    monkeypatch.setattr(constructions, "coefficient_rows", None)
    for m, per_row, slices in ((6, 64, [512] * 8), (5, 32, [1024]), (3, 1 << 20, [1] * 64)):
        cells = list(family_cells(m, per_row))
        pis = list(canonical_permutations(m))
        assert [pi for pi, _ in cells] == [pi for pi in pis for _ in slices]
        assert [stop - start for _, (start, stop) in cells] == [ORBIT_SIZE * s for s in slices] * len(pis)
        # each pi's spans tile the counter, in order
        bounds = [bound for _, span in cells[: len(slices)] for bound in span]
        assert bounds[0] == 0 and bounds[-1] == 4 ** (m + 1)
        assert bounds[1:-1:2] == bounds[2::2]


def test_orbit_rows_are_the_constant_zero_rows():
    # every ORBIT_SIZE-th row of the counter, as the walks take them
    for m in (3, 4, 5):
        full, rows = coefficient_matrix(m), coefficient_rows(m, 0, 4 ** (m + 1), ORBIT_SIZE)
        assert ORBIT_SIZE * len(rows) == len(full) == 4 ** (m + 1)
        assert not rows[:, m].any()
        # the linear parts in counter order, each once
        assert np.array_equal(rows[:, :m], full[full[:, m] == 0][:, :m])


def orbit_scores(block):
    """Per row of each offset: the codeword star and PEP, then per component
    the star sum and Golay defect of the component with its companion, each
    as an (arrays, rows) array, the sums from the literal correlation loop."""
    n, sign = 1 << block.m, block.companion_sign
    z = block.symbols.reshape(-1, n)
    scores = [
        star_sum(oracles.autocorrelation_sums(z, z * sign)) / block.scale.value,
        pep_batch(z / np.sqrt(block.scale.value), 16),
    ]
    c = polyphase_lattice(block.components).reshape(-1, n)
    sums = oracles.autocorrelation_sums(c, c * sign)
    scores += [star_sum(sums), golay_defect(sums)]
    rows = len(block.coeffs)
    return [v.reshape(-1, rows) for v in scores]


def orbit_invariant(block):
    """Whether every score of every row of a full block (constant fastest)
    equals, bit for bit, that of the row's constant-0 twin."""
    return all(
        np.array_equal(v, np.repeat(v[:, ::ORBIT_SIZE], ORBIT_SIZE, axis=1))
        for v in orbit_scores(block)
    )


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_scores_are_the_same_on_every_constant_of_an_orbit(modulation):
    # the symmetry that lets the family walk score one row per orbit: a
    # constant c multiplies every component's zeta^(.) by zeta^c, so the
    # codeword is zeta^c times its constant-0 twin, exactly on the lattice
    assert all(full_family_blocks(orbit_invariant, 3, modulation))


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_orbit_invariance_fails_when_the_constant_reaches_one_component_only(modulation):
    # negative control: c added to the base component D alone makes the
    # codeword no longer a unit multiple of its twin, and the test must see it
    m, coeffs = 3, coefficient_matrix(3)
    block = build_block(m, (0, 1, 2), constructions._offset_list(modulation), coeffs)
    assert orbit_invariant(block)
    constant = coeffs[:, m:].astype(np.int64)
    comps = np.concatenate([block.components[:1], (block.components[1:] - constant) % 4])
    symbols = qam_lattice(*np.moveaxis(comps[block.component_index], 1, 0))[0]
    # a block derives its symbols from D and its parts, so the broken one is
    # a stand-in with the fields orbit_scores reads
    broken = types.SimpleNamespace(m=m, coeffs=coeffs, scale=block.scale, components=comps,
                                   companion_sign=block.companion_sign, symbols=symbols)
    assert not orbit_invariant(broken)


def images_are_family_records(m, modulation, images=oracles.image_rows):
    """Whether, on every record, the record of the conjugate offset and the
    conjugated row is zeta * conj(H), and that of the reversed offset and the
    reversed row is H[::-1], exactly: offsets by offset_symmetries, rows by
    images (each row's pair of image rows)."""
    sigma, rho = offset_symmetries(modulation)
    coeffs = coefficient_matrix(m)
    conj, rev = (rows @ 4 ** np.arange(m, -1, -1) for rows in images(coeffs, m))

    def check(block):
        s = block.symbols  # (offsets, every row in counter order, n)
        return (np.array_equal(s[list(sigma)][:, conj], 1j * np.conj(s))
                and np.array_equal(s[list(rho)][:, rev], s[:, :, ::-1]))

    return all(full_family_blocks(check, m, modulation))


@pytest.mark.parametrize("m, modulation", [
    (3, Modulation.QAM16), (4, Modulation.QAM16), (3, Modulation.QAM64),
])
def test_conjugation_and_reversal_map_every_record_onto_a_family_record(m, modulation):
    # the action the family walks rest on: conj(H(pi, c_l, c, o)) =
    # zeta^-1 * H(pi, -c_l, -c, sigma(o)) and H(pi, c_l, c, o)[::-1] =
    # H(pi, c_l', c + sum c_l + 2(m-1), rho(o)), on every record
    assert images_are_family_records(m, modulation)


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_a_reversal_without_its_path_end_term_misses(modulation):
    # negative control: the reversal of the path quadratic adds
    # 2*x_{pi(0)} + 2*x_{pi(m-1)}; a row map without it lands elsewhere
    images = functools.partial(oracles.image_rows, path_ends=False)
    assert not images_are_family_records(3, modulation, images)


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_every_offset_orbit_has_four_offsets(modulation):
    sigma, rho = offset_symmetries(modulation)
    offsets = constructions._offset_list(modulation)
    orbits = {frozenset({k, sigma[k], rho[k], sigma[rho[k]]}) for k in range(len(offsets))}
    assert {len(orbit) for orbit in orbits} == {OFFSET_ORBIT_SIZE} == {4}
    assert sum(len(orbit) for orbit in orbits) == len(offsets)
    # each kept offset is the least of its orbit, in list order
    kept = orbit_offsets(modulation)
    assert [offsets.index(o) for o in kept] == sorted(min(orbit) for orbit in orbits)
    assert len(kept) == {Modulation.QAM16: 2, Modulation.QAM64: 16}[modulation]
    # conjugation and reversal keep the kind: each kind keeps a quarter of its offsets
    assert all(offset_kind(offsets[sigma[k]]) == offset_kind(offsets[rho[k]]) == offset_kind(o)
               for k, o in enumerate(offsets))
    # the orbit walk's (offset, row) pairs, 64 records each, are the family
    for m in (3, 4):
        rows = sum(len(rows) for _, rows in run_cells(m, (1 << m) * len(kept)))
        assert FULL_ORBIT_SIZE * len(kept) * rows == family_size(m, modulation)


@pytest.mark.parametrize("broken", [
    lambda q, c1, c2, c3: (q, -c1 % 4, -c2 % 4, -c3 % 4),  # conjugation again: orbits of 2
    lambda q, c1, c2, c3: (q, (q - c1) % 4, c2, c3),  # c1 alone: off the congruences
])
def test_offset_symmetries_refuse_a_map_that_is_not_the_free_action(monkeypatch, broken):
    # negative control: a reversal map that equals conjugation leaves orbits
    # of two offsets, and one that moves c1 alone sends the d form off
    # d1 + 2*d3 = 2, outside the list; either must stop the derivation
    monkeypatch.setattr(constructions, "FORM_SYMMETRIES", (constructions.FORM_SYMMETRIES[0], broken))
    constructions.offset_symmetries.cache_clear()
    try:
        for modulation in Modulation:
            with pytest.raises(AssertionError, match="no free conjugation x reversal orbit"):
                offset_symmetries(modulation)
    finally:
        constructions.offset_symmetries.cache_clear()


def shifted_blocks(m, modulation, shift=quarter_shift):
    """(block, shifted) per pi: every offset over every row of
    coefficient_matrix(m), and over each row plus shift(m, pi)."""
    coeffs, offsets = coefficient_matrix(m), constructions._offset_list(modulation)
    for pi in canonical_permutations(m):
        yield (build_block(m, pi, offsets, coeffs),
               build_block(m, pi, offsets, (coeffs + shift(m, pi)) % 4))


def shifts_every_record(m, modulation, shift=quarter_shift):
    """Whether each record of shifted_blocks is its twin times i^i, exactly,
    primed companion included."""
    turn = ZETA[np.arange(1 << m) % 4]
    return all(
        np.array_equal(shifted.symbols, block.symbols * turn)
        and np.array_equal(shifted.symbols * shifted.companion_sign,
                           block.symbols * block.companion_sign * turn)
        for block, shifted in shifted_blocks(m, modulation, shift))


@pytest.mark.parametrize("m, modulation", [
    (3, Modulation.QAM16), (4, Modulation.QAM16), (3, Modulation.QAM64),
])
def test_the_quarter_shift_multiplies_every_record_by_i_to_the_i(m, modulation):
    # 1 on the coefficient of x_{m-1} and 2 on that of x_{m-2} add i mod 4
    # to D and to every component: S(t) becomes S(t + 1/4) on every record
    for pi in canonical_permutations(m):
        shift = quarter_shift(m, pi)
        assert shift[pi.index(m - 1)] == 1 and shift[pi.index(m - 2)] == 2
        assert shift.sum() == 3
    assert shifts_every_record(m, modulation)


def msb_shift(m, pi):
    """The quarter shift's coefficients on the two most significant variables."""
    shift = np.zeros(m + 1, dtype=np.uint8)
    shift[pi.index(0)], shift[pi.index(1)] = 1, 2
    return shift


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_the_same_bump_on_the_most_significant_variables_is_no_shift(monkeypatch, modulation):
    # negative control: x_0 + 2*x_1 is made of the two most significant
    # bits of i, not i mod 4; the records it reaches are not i^i times their
    # twins, and the library's self-check must refuse it before any walk
    # uses it
    assert not shifts_every_record(3, modulation, msb_shift)
    monkeypatch.setattr(constructions, "QUARTER_SHIFT", ((0, 1), (1, 2)))
    for pi in canonical_permutations(3):
        with pytest.raises(AssertionError, match="is not a free quarter shift"):
            quarter_shift(3, pi)
    with pytest.raises(AssertionError, match="is not a free quarter shift"):
        list(orbit_runs(3, 8 * len(orbit_offsets(modulation))))


def test_quarter_shift_holds_no_memory_once_it_returns():
    # a walk calls quarter_shift once per pi, so nothing it computes may
    # stay behind: a row kept per (m, pi) would grow with the m! / 2 pis of
    # each rung, about 0.5 MiB over the 2 520 pis of m = 7
    pis = list(canonical_permutations(7))
    quarter_shift(7, pis[0])  # the imports and first-call work of its callees
    tracemalloc.start()
    try:
        for pi in pis:
            quarter_shift(7, pi)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 << 10


def record_codes(coeffs, m, count):
    """(rows, 1) record codes, row index in counter order times count: add
    an offset index to name the record of a (row, offset) pair."""
    return (coeffs.astype(np.int64) @ 4 ** np.arange(m, -1, -1))[:, None] * count


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_every_orbit_has_64_records_and_the_walk_meets_each_once(modulation):
    # the action of zeta^c, the quarter shift, conjugation and reversal on
    # the records of each pi at m=3, from their row and offset maps: the 64
    # images t * kappa of each orbit-walk record are distinct, together they
    # are every record once, and each of the four maps keeps every record
    # among the images of its own walk record, so those images are its orbit
    m, offsets = 3, constructions._offset_list(modulation)
    sigma, rho = offset_symmetries(modulation)
    count, coeffs = len(offsets), coefficient_matrix(m)
    records = count * len(coeffs)
    conj, rev = (record_codes(rows, m, count) for rows in oracles.image_rows(coeffs, m))
    kept = np.array([offsets.index(o) for o in orbit_offsets(modulation)])
    for pi in canonical_permutations(m):
        constant = coeffs.copy()
        constant[:, m] = (constant[:, m] + 1) % 4
        shifted = (coeffs + quarter_shift(m, pi)) % 4
        # each map as the record code of the image of every record, by code
        zeta, shift, conjugate, reverse = (codes.ravel() for codes in (
            record_codes(constant, m, count) + np.arange(count),
            record_codes(shifted, m, count) + np.arange(count),
            conj + np.array(sigma),
            rev + np.array(rho),
        ))
        reps = np.concatenate([rows for p, rows in run_cells(m, 8 * len(kept)) if p == pi])
        walk = (record_codes(reps, m, count) + kept).ravel()
        images = []
        for k in (walk, conjugate[walk], reverse[walk], conjugate[reverse[walk]]):
            for _ in range(SHIFT_ORBIT_SIZE):
                for _ in range(ORBIT_SIZE):
                    images.append(k)
                    k = zeta[k]
                k = shift[k]
        images = np.stack(images)  # (64, walk records)
        assert images.shape == (FULL_ORBIT_SIZE, records // FULL_ORBIT_SIZE)
        assert np.array_equal(np.sort(images.ravel()), np.arange(records))
        label = np.empty(records, dtype=np.int64)
        label[images] = np.arange(len(walk))
        for action in (zeta, shift, conjugate, reverse):
            assert np.array_equal(label[action], label)


def slices_hold(slices, count, per_row):
    """Whether slices cover range(count) once and in order, each of at least
    one row and of at most CHUNK_SYMBOLS // per_row rows, or of one."""
    spans = [range(count)[part] for part in slices]
    budget = max(1, CHUNK_SYMBOLS // per_row)
    return ([i for span in spans for i in span] == list(range(count))
            and all(1 <= len(span) <= budget for span in spans))


def test_row_slices_cover_every_row_once_within_the_budget():
    for count in (0, 1, 7, 127, 128, 129, 1000):
        for per_row in (1, 3, 256, 257, CHUNK_SYMBOLS, CHUNK_SYMBOLS + 1, 1 << 20):
            assert slices_hold(row_slices(count, per_row), count, per_row)
    # the whole budget, then the rest; one row a slice beyond CHUNK_SYMBOLS
    assert [(p.start, p.stop) for p in row_slices(300, 256)] == [(0, 128), (128, 256), (256, 300)]
    assert [(p.start, p.stop) for p in row_slices(3, CHUNK_SYMBOLS + 1)] == [(0, 1), (1, 2), (2, 3)]

    # negative controls: a step one row longer than the budget, and slices
    # that each reach one row into the next
    def stepped(count, per_row, extra, reach):
        step = max(1, CHUNK_SYMBOLS // per_row) + extra
        return (slice(start, start + step + reach) for start in range(0, count, step))

    assert slices_hold(stepped(300, 256, 0, 0), 300, 256)
    assert not slices_hold(stepped(300, 256, 1, 0), 300, 256)
    assert not slices_hold(stepped(300, 256, -1, 1), 300, 256)


def orbit_runs_hold(runs, m, per_row):
    """Whether runs of the orbit walk at m meet every orbit row with
    c_{pi^-1(m-1)} = 0 of each pi once, pi by pi in order, each run of at
    most CHUNK_SYMBOLS // per_row rows unless it is one cell."""
    cells = [cell for run in runs for cell in run]
    pis = list(canonical_permutations(m))
    order = [pi for pi, _ in cells]
    if order != sorted(order) or set(order) != set(pis):
        return False
    for pi in pis:
        per_pi = np.concatenate([rows for p, rows in cells if p == pi])
        expected = orbit_rows(m)[orbit_rows(m)[:, pi.index(m - 1)] == 0]
        if len(per_pi) != len(expected) or not np.array_equal(np.unique(per_pi, axis=0), expected):
            return False
    return all(len(run) == 1 or sum(len(rows) for _, rows in run) <= CHUNK_SYMBOLS // per_row
               for run in runs)


def test_orbit_runs_meet_every_orbit_row_once_within_the_symbol_budget(monkeypatch):
    # the runs of both orbit walks, with nothing built: verify's per_row (the
    # symbols of the 2 + 16 offsets) at m = 3, 4 and 5, ccdf's for each
    # family (2 or 16 offsets) at m = 3 and 4, and one row per run beyond
    # CHUNK_SYMBOLS.  The pis whose rows fit one budget share a run (all 3 at
    # m = 3, two 64-QAM pis at m = 4); a pi that does not is split into the
    # row_slices of its 4^(m-1) rows, one run each (56, 56, 56, 56 and 32 at
    # m = 5)
    monkeypatch.setattr(constructions, "build_block", None)
    runs_of = {(3, 144): [48], (4, 288): [64] * 12, (5, 576): [56] * 4 + [32], (3, 16): [48],
               (4, 32): [768], (3, 128): [48], (4, 256): [128] * 6,
               (4, CHUNK_SYMBOLS + 1): [1] * 768}
    for (m, per_row), expected in runs_of.items():
        runs = list(orbit_runs(m, per_row))
        assert orbit_runs_hold(runs, m, per_row)
        sizes = [sum(len(rows) for _, rows in run) for run in runs]
        assert sizes == expected * (len(sizes) // len(expected))
    assert len(list(orbit_runs(5, 576))) == 60 * 5
    # negative controls: runs of twice the budget hold two pis of verify at
    # m = 4, and a walk that loses a cell misses its rows
    assert not orbit_runs_hold(list(orbit_runs(4, 144)), 4, 288)
    (run,) = orbit_runs(3, 144)
    assert not orbit_runs_hold([run[:-1]], 3, 144)
    for m in (1, 2):
        with pytest.raises(ValueError, match="m > 2"):
            next(orbit_runs(m, 144))


@pytest.mark.parametrize("m", [8, 9, 10])
def test_the_first_cell_of_every_walk_takes_under_a_mebibyte(m):
    # every walk generates a cell's coefficient rows as it takes the cell,
    # so its first cell costs what the cell holds, not the family's 4^(m+1)
    # rows: family_cells at the envelope audit's symbols per orbit, one row
    # per orbit (family_rows), the orbit walk at verify's (2 + 16 offsets)
    # and enumerate's first block
    n, bound = 1 << m, 1 << 20
    envelope = n * len(constructions._offset_list(ENVELOPE_MODULATION))
    walks = (lambda: family_rows(m, envelope), lambda: orbit_runs(m, n * 18),
             lambda: iter_family_chunks(m, Modulation.QAM16))
    for walk in walks:
        assert traced_peak(lambda: next(walk())) < bound
    # negative control: the orbit rows taken from the whole counter at once
    # exceed the bound already at m = 8
    assert traced_peak(lambda: orbit_rows(8)) > bound
