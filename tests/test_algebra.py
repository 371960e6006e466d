import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bits_of, coefficient_matrix, index_of, traced_peak
from qamseq.algebra import (
    ZETA,
    ZETA_INT,
    bit_matrix,
    canonical_permutations,
    coefficient_rows,
    is_canonical,
)


def zeta(value):
    """zeta^value from the integer-pair table, as a complex number."""
    return complex(*ZETA_INT[value % 4])


def iter_coefficients(m):
    """Every (linear, constant) pair over Z4 as a base-4 counter, constant fastest."""
    for combo in itertools.product(range(4), repeat=m + 1):
        yield combo[:m], combo[m]


def test_bits_of_zero():
    assert bits_of(0, 3) == (0, 0, 0)


def test_bits_of_msb_first():
    # the convention that reproduces the reference offset sequence
    assert bits_of(3, 3) == (0, 1, 1)


def test_bits_of_all_ones():
    assert bits_of(7, 3) == (1, 1, 1)


def test_bits_of_out_of_range():
    with pytest.raises(ValueError):
        bits_of(8, 3)
    with pytest.raises(ValueError):
        bits_of(-1, 3)


def test_bits_roundtrip_exhaustive():
    for m in range(1, 9):
        for i in range(1 << m):
            assert index_of(bits_of(i, m)) == i


@given(st.integers(min_value=1, max_value=8), st.data())
def test_bits_roundtrip(m, data):
    i = data.draw(st.integers(min_value=0, max_value=2**m - 1))
    assert index_of(bits_of(i, m)) == i


def test_bit_matrix_matches_bits_of():
    for m in (1, 3, 5):
        mat = bit_matrix(m)
        for i in range(2**m):
            assert tuple(mat[i]) == bits_of(i, m)


@pytest.mark.parametrize("m,count", [(2, 1), (3, 3), (4, 12)])
def test_canonical_permutation_counts(m, count):
    perms = list(canonical_permutations(m))
    assert len(perms) == count
    assert len(perms) == math.factorial(m) // 2


def test_canonical_permutations_m3_explicit():
    assert list(canonical_permutations(3)) == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]


def test_canonical_permutations_lexicographic_and_reversal_free():
    for m in (3, 4, 5):
        perms = list(canonical_permutations(m))
        assert perms == sorted(perms)
        as_set = set(perms)
        for pi in perms:
            assert tuple(reversed(pi)) not in as_set
        # one representative per reversal class of all m! permutations
        assert len(perms) * 2 == len(list(itertools.permutations(range(m))))


def test_canonical_permutations_rejects_small_m():
    # on the call, before any permutation is asked for
    with pytest.raises(ValueError):
        canonical_permutations(1)


def test_canonical_permutations_hold_one_permutation_at_a_time():
    # the permutations come one at a time: the first of m = 10 takes well
    # under 1 MiB, where the list of all 10!/2 of them takes some 200 MiB.
    # Negative control: the list of the 8!/2 of m = 8 already takes more
    assert next(canonical_permutations(10)) == tuple(range(10))
    assert traced_peak(lambda: next(canonical_permutations(10))) < 1 << 20
    assert traced_peak(lambda: list(canonical_permutations(8))) > 1 << 20


def test_is_canonical():
    assert is_canonical((0, 1, 2))
    assert not is_canonical((2, 1, 0))


def test_zeta_unit_roots():
    assert [zeta(v) for v in range(4)] == [1, 1j, -1, -1j]
    assert ZETA_INT == ((1, 0), (0, 1), (-1, 0), (0, -1))
    # the complex lookup array every lattice synthesis indexes is the same table
    assert ZETA.dtype == complex and ZETA.tolist() == [1, 1j, -1, -1j]
    assert [(z.real, z.imag) for z in ZETA] == list(ZETA_INT)


def test_zeta_product_exhaustive():
    for a in range(4):
        for b in range(4):
            assert zeta(a) * zeta(b) == zeta(a + b)


def test_coefficient_rows_are_a_base4_counter():
    mat = coefficient_rows(2, 0, 4**3)
    assert mat.shape == (4**3, 3)
    listed = [tuple(int(v) for v in row) for row in mat]
    assert listed == list(itertools.product(range(4), repeat=3))
    # constant column varies fastest
    assert listed[0] == (0, 0, 0)
    assert listed[1] == (0, 0, 1)
    assert listed[4] == (0, 1, 0)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_coefficient_rows_equal_the_counter_reference(m):
    # the whole counter and slices of it, some starting above 0, at the
    # steps the walks take: 1 (every constant), 4 (one row per constant
    # orbit) and 16 (one per quarter-shift orbit)
    full = coefficient_matrix(m)
    count = len(full)
    for start, stop, step in ((0, count, 1), (0, count, 4), (0, count, 16), (4, 4 * 37, 1),
                              (3, count - 5, 1), (8, count - 4, 4), (16 * 5, 16 * 9, 16),
                              (7, count, 16)):
        rows = coefficient_rows(m, start, stop, step)
        assert rows.dtype == np.uint8
        assert np.array_equal(rows, full[start:stop:step])


def test_iter_coefficients_matches_the_counter_reference():
    pairs = list(iter_coefficients(2))
    mat = coefficient_matrix(2)
    assert len(pairs) == len(mat)
    for (linear, constant), row in zip(pairs, mat):
        assert linear == tuple(int(v) for v in row[:2])
        assert constant == int(row[2])
