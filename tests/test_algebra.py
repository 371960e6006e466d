import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import index_of
from qamseq.algebra import (
    ZETA_IM,
    ZETA_INT,
    ZETA_RE,
    bit_matrix,
    bits_of,
    canonical_permutations,
    coefficient_matrix,
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
    perms = canonical_permutations(m)
    assert len(perms) == count
    assert len(perms) == math.factorial(m) // 2


def test_canonical_permutations_m3_explicit():
    assert canonical_permutations(3) == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]


def test_canonical_permutations_lexicographic_and_reversal_free():
    for m in (3, 4, 5):
        perms = canonical_permutations(m)
        assert perms == sorted(perms)
        as_set = set(perms)
        for pi in perms:
            assert tuple(reversed(pi)) not in as_set
        # one representative per reversal class of all m! permutations
        assert len(perms) * 2 == len(list(itertools.permutations(range(m))))


def test_canonical_permutations_rejects_small_m():
    with pytest.raises(ValueError):
        canonical_permutations(1)


def test_is_canonical():
    assert is_canonical((0, 1, 2))
    assert not is_canonical((2, 1, 0))


def test_zeta_unit_roots():
    assert [zeta(v) for v in range(4)] == [1, 1j, -1, -1j]
    assert ZETA_INT == ((1, 0), (0, 1), (-1, 0), (0, -1))
    # the lookup arrays every polyphase synthesis indexes are the same table
    assert ZETA_RE.tolist() == [1, 0, -1, 0]
    assert ZETA_IM.tolist() == [0, 1, 0, -1]


def test_zeta_product_exhaustive():
    for a in range(4):
        for b in range(4):
            assert zeta(a) * zeta(b) == zeta(a + b)


def test_coefficient_matrix_is_base4_counter():
    mat = coefficient_matrix(2)
    assert mat.shape == (4**3, 3)
    listed = [tuple(int(v) for v in row) for row in mat]
    assert listed == list(itertools.product(range(4), repeat=3))
    # constant column varies fastest
    assert listed[0] == (0, 0, 0)
    assert listed[1] == (0, 0, 1)
    assert listed[4] == (0, 1, 0)


def test_iter_coefficients_matches_matrix():
    pairs = list(iter_coefficients(2))
    mat = coefficient_matrix(2)
    assert len(pairs) == len(mat)
    for (linear, constant), row in zip(pairs, mat):
        assert linear == tuple(int(v) for v in row[:2])
        assert constant == int(row[2])
