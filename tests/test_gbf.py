import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qamseq.algebra import bit_matrix, bits_of
from qamseq.constellation import Scale
from oracles import evaluate, polyphase, primed
from qamseq.gbf import PathQuadratic, psi

EXAMPLE_F = PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0)

functions = st.integers(min_value=2, max_value=5).flatmap(
    lambda m: st.builds(
        PathQuadratic,
        m=st.just(m),
        pi=st.permutations(list(range(m))).map(tuple),
        linear=st.tuples(*[st.integers(0, 3)] * m),
        constant=st.integers(0, 3),
    )
)


def test_evaluate_zero_input():
    assert evaluate(EXAMPLE_F, (0, 0, 0)) == 0


def test_evaluate_reference_positions():
    assert evaluate(EXAMPLE_F, (0, 1, 1)) == 0  # index 3
    assert evaluate(EXAMPLE_F, (1, 1, 1)) == 3  # index 7


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(EXAMPLE_F, (0, 1))


def test_psi_reference_sequence():
    assert psi(EXAMPLE_F).tolist() == [0, 1, 1, 0, 1, 2, 0, 3]


def test_psi_pure_quadratic_m2():
    f = PathQuadratic(m=2, pi=(0, 1), linear=(0, 0), constant=0)
    assert psi(f).tolist() == [0, 0, 0, 2]


def test_psi_constant_shift():
    f0 = PathQuadratic(m=3, pi=(0, 1, 2), linear=(0, 0, 0), constant=0)
    f2 = PathQuadratic(m=3, pi=(0, 1, 2), linear=(0, 0, 0), constant=2)
    assert psi(f2)[0] == 2
    assert np.array_equal(psi(f2), (psi(f0) + 2) % 4)


@given(functions)
def test_psi_matches_pointwise_evaluate(f):
    values = psi(f)
    for i in range(1 << f.m):
        assert values[i] == evaluate(f, bits_of(i, f.m))


def test_polyphase_trivial():
    seq = polyphase(np.array([0, 0]))
    assert seq.to_complex().tolist() == [1, 1]


def test_polyphase_fourth_roots():
    seq = polyphase(np.array([0, 1, 2, 3]))
    assert seq.to_complex().tolist() == [1, 1j, -1, -1j]


def test_polyphase_unit_magnitude_exact():
    seq = polyphase(psi(EXAMPLE_F))
    assert seq.scale is Scale.UNIT
    assert np.array_equal(seq.re**2 + seq.im**2, np.ones(8, dtype=np.int64))
    # zero-shift correlation = energy = n
    assert seq.energy() == 8


@given(functions)
def test_primed_differs_by_two_where_last_path_bit_set(f):
    base = psi(f).astype(np.int64)
    shifted = psi(primed(f)).astype(np.int64)
    last_bit = bit_matrix(f.m)[:, f.pi[f.m - 1]].astype(np.int64)
    assert np.array_equal((shifted - base) % 4, 2 * last_bit)


@given(functions, st.integers(0, 4))
def test_linear_coefficients_live_in_z4(f, slot_seed):
    slot = slot_seed % f.m
    bumped = list(f.linear)
    bumped[slot] += 4
    g = PathQuadratic(m=f.m, pi=f.pi, linear=tuple(bumped), constant=f.constant)
    assert np.array_equal(psi(f), psi(g))


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        PathQuadratic(m=3, pi=(0, 1, 1), linear=(0, 0, 0), constant=0)


def test_linear_length_checked():
    with pytest.raises(ValueError):
        PathQuadratic(m=3, pi=(0, 1, 2), linear=(0, 0), constant=0)
