import cmath
from fractions import Fraction

import numpy as np
import pytest

from oracles import average_energy
from qamseq.constellation import (
    ComplexSequence,
    LatticeSymbol,
    Scale,
    qam16_lattice,
    qam16_map,
    qam64_lattice,
    qam64_map,
)

GAMMA = cmath.exp(1j * cmath.pi / 4)
R1, R2 = 2 / 5**0.5, 1 / 5**0.5
A1, A2, A3 = 4 / 21**0.5, 2 / 21**0.5, 1 / 21**0.5


def test_qam16_reference_points():
    assert qam16_map(0, 0) == LatticeSymbol(3, 3, Scale.QAM16)
    assert qam16_map(3, 3) == LatticeSymbol(3, -3, Scale.QAM16)
    assert qam16_map(2, 2) == LatticeSymbol(-3, -3, Scale.QAM16)


def test_qam64_reference_points():
    assert qam64_map(0, 0, 0) == LatticeSymbol(7, 7, Scale.QAM64)
    assert qam64_map(0, 0, 1) == LatticeSymbol(5, 7, Scale.QAM64)
    assert qam64_map(1, 1, 2) == LatticeSymbol(-7, 5, Scale.QAM64)


def test_qam16_bijective_onto_grid():
    points = {qam16_map(u, v)[:2] for u in range(4) for v in range(4)}
    grid = {(a, b) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)}
    assert points == grid


def test_qam64_bijective_onto_grid():
    points = {qam64_map(u, v, w)[:2] for u in range(4) for v in range(4) for w in range(4)}
    levels = (-7, -5, -3, -1, 1, 3, 5, 7)
    grid = {(a, b) for a in levels for b in levels}
    assert points == grid


def test_unit_average_energy_exact():
    assert average_energy(Scale.UNIT) == 1
    assert average_energy(Scale.QAM16) == 1
    assert average_energy(Scale.QAM64) == 1


def test_component_weights_are_unit_norm():
    assert Fraction(2, 1) ** 2 / 5 + Fraction(1, 1) ** 2 / 5 == 1
    assert (Fraction(16) + Fraction(4) + Fraction(1)) / 21 == 1


def test_lattice_rotation_matches_direct_complex_synthesis():
    for u in range(4):
        for v in range(4):
            direct = GAMMA * (R1 * 1j**u + R2 * 1j**v)
            assert abs(qam16_map(u, v).to_complex() - direct) < 1e-12
    for u in range(4):
        for v in range(4):
            for w in range(4):
                direct = GAMMA * (A1 * 1j**u + A2 * 1j**v + A3 * 1j**w)
                assert abs(qam64_map(u, v, w).to_complex() - direct) < 1e-12


def test_squared_magnitude_exact():
    assert qam16_map(0, 0).squared_magnitude() == Fraction(18, 10)
    assert qam64_map(0, 0, 0).squared_magnitude() == Fraction(98, 42)


def test_vectorized_tables_match_scalar_maps():
    u = np.repeat(np.arange(4), 4)
    v = np.tile(np.arange(4), 4)
    re, im = qam16_lattice(u, v)
    for k in range(16):
        assert (re[k], im[k]) == qam16_map(u[k], v[k])[:2]
    u3, v3, w3 = np.meshgrid(np.arange(4), np.arange(4), np.arange(4), indexing="ij")
    re, im = qam64_lattice(u3.ravel(), v3.ravel(), w3.ravel())
    for k, (a, b, c) in enumerate(zip(u3.ravel(), v3.ravel(), w3.ravel())):
        assert (re[k], im[k]) == qam64_map(a, b, c)[:2]


def test_complex_sequence_equality_and_energy():
    seq = ComplexSequence(np.array([3, -3]), np.array([3, 3]), Scale.QAM16)
    same = ComplexSequence(np.array([3, -3]), np.array([3, 3]), Scale.QAM16)
    other = ComplexSequence(np.array([3, -3]), np.array([3, 3]), Scale.QAM64)
    assert seq == same
    assert seq != other
    assert seq.energy() == Fraction(36, 10)
    assert len(seq) == 2


def test_complex_sequence_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        ComplexSequence(np.array([], dtype=np.int64), np.array([], dtype=np.int64), Scale.UNIT)
    with pytest.raises(ValueError):
        ComplexSequence(np.array([1, 2]), np.array([1]), Scale.UNIT)
