import cmath
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    LatticeSymbol,
    average_energy,
    qam16_map,
    qam64_map,
    squared_magnitude,
    to_complex,
)
from qamseq.constellation import ComplexSequence, Scale, qam_lattice

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
            assert abs(to_complex(qam16_map(u, v)) - direct) < 1e-12
    for u in range(4):
        for v in range(4):
            for w in range(4):
                direct = GAMMA * (A1 * 1j**u + A2 * 1j**v + A3 * 1j**w)
                assert abs(to_complex(qam64_map(u, v, w)) - direct) < 1e-12


def test_squared_magnitude_exact():
    assert squared_magnitude(qam16_map(0, 0)) == Fraction(18, 10)
    assert squared_magnitude(qam64_map(0, 0, 0)) == Fraction(98, 42)


def test_vectorized_tables_match_scalar_maps():
    # one formula for both modulations: equal to the literal map written out
    # per modulation on all 4^k inputs, 4^k distinct points, and the
    # denominator 2(4^k - 1)/3
    for k, literal, scale in ((2, qam16_map, Scale.QAM16), (3, qam64_map, Scale.QAM64)):
        digits = [c.ravel() for c in np.meshgrid(*[np.arange(4)] * k, indexing="ij")]
        z, got_scale = qam_lattice(*digits)
        assert got_scale is scale and scale.value == 2 * (4**k - 1) // 3
        assert z.dtype == complex
        points = [(int(p.real), int(p.imag)) for p in z]
        assert np.array_equal(z, [complex(*p) for p in points])  # integer parts
        assert points == [literal(*c)[:2] for c in zip(*(d.tolist() for d in digits))]
        assert len(set(points)) == 4**k
        # components are read mod 4, and any array shape is kept
        z2, _ = qam_lattice(*((d + 4).reshape(-1, 4) for d in digits))
        assert np.array_equal(z2, z.reshape(-1, 4))


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


def test_complex_sequence_refuses_fractional_parts():
    # a complex lattice value becomes a record's integers here, so a
    # truncated part would be a wrong integer written without an error
    with pytest.raises(ValueError, match="re must hold integers"):
        ComplexSequence([1.5, 2.9], [0.2, -0.7], Scale.QAM16)
    with pytest.raises(ValueError, match="im must hold integers"):
        ComplexSequence([1, 3], np.array([3.0, -0.5]), Scale.QAM16)
    # integral floats convert exactly, as do complex lattice parts
    z = np.array([3 + 1j, -1 - 3j])
    seq = ComplexSequence(z.real, z.imag, Scale.QAM16)
    assert seq.re.dtype == seq.im.dtype == np.int64
    assert seq == ComplexSequence([3, -1], [1, -3], Scale.QAM16)
    assert ComplexSequence([2.0**52 + 1], [-7.0], Scale.UNIT).re.tolist() == [2**52 + 1]


def test_complex_sequence_keeps_int64_input_without_a_copy():
    re, im = np.array([1, -3], dtype=np.int64), np.array([3, 1], dtype=np.int64)
    seq = ComplexSequence(re, im, Scale.QAM16)
    assert seq.re is re and seq.im is im
