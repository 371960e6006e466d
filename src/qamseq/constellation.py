"""Exact QAM symbol synthesis from QPSK components on an integer lattice.

A QAM point of k QPSK components c_0 .. c_{k-1} in Z4 is

    gamma * sum_j 2^(k-1-j) * zeta^(c_j) / sqrt((4^k - 1)/3),   gamma = e^{i pi/4}:

weights (2, 1)/sqrt(5) for 16-QAM (k = 2) and (4, 2, 1)/sqrt(21) for 64-QAM
(k = 3).  Multiplying a Gaussian integer a + ib by gamma*sqrt(2) = 1 + i is
the lattice rotation (a, b) -> (a - b, a + b), so every symbol is an exact
Gaussian integer over the denominator sqrt(2(4^k - 1)/3): sqrt(10) or
sqrt(42).  The library holds it as a complex128 value, exact while its parts
stay below 2^53, and a record (ComplexSequence) as an int64 (re, im) pair.
Golay cancellations and offset identities are then exact tests; floats round
only at envelope evaluation.  The map is a bijection from Z4^k onto its 4^k
lattice points (see constructions).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .algebra import ZETA


class Scale(Enum):
    """Symbol denominator: entries are (re + i*im)/sqrt(value)."""

    UNIT = 1
    QAM16 = 10
    QAM64 = 42


@functools.cache
def _qam_table(k: int) -> np.ndarray:
    """Complex lattice points of all 4^k component tuples, c_0 the most
    significant base-4 digit of the index."""
    digits = np.arange(4**k)[:, None] // 4 ** np.arange(k - 1, -1, -1) % 4
    return (1 + 1j) * (ZETA[digits] @ 2 ** np.arange(k - 1, -1, -1))


def qam_lattice(*components) -> tuple[np.ndarray, Scale]:
    """(points, scale) of (1 + i) * sum_j 2^(k-1-j) * zeta^(c_j) over Z4-valued
    arrays c_0 .. c_{k-1}, k = 2 (16-QAM) or 3 (64-QAM): the points are
    complex128 Gaussian integers and the scale is the denominator
    2(4^k - 1)/3."""
    idx = 0
    for c in components:  # the index is below 4^k <= 64: uint8 components keep it uint8
        idx = idx * 4 + np.asarray(c) % 4
    return _qam_table(len(components))[idx], Scale(2 * (4 ** len(components) - 1) // 3)


def _integers(values, name: str) -> np.ndarray:
    """values as int64, exactly: int64 input as it is, a fractional value refused."""
    values = np.asarray(values)
    ints = values if values.dtype == np.int64 else values.astype(np.int64)
    if ints is not values and not np.array_equal(ints, values):
        raise ValueError(f"{name} must hold integers, got a fractional value")
    return ints


@dataclass(frozen=True, eq=False)
class ComplexSequence:
    """Length-n symbol vector with exact integer components over one scale:
    the form in which records hold their symbols."""

    re: np.ndarray
    im: np.ndarray
    scale: Scale

    def __post_init__(self):
        re, im = _integers(self.re, "re"), _integers(self.im, "im")
        if re.shape != im.shape or re.ndim != 1:
            raise ValueError("re and im must be 1-d arrays of equal length")
        if re.size == 0:
            raise ValueError("empty sequence")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __len__(self) -> int:
        return int(self.re.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexSequence):
            return NotImplemented
        return (
            self.scale is other.scale
            and np.array_equal(self.re, other.re)
            and np.array_equal(self.im, other.im)
        )

    def to_complex(self) -> np.ndarray:
        return (self.re + 1j * self.im) / np.sqrt(self.scale.value)

    def energy(self) -> Fraction:
        """Sum of squared magnitudes, exact."""
        total = int(np.sum(self.re.astype(object) ** 2 + self.im.astype(object) ** 2))
        return Fraction(total, self.scale.value)
