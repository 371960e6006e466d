"""Exact QAM symbol synthesis from QPSK components on an integer lattice.

A QAM point of k QPSK components c_0 .. c_{k-1} in Z4 is

    gamma * sum_j 2^(k-1-j) * zeta^(c_j) / sqrt((4^k - 1)/3),   gamma = e^{i pi/4}:

weights (2, 1)/sqrt(5) for 16-QAM (k = 2) and (4, 2, 1)/sqrt(21) for 64-QAM
(k = 3).  Multiplying a Gaussian integer a + ib by gamma*sqrt(2) = 1 + i is
the lattice rotation (a, b) -> (a - b, a + b), so every symbol is stored as an
exact integer pair over the denominator sqrt(2(4^k - 1)/3): sqrt(10) or
sqrt(42).  Golay cancellations and offset identities can then be tested in
integer arithmetic; floats appear only at envelope evaluation.  The map is
a bijection from Z4^k onto its 4^k lattice points (see constructions).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .algebra import ZETA_IM, ZETA_RE


class Scale(Enum):
    """Symbol denominator: entries are (re + i*im)/sqrt(value)."""

    UNIT = 1
    QAM16 = 10
    QAM64 = 42


@functools.cache
def _qam_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) int64 points of all 4^k component tuples, c_0 the most
    significant base-4 digit of the index."""
    digits = np.arange(4**k)[:, None] // 4 ** np.arange(k - 1, -1, -1) % 4
    weights = 2 ** np.arange(k - 1, -1, -1)
    a, b = ZETA_RE[digits] @ weights, ZETA_IM[digits] @ weights
    return a - b, a + b


def qam_lattice(*components) -> tuple[np.ndarray, np.ndarray, Scale]:
    """(re, im, scale) of (1 + i) * sum_j 2^(k-1-j) * zeta^(c_j) over Z4-valued
    arrays c_0 .. c_{k-1}, k = 2 (16-QAM) or 3 (64-QAM); re and im are int64
    and the scale is the denominator 2(4^k - 1)/3."""
    re, im = _qam_table(len(components))
    idx = 0
    for c in components:
        idx = idx * 4 + np.asarray(c, dtype=np.int64) % 4
    return re[idx], im[idx], Scale(2 * (4 ** len(components) - 1) // 3)


@dataclass(frozen=True, eq=False)
class ComplexSequence:
    """Length-n symbol vector with exact integer components over one scale."""

    re: np.ndarray
    im: np.ndarray
    scale: Scale

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.int64)
        im = np.asarray(self.im, dtype=np.int64)
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
