"""Exact QAM symbol synthesis from QPSK components on an integer lattice.

A 16-QAM point is gamma*(r1*zeta^u + r2*zeta^v) with gamma = e^{i pi/4},
(r1, r2) = (2, 1)/sqrt(5); a 64-QAM point is gamma*(a1*zeta^u + a2*zeta^v
+ a3*zeta^w) with (a1, a2, a3) = (4, 2, 1)/sqrt(21).  Multiplying a Gaussian
integer a + ib by gamma*sqrt(2) = 1 + i is the lattice rotation
(a, b) -> (a - b, a + b), so every symbol is stored as an exact integer pair
over a fixed denominator sqrt(10) or sqrt(42).  Golay cancellations and
offset identities can then be tested in integer arithmetic; floats appear
only at envelope evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import ZETA_INT


class Scale(Enum):
    """Symbol denominator: entries are (re + i*im)/sqrt(value)."""

    UNIT = 1
    QAM16 = 10
    QAM64 = 42


class LatticeSymbol(NamedTuple):
    re_int: int
    im_int: int
    scale: Scale

    def to_complex(self) -> complex:
        d = np.sqrt(self.scale.value)
        return complex(self.re_int / d, self.im_int / d)

    def squared_magnitude(self) -> Fraction:
        return Fraction(self.re_int**2 + self.im_int**2, self.scale.value)


def _rotate(a: int, b: int) -> tuple[int, int]:
    # multiply a + ib by (1 + i); the sqrt(2) is absorbed into the denominator
    return a - b, a + b


def qam16_map(u: int, v: int) -> LatticeSymbol:
    """16-QAM point for QPSK component phases (u, v) in Z4."""
    zu, zv = ZETA_INT[u % 4], ZETA_INT[v % 4]
    a = 2 * zu[0] + zv[0]
    b = 2 * zu[1] + zv[1]
    re, im = _rotate(a, b)
    return LatticeSymbol(re, im, Scale.QAM16)


def qam64_map(u: int, v: int, w: int) -> LatticeSymbol:
    """64-QAM point for QPSK component phases (u, v, w) in Z4."""
    zu, zv, zw = ZETA_INT[u % 4], ZETA_INT[v % 4], ZETA_INT[w % 4]
    a = 4 * zu[0] + 2 * zv[0] + zw[0]
    b = 4 * zu[1] + 2 * zv[1] + zw[1]
    re, im = _rotate(a, b)
    return LatticeSymbol(re, im, Scale.QAM64)


# flat lookup tables for vectorized synthesis: index u*4+v (resp. u*16+v*4+w)
_Q16 = [qam16_map(u, v) for u in range(4) for v in range(4)]
QAM16_RE = np.array([p.re_int for p in _Q16], dtype=np.int64)
QAM16_IM = np.array([p.im_int for p in _Q16], dtype=np.int64)

_Q64 = [qam64_map(u, v, w) for u in range(4) for v in range(4) for w in range(4)]
QAM64_RE = np.array([p.re_int for p in _Q64], dtype=np.int64)
QAM64_IM = np.array([p.im_int for p in _Q64], dtype=np.int64)


def qam16_lattice(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized qam16_map over Z4-valued arrays; returns (re, im) int64."""
    idx = (np.asarray(u, dtype=np.int64) % 4) * 4 + np.asarray(v, dtype=np.int64) % 4
    return QAM16_RE[idx], QAM16_IM[idx]


def qam64_lattice(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized qam64_map; returns (re, im) int64."""
    idx = (
        (np.asarray(u, dtype=np.int64) % 4) * 16
        + (np.asarray(v, dtype=np.int64) % 4) * 4
        + np.asarray(w, dtype=np.int64) % 4
    )
    return QAM64_RE[idx], QAM64_IM[idx]


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
