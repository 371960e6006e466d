"""Exact QAM symbol synthesis from QPSK components on an integer lattice.

A QAM point of k QPSK components c_0 .. c_{k-1} in Z4 is

    gamma * sum_j 2^(k-1-j) * zeta^(c_j) / sqrt((4^k - 1)/3),   gamma = e^{i pi/4}:

weights (2, 1)/sqrt(5) for 16-QAM (k = 2) and (4, 2, 1)/sqrt(21) for 64-QAM
(k = 3).  Multiplying a Gaussian integer a + ib by gamma*sqrt(2) = 1 + i is
the lattice rotation (a, b) -> (a - b, a + b), so every symbol is an exact
Gaussian integer over the denominator sqrt(2(4^k - 1)/3): sqrt(10) or
sqrt(42).  The library holds it as a complex128 value, exact while its parts
stay below 2^53; only the JSON and CSV writers spell it out as an integer
(re, im) pair.  Golay cancellations and offset identities are then exact
tests; floats round only at envelope evaluation.  The map is a bijection from Z4^k onto its 4^k
lattice points (see constructions).
"""

from __future__ import annotations

import functools
from enum import Enum

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
