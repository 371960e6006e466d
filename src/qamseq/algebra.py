"""Z4 arithmetic, binary index decomposition, and path permutations.

Everything downstream works over the ring Z4 with the fourth root of unity
zeta = i, so unit roots are exact Gaussian integers: complex128 values with
integer parts, which no sum of the library rounds before envelope evaluation.

Bit convention: MSB-first, i = sum_k bits[k] * 2^(m-1-k).  This is the only
convention under which the quadratic-path constructions reproduce their
reference sequences; see tests.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

# zeta^v for v in Z4 as exact (re, im) integer pairs: 1, i, -1, -i
ZETA_INT = ((1, 0), (0, 1), (-1, 0), (0, -1))

# the same table as one complex lookup array, indexed by Z4 value
ZETA = np.array([complex(*z) for z in ZETA_INT])


def bit_matrix(m: int) -> np.ndarray:
    """(2^m, m) uint8 matrix whose row i holds the binary digits of i, MSB first.

    Shared by every vectorized family computation.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    idx = np.arange(1 << m, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def validate_permutation(pi: tuple[int, ...]) -> None:
    """Raise ValueError unless pi is a bijection on {0, ..., len(pi)-1}."""
    m = len(pi)
    if sorted(pi) != list(range(m)):
        raise ValueError(f"not a permutation of 0..{m - 1}: {pi!r}")


def is_canonical(pi: tuple[int, ...]) -> bool:
    """One representative per path-reversal class: pi[0] < pi[-1].

    The quadratic path form sum_l x_{pi(l)} x_{pi(l+1)} is invariant under
    reversing the path, so only one of {pi, reversed(pi)} is kept.
    """
    return pi[0] < pi[-1]


def canonical_permutations(m: int) -> Iterator[tuple[int, ...]]:
    """All m!/2 canonical path permutations of {0..m-1}, lexicographic, as a
    lazy iterator: a walk holds one at a time, never all m!/2.

    Raises ValueError for m < 2 (a path needs two endpoints), on the call.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return (pi for pi in itertools.permutations(range(m)) if is_canonical(pi))


def coefficient_rows(m: int, start: int, stop: int, step: int = 1) -> np.ndarray:
    """(rows, m + 1) uint8 base-4 digits of each value of range(start, stop,
    step), most significant first: the coefficient rows of the family in
    counter order, column m the constant, varying fastest.  A walk takes
    the rows of one slice of the counter at a time, never all 4^(m+1)."""
    idx = np.arange(start, stop, step, dtype=np.int64)
    shifts = np.arange(2 * m, -1, -2, dtype=np.int64)
    return ((idx[:, None] >> shifts[None, :]) & 3).astype(np.uint8)
