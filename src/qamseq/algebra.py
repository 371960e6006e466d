"""Z4 arithmetic, binary index decomposition, and path permutations.

Everything downstream works over the ring Z4 with the fourth root of unity
zeta = i, so unit roots are kept as exact Gaussian-integer pairs and never
touch floating point until envelope evaluation.

Bit convention: MSB-first, i = sum_k bits[k] * 2^(m-1-k).  This is the only
convention under which the quadratic-path constructions reproduce their
reference sequences; see tests.
"""

from __future__ import annotations

import itertools

import numpy as np

# zeta^v for v in Z4 as exact (re, im) integer pairs: 1, i, -1, -i
ZETA_INT = ((1, 0), (0, 1), (-1, 0), (0, -1))

# the same table as int64 lookup arrays, indexed by Z4 value
ZETA_RE, ZETA_IM = np.array(ZETA_INT, dtype=np.int64).T


def bits_of(i: int, m: int) -> tuple[int, ...]:
    """Binary digits (i_0, ..., i_{m-1}) of i, MSB first.

    Raises ValueError unless 0 <= i < 2**m.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= i < (1 << m):
        raise ValueError(f"index {i} out of range for m={m}")
    return tuple((i >> (m - 1 - k)) & 1 for k in range(m))


def bit_matrix(m: int) -> np.ndarray:
    """(2^m, m) uint8 matrix whose row i is bits_of(i, m).

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


def canonical_permutations(m: int) -> list[tuple[int, ...]]:
    """All m!/2 canonical path permutations of {0..m-1}, lexicographic.

    Raises ValueError for m < 2 (a path needs two endpoints).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return [pi for pi in itertools.permutations(range(m)) if is_canonical(pi)]


def coefficient_matrix(m: int) -> np.ndarray:
    """(4^(m+1), m+1) uint8 array of all coefficient tuples, counter order.

    Column m is the constant term and varies fastest; column 0 is the most
    significant digit.
    """
    count = 4 ** (m + 1)
    idx = np.arange(count, dtype=np.int64)
    cols = []
    for pos in range(m + 1):
        shift = 4 ** (m - pos)
        cols.append((idx // shift) % 4)
    return np.stack(cols, axis=1).astype(np.uint8)
