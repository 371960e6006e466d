"""Quadratic-path generalized Boolean functions Z2^m -> Z4 and their sequences.

Every carrier built here has the standard form

    f(x) = 2 * sum_{l=0}^{m-2} x_{pi(l)} x_{pi(l+1)}
         + sum_{l=0}^{m-1} c_l x_{pi(l)} + c        (mod 4)

i.e. a quadratic path in the permuted variables plus an arbitrary affine
part.  This is exactly the parameter space the family enumeration walks, so
no general ANF evaluator is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import ZETA_IM, ZETA_RE, bit_matrix, validate_permutation
from .constellation import ComplexSequence, Scale


@dataclass(frozen=True)
class PathQuadratic:
    """Quadratic path form over Z4: permutation, linear coefficients, constant."""

    m: int
    pi: tuple[int, ...]
    linear: tuple[int, ...]
    constant: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if len(self.pi) != self.m:
            raise ValueError(f"permutation length {len(self.pi)} != m={self.m}")
        validate_permutation(self.pi)
        if len(self.linear) != self.m:
            raise ValueError(f"need {self.m} linear coefficients, got {len(self.linear)}")
        object.__setattr__(self, "linear", tuple(c % 4 for c in self.linear))
        object.__setattr__(self, "constant", self.constant % 4)

    @property
    def n(self) -> int:
        return 1 << self.m


def evaluate(f: PathQuadratic, x: tuple[int, ...]) -> int:
    """f(x) in Z4 for one bit vector x of length m."""
    if len(x) != f.m:
        raise ValueError(f"bit vector length {len(x)} != m={f.m}")
    v = f.constant
    for l in range(f.m - 1):
        v += 2 * x[f.pi[l]] * x[f.pi[l + 1]]
    for l in range(f.m):
        v += f.linear[l] * x[f.pi[l]]
    return v % 4


def psi(f: PathQuadratic) -> np.ndarray:
    """Z4-valued sequence of f: entry i is f evaluated at bits_of(i, m)."""
    bits = bit_matrix(f.m)
    xp = bits[:, list(f.pi)].astype(np.int64)
    quad = 2 * np.sum(xp[:, :-1] * xp[:, 1:], axis=1)
    lin = xp @ np.asarray(f.linear, dtype=np.int64)
    return ((quad + lin + f.constant) % 4).astype(np.uint8)


def primed(f: PathQuadratic) -> PathQuadratic:
    """Companion function f + 2*x_{pi(m-1)} (adds 2 to the last path coefficient)."""
    lin = list(f.linear)
    lin[f.m - 1] = (lin[f.m - 1] + 2) % 4
    return replace(f, linear=tuple(lin))


def polyphase(values: np.ndarray) -> ComplexSequence:
    """Unit-scale lattice sequence zeta^values for a Z4-valued sequence."""
    v = np.asarray(values, dtype=np.int64) % 4
    return ComplexSequence(re=ZETA_RE[v], im=ZETA_IM[v], scale=Scale.UNIT)
