"""16-QAM and 64-QAM near-complementary codeword construction and enumeration.

A codeword is synthesized from a base quadratic-path function plus one or two
offset functions:

    16-QAM:  H_i = qam16(D_i, E_i),        E = D + s
    64-QAM:  J_i = qam64(D_i, F_i, G_i),   F = D + s1,  G = D + s2

where s is a quadratic offset 2*x_{pi(0)}x_{pi(1)} + d1*x_{pi(0)}
+ d2*x_{pi(1)} + d3 constrained by d1 + 2*d3 = 2 and 2*d2 = 2, and the
64-QAM offset pair (s1, s2) comes in two kinds:

    type 1:  s1 = h1*x_{pi(0)} + h3 with h1 + 2*h3 = 0, s2 quadratic as above
    type 2:  s1 quadratic as above, s2 quadratic with coefficients
             (h1, h2, h3), h2 = d2 + 2, h1 + 2*h3 = 2

The primed companion of any component adds 2*x_{pi(m-1)}.  Offset records
are classified by which constraint set they satisfy, never by label.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent import futures
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Union

import numpy as np

from .algebra import bit_matrix, canonical_permutations, coefficient_matrix
from .constellation import ComplexSequence, Scale, qam16_lattice, qam64_lattice
from .gbf import PathQuadratic, psi


class OffsetConstraintError(ValueError):
    """An offset violates its defining congruences; message names them."""


class Modulation(Enum):
    QAM16 = "16qam"
    QAM64 = "64qam"


class OffsetKind(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"


@dataclass(frozen=True)
class Offset16:
    """Quadratic offset parameters (d1, d2, d3) for the 16-QAM family."""

    d1: int
    d2: int
    d3: int

    def __post_init__(self):
        object.__setattr__(self, "d1", self.d1 % 4)
        object.__setattr__(self, "d2", self.d2 % 4)
        object.__setattr__(self, "d3", self.d3 % 4)

    def violations(self) -> list[str]:
        out = []
        if (self.d1 + 2 * self.d3) % 4 != 2:
            out.append("d1+2*d3=2")
        if (2 * self.d2) % 4 != 2:
            out.append("2*d2=2")
        return out

    def validate(self) -> "Offset16":
        bad = self.violations()
        if bad:
            raise OffsetConstraintError(
                f"offset {(self.d1, self.d2, self.d3)} violates {', '.join(bad)}"
            )
        return self


@dataclass(frozen=True)
class Offset64:
    """Offset-pair parameters for the 64-QAM family (kind decides the shape)."""

    kind: OffsetKind
    d: Offset16
    h1: int
    h2: int
    h3: int

    def __post_init__(self):
        object.__setattr__(self, "h1", self.h1 % 4)
        object.__setattr__(self, "h2", self.h2 % 4)
        object.__setattr__(self, "h3", self.h3 % 4)

    def violations(self) -> list[str]:
        out = self.d.violations()
        if self.kind is OffsetKind.TYPE1:
            if (self.h1 + 2 * self.h3) % 4 != 0:
                out.append("h1+2*h3=0")
        else:
            if self.h2 % 4 != (self.d.d2 + 2) % 4:
                out.append("h2=d2+2")
            if (self.h1 + 2 * self.h3) % 4 != 2:
                out.append("h1+2*h3=2")
        return out

    def validate(self) -> "Offset64":
        bad = self.violations()
        if bad:
            raise OffsetConstraintError(
                f"{self.kind.value} offset (d={self.d.d1},{self.d.d2},{self.d.d3}; "
                f"h={self.h1},{self.h2},{self.h3}) violates {', '.join(bad)}"
            )
        return self


def classify_offset64(d: Offset16, h1: int, h3: int) -> Offset64:
    """Build an Offset64 from raw (h1, h3), inferring the kind by constraints.

    h1 + 2*h3 = 0 -> type 1 (h2 unused, fixed 0); h1 + 2*h3 = 2 -> type 2
    (h2 forced to d2 + 2).  Anything else is rejected.
    """
    r = (h1 + 2 * h3) % 4
    if r == 0:
        return Offset64(OffsetKind.TYPE1, d, h1, 0, h3).validate()
    if r == 2:
        return Offset64(OffsetKind.TYPE2, d, h1, (d.d2 + 2) % 4, h3).validate()
    raise OffsetConstraintError(
        f"(h1, h3) = ({h1 % 4}, {h3 % 4}) satisfies neither h1+2*h3=0 nor h1+2*h3=2"
    )


def list_offsets16() -> list[Offset16]:
    """The 8 valid offset triples, lexicographic in (d1, d2, d3)."""
    out = []
    for d1 in range(4):
        for d2 in range(4):
            for d3 in range(4):
                o = Offset16(d1, d2, d3)
                if not o.violations():
                    out.append(o)
    return out


# (h1, h3) pairs per kind, exhausted from Z4^2 and filtered by the congruence
_TYPE1_H = [(0, 0), (0, 2), (2, 1), (2, 3)]
_TYPE2_H = [(0, 1), (0, 3), (2, 0), (2, 2)]


def list_offsets64() -> list[Offset64]:
    """All 64 valid offset pairs: 32 type 1 records then 32 type 2 records.

    Within each kind: d triples in list_offsets16 order, (h1, h3) pairs in
    lexicographic order.
    """
    out = []
    for d in list_offsets16():
        for h1, h3 in _TYPE1_H:
            out.append(Offset64(OffsetKind.TYPE1, d, h1, 0, h3).validate())
    for d in list_offsets16():
        for h1, h3 in _TYPE2_H:
            out.append(Offset64(OffsetKind.TYPE2, d, h1, (d.d2 + 2) % 4, h3).validate())
    return out


Offset = Union[Offset16, Offset64]


@dataclass(frozen=True)
class ConstructionParams:
    """Everything that determines one codeword: base function plus offset."""

    base: PathQuadratic
    offset: Offset

    def __post_init__(self):
        if self.base.m <= 2:
            raise ValueError(f"construction requires m > 2, got m={self.base.m}")

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def modulation(self) -> Modulation:
        return Modulation.QAM16 if isinstance(self.offset, Offset16) else Modulation.QAM64


@dataclass(frozen=True, eq=False)
class CodewordRecord:
    """A constructed codeword, its primed companion and (unless assembled by
    hand) its unprimed quaternary components ((D, E) or (D, F, G))."""

    params: ConstructionParams
    sequence: ComplexSequence
    primed_sequence: ComplexSequence
    components: tuple[np.ndarray, ...] | None = None


def quadratic_offset_values(m: int, pi: tuple[int, ...], c1: int, c2: int, c3: int) -> np.ndarray:
    """Vector of 2*x_{pi(0)}x_{pi(1)} + c1*x_{pi(0)} + c2*x_{pi(1)} + c3 over all indices."""
    bits = bit_matrix(m).astype(np.int64)
    x0, x1 = bits[:, pi[0]], bits[:, pi[1]]
    return ((2 * x0 * x1 + c1 * x0 + c2 * x1 + c3) % 4).astype(np.uint8)


def linear_offset_values(m: int, pi: tuple[int, ...], h1: int, h3: int) -> np.ndarray:
    """Vector of h1*x_{pi(0)} + h3 over all indices."""
    bits = bit_matrix(m).astype(np.int64)
    return ((h1 * bits[:, pi[0]] + h3) % 4).astype(np.uint8)


def offset16_values(o: Offset16, m: int, pi: tuple[int, ...]) -> np.ndarray:
    return quadratic_offset_values(m, pi, o.d1, o.d2, o.d3)


def offset64_component_values(
    o: Offset64, m: int, pi: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The two offset vectors (s1, s2) for a 64-QAM offset pair."""
    d = o.d
    if o.kind is OffsetKind.TYPE1:
        s1 = linear_offset_values(m, pi, o.h1, o.h3)
        s2 = quadratic_offset_values(m, pi, d.d1, d.d2, d.d3)
    else:
        s1 = quadratic_offset_values(m, pi, d.d1, d.d2, d.d3)
        s2 = quadratic_offset_values(m, pi, o.h1, o.h2, o.h3)
    return s1, s2


def _offset_components(base: np.ndarray, offset: Offset, m: int, pi: tuple[int, ...]):
    """(D, E) or (D, F, G) from base sequences D: one row, or a batch of rows."""
    if isinstance(offset, Offset16):
        return base, (base + offset16_values(offset, m, pi)) % 4
    s1, s2 = offset64_component_values(offset, m, pi)
    return base, (base + s1) % 4, (base + s2) % 4


def component_values(params: ConstructionParams) -> tuple[np.ndarray, ...]:
    """Quaternary component sequences: (D, E) for 16-QAM, (D, F, G) for 64-QAM."""
    return _offset_components(psi(params.base), params.offset, params.m, params.base.pi)


def build(params: ConstructionParams) -> CodewordRecord:
    """Synthesize one codeword and its primed companion: a one-row build_block."""
    params.offset.validate()
    row = np.array([[*params.base.linear, params.base.constant]], dtype=np.uint8)
    return next(grid_records((build_block(params.m, params.base.pi, params.offset, row),)))


# star/n ceilings. Rounded values are the published bounds; the exact
# rationals come out of the weight arithmetic: 2*(4/5) + 4*(1/5) = 12/5 for
# 16-QAM, (16*2 + 4*2 + 1*4 + 8*4)/21 = 76/21 for type 1 (the a1*a2 cross
# term contributes its zero-shift 4n), (16*2 + 4*4 + 1*4)/21 = 52/21 for
# type 2.
BOUND_QAM16 = 2.4
BOUND_TYPE1 = 3.62
BOUND_TYPE2 = 2.48
EXACT_BOUND_QAM16 = Fraction(12, 5)
EXACT_BOUND_TYPE1 = Fraction(76, 21)
EXACT_BOUND_TYPE2 = Fraction(52, 21)


def star_bound(offset: Offset) -> float:
    """Published star/n ceiling for a codeword with this offset."""
    if isinstance(offset, Offset16):
        return BOUND_QAM16
    return BOUND_TYPE1 if offset.kind is OffsetKind.TYPE1 else BOUND_TYPE2


def family_size(m: int, modulation: Modulation) -> int:
    """Closed-form family size: (8 or 64) * (m!/2) * 4^(m+1)."""
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    offsets = 8 if modulation is Modulation.QAM16 else 64
    return offsets * (math.factorial(m) // 2) * 4 ** (m + 1)


@functools.cache
def _offset_list(modulation: Modulation) -> tuple[Offset, ...]:
    """The family's offsets in list order, built once per process (they are frozen)."""
    return tuple(list_offsets16() if modulation is Modulation.QAM16 else list_offsets64())


def parameter_grid(
    m: int, modulation: Modulation
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, Offset]]:
    """Deterministic tuple walk: pi lexicographic, coefficients as a base-4
    counter (constant fastest), then offset list order.

    This is the count-only fast path: nothing is synthesized.
    """
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    return _parameter_grid(m, modulation)


def _parameter_grid(m: int, modulation: Modulation):
    offsets = _offset_list(modulation)
    coeffs = coefficient_matrix(m)
    for pi in canonical_permutations(m):
        for row in coeffs:
            linear = tuple(int(v) for v in row[:m])
            constant = int(row[m])
            for off in offsets:
                yield pi, linear, constant, off


def enumerate_family(m: int, modulation: Modulation) -> Iterator[CodewordRecord]:
    """Lazily yield every codeword of the family in parameter_grid order."""
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    chunks = iter_family_chunks(m, modulation)
    return (record for blocks in chunks for record in grid_records(blocks))


def count_enumerated(m: int, modulation: Modulation) -> int:
    """Walk the parameter grid and count tuples (matches family_size)."""
    return sum(1 for _ in parameter_grid(m, modulation))


@dataclass(frozen=True, eq=False)
class FamilyBlock:
    """A batch of coefficient choices for one (permutation, offset) cell, vectorized.

    Row j of every array corresponds to row j of coeffs (by default all of
    coefficient_matrix(m)).  components holds the quaternary sequences
    ((D, E) or (D, F, G)); the primed companion is derived through
    companion_sign.
    """

    m: int
    pi: tuple[int, ...]
    offset: Offset
    coeffs: np.ndarray
    components: tuple[np.ndarray, ...]
    sym_re: np.ndarray
    sym_im: np.ndarray
    scale: Scale

    def __len__(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def kind(self) -> str:
        """The part of the family whose bound the block obeys: qam16, type1 or type2."""
        return "qam16" if isinstance(self.offset, Offset16) else self.offset.kind.value

    @property
    def companion_sign(self) -> np.ndarray:
        """(n,) int64 vector (-1)^x_{pi(m-1)}: the primed companion adds
        2*x_{pi(m-1)} to every component, and zeta^(c+2) = -zeta^c, so the
        companion of any lattice sequence here is that sequence times this."""
        return 1 - 2 * bit_matrix(self.m)[:, self.pi[self.m - 1]].astype(np.int64)

    def complex_symbols(self) -> np.ndarray:
        """(rows, n) complex unit-average-energy symbols, as ComplexSequence.to_complex."""
        return (self.sym_re + 1j * self.sym_im) / np.sqrt(self.scale.value)


def base_rows(m: int, pi: tuple[int, ...], coeffs: np.ndarray) -> np.ndarray:
    """(rows, n) uint8 base sequences D for a batch of coefficient rows at one pi."""
    xp = bit_matrix(m)[:, list(pi)].astype(np.int64)
    quad = 2 * np.sum(xp[:, :-1] * xp[:, 1:], axis=1)
    lin = coeffs[:, :m].astype(np.int64) @ xp.T
    return ((lin + quad[None, :] + coeffs[:, m].astype(np.int64)[:, None]) % 4).astype(np.uint8)


def build_block(
    m: int, pi: tuple[int, ...], offset: Offset, coeffs: np.ndarray | None = None
) -> FamilyBlock:
    """Vectorized synthesis of one (pi, offset) cell over coefficient rows
    (default: every row of coefficient_matrix(m))."""
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    if coeffs is None:
        coeffs = coefficient_matrix(m)
    comps = _offset_components(base_rows(m, pi, coeffs), offset, m, pi)
    if isinstance(offset, Offset16):
        lattice, scale = qam16_lattice, Scale.QAM16
    else:
        lattice, scale = qam64_lattice, Scale.QAM64
    re, im = lattice(*comps)
    return FamilyBlock(
        m=m, pi=pi, offset=offset, coeffs=coeffs, components=comps,
        sym_re=re, sym_im=im, scale=scale,
    )


def default_jobs() -> int:
    """Worker count for family walks: QAMSEQ_JOBS (ValueError unless an integer), else 1."""
    raw = os.environ.get("QAMSEQ_JOBS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QAMSEQ_JOBS must be an integer, got {raw!r}") from None


def _map_cell(fn: Callable[[FamilyBlock], object], cell: tuple):
    return fn(build_block(*cell))


def map_family_blocks(
    fn: Callable[[FamilyBlock], object], m: int, modulation: Modulation, jobs: int | None = None
) -> list:
    """fn(block) for every (pi, offset) block of the family, each block over
    every coefficient row, in pi-major then offset list order.

    jobs (default: default_jobs()) > 1 builds and maps the blocks in that
    many worker processes; fn and its results must then pickle.  The
    results are the same for every jobs.
    """
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"worker count (--jobs or QAMSEQ_JOBS) must be >= 1, got {jobs}")
    cells = [(m, pi, off) for pi in canonical_permutations(m) for off in _offset_list(modulation)]
    task = functools.partial(_map_cell, fn)
    if jobs == 1:
        return [task(cell) for cell in cells]
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, cells, chunksize=4))


# coefficient rows per chunk of iter_family_chunks: bounds its memory at any m
CHUNK_ROWS = 64


def iter_family_chunks(m: int, modulation: Modulation) -> Iterator[tuple[FamilyBlock, ...]]:
    """The family in parameter_grid order: per pi, per chunk of CHUNK_ROWS
    coefficient rows, one block per offset over the same rows."""
    coeffs = coefficient_matrix(m)
    offsets = _offset_list(modulation)
    for pi in canonical_permutations(m):
        for start in range(0, len(coeffs), CHUNK_ROWS):
            rows = coeffs[start : start + CHUNK_ROWS]
            yield tuple(build_block(m, pi, off, rows) for off in offsets)


def grid_records(blocks: tuple[FamilyBlock, ...]) -> Iterator[CodewordRecord]:
    """The records of one chunk in parameter_grid order (row, then offset);
    their arrays are views into the blocks."""
    m, pi = blocks[0].m, blocks[0].pi
    sign = blocks[0].companion_sign
    primed = [(b.sym_re * sign, b.sym_im * sign) for b in blocks]
    for j, row in enumerate(blocks[0].coeffs.tolist()):
        base = PathQuadratic(m=m, pi=pi, linear=tuple(row[:m]), constant=row[m])
        for b, (primed_re, primed_im) in zip(blocks, primed):
            yield CodewordRecord(
                params=ConstructionParams(base=base, offset=b.offset),
                sequence=ComplexSequence(b.sym_re[j], b.sym_im[j], b.scale),
                primed_sequence=ComplexSequence(primed_re[j], primed_im[j], b.scale),
                components=tuple(c[j] for c in b.components),
            )
