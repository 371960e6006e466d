"""16-QAM and 64-QAM near-complementary codeword construction and enumeration.

A codeword is synthesized from a base quadratic-path function plus one or two
offset functions:

    16-QAM:  H_i = qam(D_i, E_i),        E = D + s
    64-QAM:  J_i = qam(D_i, F_i, G_i),   F = D + s1,  G = D + s2

with qam the lattice formula of constellation.qam_lattice, where s is a
quadratic offset 2*x_{pi(0)}x_{pi(1)} + d1*x_{pi(0)} + d2*x_{pi(1)} + d3
constrained by d1 + 2*d3 = 2 and 2*d2 = 2, and the 64-QAM offset pair
(s1, s2) comes in two kinds:

    type 1:  s1 = h1*x_{pi(0)} + h3 with h1 + 2*h3 = 0, s2 quadratic as above
    type 2:  s1 quadratic as above, s2 quadratic with coefficients
             (h1, h2, h3), h2 = d2 + 2, h1 + 2*h3 = 2

Every component offset is one form q*x_{pi(0)}x_{pi(1)} + c1*x_{pi(0)}
+ c2*x_{pi(1)} + c3 (offset_forms), evaluated by form_values.  The primed
companion of any component adds 2*x_{pi(m-1)}.  Offset records are
classified by which constraint set they satisfy, never by label.

The family has family_size(m) distinct sequences: the map (pi, linear,
constant, offset) -> symbols is injective for every m >= 3.

1. The symbols give the components.  (1 + i)*zeta^c is one of +-1 +- i, so
   the real part of a lattice point is sum_j 2^(k-1-j)*e_j with signs
   e_j = +-1; signed binary digits fix every e_j, the imaginary part fixes
   the other signs, and the two signs of a digit fix c_j.
2. D gives (pi, linear, constant).  Every function Z2^m -> Z4 has exactly one
   Z4 normal form, a Z4 combination of the monomials prod_{i in S} x_i
   (Davis & Jedwab, IEEE Trans. IT 1999).  The quadratic terms 2*x_i*x_j of
   D are the edges of the path pi, which fixes pi up to reversal, and the
   canonical pi (pi(0) < pi(m-1)) is the one of the two that is listed; the
   affine part of D is then the linear part and the constant.
3. With pi fixed, E - D (16-QAM), or F - D and G - D (64-QAM), are the
   component offsets, and the normal form of each gives its form's
   coefficients.  Type 1 and type 2 differ in the x_{pi(0)}x_{pi(1)} term of
   s1 (0 against 2); the coefficients then give d and (h1, h3), and h2 is
   fixed by the kind.  The offset lists hold each (kind, d, h1, h3) once.

Every record has 64 images that share its star and its continuous envelope
(the coset view of Davis and Jedwab, and the affine-term symmetry of the
Reed-Muller cosets of Paterson, IEEE Trans. IT 2000).  Write a record as
(pi, c_l, c, o): D has the path quadratic, c_l on x_{pi(l)} and the
constant c, and each component is D plus one form (q, c1, c2, c3) of
offset_forms(o).  The symbol is (1 + i) * sum_j w_j * zeta^(c_j) over its
components c_j.

- zeta^c: adding k to every component multiplies the symbols by zeta^k
  (the constant c + k; ORBIT_SIZE).
- The quarter shift: x_{m-1} + 2*x_{m-2} is i mod 4 (bit_matrix is MSB
  first), so adding 1 to the coefficient of x_{m-1} and 2 to that of
  x_{m-2} (quarter_shift) adds i mod 4 to D and to every component, and
  multiplies symbol i, and its companion's, by zeta^i = i^i.  That is
  S(t) -> S(t + 1/4) for S(t) = sum_i H_i exp(2*pi*j*i*t).
- Conjugation: conj((1 + i) * zeta^a) = -i * (1 + i) * zeta^(-a), and -D is
  D with -c_l and -c (2*x*y = -2*x*y), so
  conj(H(pi, c_l, c, o)) = zeta^(-1) * H(pi, -c_l, -c, sigma(o)), with
  sigma: (q, c1, c2, c3) -> (q, -c1, -c2, -c3) on every form (q = -q for
  q in {0, 2}).
- Reversal: index n-1-i has every bit flipped, x -> 1 - x.  Over the path
  (x_l short for x_{pi(l)}), 2 * sum_l (1 - x_l)(1 - x_{l+1}) = 2(m-1) +
  2*x_0 + 2*x_{m-1} + the path quadratic mod 4, since -2 = 2 and the inner
  x_l appear twice; a form gives q*x_0*x_1 + (-q - c1)*x_0 + (-q - c2)*x_1
  + q + c1 + c2 + c3, and -q = q.  So
  H(pi, c_l, c, o)[::-1] = H(pi, c_l', c + sum c_l + 2(m-1), rho(o)), with
  c_l' = -c_l + 2*[l in {0, m-1}] and rho: (q, c1, c2, c3) ->
  (q, q - c1, q - c2, q + c1 + c2 + c3).
- sigma and rho are involutions and commute.  Both keep every defining
  congruence (d1 + 2*d3 = 2, 2*d2 = 2, h1 + 2*h3 = 0 or 2, h2 = d2 + 2) and
  q, hence the kind, so each maps the offset list onto itself
  (offset_symmetries looks every image up and fails if one is missing).
  No offset is fixed by a non-identity element.  Every offset has a d form
  (2, d1, d2, d3), with d2 odd and d1 even: sigma sends d2 to -d2 and
  sigma*rho sends it to d2 - 2, neither equal to d2 since 2*d2 = 2, and rho
  sends d1 to 2 - d1, unequal to d1 since 2*d1 = 0.  So every orbit
  {o, sigma(o), rho(o), sigma(rho(o))} has 4 offsets.
- The group.  The translations T, zeta^k times the quarter shift s to the
  power b, move (c, c_{pi^-1(m-1)}) by (k, b) and keep o, so T acts freely,
  16 records per T-orbit.  T is normal: the conjugation map (c_l, c) ->
  (-c_l, -c) turns a translation by t into one by -t, and the reversal map
  turns zeta into zeta and s into s^-1 * zeta^3 (the constant gains the
  sum 1 + 2 of s's coefficients, plus 4*(m-1) and sum_l 2*[l in
  {0, m-1}] = 4, both 0 mod 4).  So the 64 maps t * kappa, t in T and
  kappa in {1, sigma, rho, sigma*rho}, form a group; one that fixes a
  record keeps its offset, so kappa = 1 and then t = 1.  Every orbit has
  FULL_ORBIT_SIZE = 64 records, and exactly one of them has the least
  offset of its offset orbit (orbit_offsets), constant 0 and
  c_{pi^-1(m-1)} = 0: a walk over those rows (orbit_runs) meets each
  orbit once.
- What the images share.  Every star sum, component star and Golay defect
  of an image is the record's, conjugated or times a unit: the companion of
  an image is, up to a unit, conj(H'), H'[::-1] or i^i * H'; conj(z) and
  z[::-1] both have the autocorrelation conj(C_z(u)), and i^i * z has
  i^(-u) * C_z(u), a unit times a Gaussian integer.  So |C| and
  |re C| + |im C| are the same, bit for bit.  |S(t_k)| of conj(z) or
  z[::-1] is |S(-t_k)| of z, and that of i^i * z is |S(t_k + 1/4)|; -t_k
  and t_k + 1/4 are grid points too when the grid's size is a multiple of
  4, as L*n is, so the exact sampled PEP is the same; the computed one may
  differ in its last bits (analysis.pep_spread bounds by how much).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Union

import numpy as np

from .algebra import ZETA, bit_matrix, canonical_permutations, coefficient_rows
from .constellation import Scale, qam_lattice
from .gbf import PathQuadratic, base_rows


class OffsetConstraintError(ValueError):
    """An offset violates its defining congruences; message names them."""


class Modulation(Enum):
    QAM16 = "16qam"
    QAM64 = "64qam"

    @property
    def components(self) -> int:
        """QPSK components per symbol."""
        return 2 if self is Modulation.QAM16 else 3


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
            if self.h2 != 0:
                out.append("h2=0")
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

    h1 + 2*h3 = 0 -> type 1 (h2 = 0); h1 + 2*h3 = 2 -> type 2
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
    triples = (Offset16(*t) for t in itertools.product(range(4), repeat=3))
    return [o for o in triples if not o.violations()]


def list_offsets64() -> list[Offset64]:
    """All 64 valid offset pairs: 32 type 1 records (h1 + 2*h3 = 0) then 32
    type 2 records (h1 + 2*h3 = 2).

    Within each kind: d triples in list_offsets16 order, (h1, h3) pairs in
    lexicographic order.
    """
    pairs = list(itertools.product(range(4), repeat=2))
    return [
        classify_offset64(d, h1, h3)
        for r in (0, 2)
        for d in list_offsets16()
        for h1, h3 in pairs
        if (h1 + 2 * h3) % 4 == r
    ]


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


def offset_forms(offset: Offset) -> tuple[tuple[int, int, int, int], ...]:
    """(q, c1, c2, c3) of each component offset, the form
    q*x_{pi(0)}x_{pi(1)} + c1*x_{pi(0)} + c2*x_{pi(1)} + c3: s for 16-QAM,
    (s1, s2) for 64-QAM."""
    if isinstance(offset, Offset16):
        return ((2, offset.d1, offset.d2, offset.d3),)
    d = (2, offset.d.d1, offset.d.d2, offset.d.d3)
    if offset.kind is OffsetKind.TYPE1:
        return ((0, offset.h1, 0, offset.h3), d)
    return (d, (2, offset.h1, offset.h2, offset.h3))


def form_values(forms, m: int, pi: tuple[int, ...]) -> np.ndarray:
    """(len(forms), n) uint8 values of offset_forms forms over all indices."""
    bits = bit_matrix(m).astype(np.int64)
    x0, x1 = bits[:, pi[0]], bits[:, pi[1]]
    q, c1, c2, c3 = np.array(forms, dtype=np.int64).reshape(-1, 4).T[:, :, None]
    return ((q * x0 * x1 + c1 * x0 + c2 * x1 + c3) % 4).astype(np.uint8)


def component_forms(offsets) -> tuple[list, list[tuple[int, ...]]]:
    """(forms, index): each distinct offset_forms form of the offsets once,
    in order of first use, and the components of each offset as rows of
    (D, D plus each form): 0 for D, then 1 + the index of each of its forms."""
    forms = list(dict.fromkeys(f for off in offsets for f in offset_forms(off)))
    return forms, [(0, *(1 + forms.index(f) for f in offset_forms(off))) for off in offsets]


def build(params: ConstructionParams) -> FamilyBlock:
    """The one-row block of one codeword: its symbols at [0, 0], its
    components at offset_components(0)[:, 0], its companion through
    companion_sign."""
    params.offset.validate()
    row = np.array([[*params.base.linear, params.base.constant]], dtype=np.uint8)
    return build_block(params.m, params.base.pi, (params.offset,), row)


# star/n ceiling per offset kind: (published value, exact rational).  The
# rationals come out of the weight arithmetic: 2*(4/5) + 4*(1/5) = 12/5 for
# 16-QAM, (16*2 + 4*2 + 1*4 + 8*4)/21 = 76/21 for type 1 (the a1*a2 cross
# term contributes its zero-shift 4n), (16*2 + 4*4 + 1*4)/21 = 52/21 for
# type 2.
CEILINGS = {
    "qam16": (2.4, Fraction(12, 5)),
    "type1": (3.62, Fraction(76, 21)),
    "type2": (2.48, Fraction(52, 21)),
}


def offset_kind(offset: Offset) -> str:
    """The part of the family whose ceiling an offset obeys: qam16, type1 or type2."""
    return "qam16" if isinstance(offset, Offset16) else offset.kind.value


def star_bound(offset: Offset) -> float:
    """Published star/n ceiling for a codeword with this offset."""
    return CEILINGS[offset_kind(offset)][0]


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


def enumerate_family(m: int, modulation: Modulation) -> Iterator[ConstructionParams]:
    """Lazily yield the parameters of every codeword of the family, with
    nothing built, in the order of the rows and offsets of the blocks of
    iter_family_chunks: pi lexicographic, then the coefficient rows as a
    base-4 counter (the constant fastest), then offsets in list order."""
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    offsets = _offset_list(modulation)
    bases = (PathQuadratic(m, pi, row[:m], row[m]) for pi in canonical_permutations(m)
             for row in itertools.product(range(4), repeat=m + 1))
    return (ConstructionParams(base, offset) for base in bases for offset in offsets)


def count_enumerated(m: int, modulation: Modulation) -> int:
    """The parameter sets that enumerate_family yields (matches family_size):
    one record per offset on each coefficient row of the cells of
    iter_family_chunks, counted from their counter spans, with no row or
    codeword built."""
    offsets = len(_offset_list(modulation))
    cells = family_cells(m, ORBIT_SIZE * (1 << m) * offsets)
    return offsets * sum(stop - start for _, (start, stop) in cells)


def companion_sign(m: int, pi: tuple[int, ...]) -> np.ndarray:
    """(n,) int64 vector (-1)^x_{pi(m-1)}: the primed companion adds
    2*x_{pi(m-1)} to every component, and zeta^(c+2) = -zeta^c, so the
    companion of any lattice sequence at this pi is that sequence times this."""
    return 1 - 2 * bit_matrix(m)[:, pi[m - 1]].astype(np.int64)


# records per constant orbit: adding c to every component multiplies the
# symbols by zeta^c, an exact lattice rotation, so star, PMEPR, the Golay
# defect and the component stars are the same on the c = 0, 1, 2, 3 rows
ORBIT_SIZE = 4


# the images of one offset_forms form under conjugation (sigma) and reversal (rho)
FORM_SYMMETRIES = (
    lambda q, c1, c2, c3: (q, -c1 % 4, -c2 % 4, -c3 % 4),
    lambda q, c1, c2, c3: (q, (q - c1) % 4, (q - c2) % 4, (q + c1 + c2 + c3) % 4),
)
# (variable, coefficient) pairs of the quarter shift, variables counted from
# the end: x_{m-1} + 2*x_{m-2} is i mod 4
QUARTER_SHIFT = ((-1, 1), (-2, 2))
# offsets per conjugation x reversal orbit, rows per quarter-shift orbit, and
# records per orbit of the whole group with zeta^c
OFFSET_ORBIT_SIZE = 4
SHIFT_ORBIT_SIZE = 4
FULL_ORBIT_SIZE = OFFSET_ORBIT_SIZE * SHIFT_ORBIT_SIZE * ORBIT_SIZE


@functools.cache
def offset_symmetries(modulation: Modulation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sigma, rho): the list index of the conjugate and of the reverse of
    each offset of the family's list, found by looking up the images of its
    forms (the argument is in the module docstring).  Raises AssertionError
    if an image is not in the list, or if the two maps are not commuting
    involutions whose every orbit has OFFSET_ORBIT_SIZE offsets."""
    offsets = _offset_list(modulation)
    index = {offset_forms(o): k for k, o in enumerate(offsets)}
    sigma, rho = (
        tuple(index.get(tuple(image(*f) for f in offset_forms(o)), -1) for o in offsets)
        for image in FORM_SYMMETRIES
    )
    for k in range(len(offsets)):
        orbit = {k, sigma[k], rho[k], sigma[rho[k]]}
        if -1 in orbit or len(orbit) != OFFSET_ORBIT_SIZE or (
            sigma[sigma[k]], rho[rho[k]], rho[sigma[k]]) != (k, k, sigma[rho[k]]):
            raise AssertionError(f"offset {offsets[k]} has no free conjugation x reversal orbit")
    return sigma, rho


@functools.cache
def orbit_offsets(modulation: Modulation) -> tuple[Offset, ...]:
    """The least offset, in list order, of each conjugation x reversal orbit:
    2 of the 8 16-QAM offsets, 16 of the 64 64-QAM offsets (8 per kind).
    Over the rows of orbit_runs they meet every FULL_ORBIT_SIZE-record
    orbit once."""
    sigma, rho = offset_symmetries(modulation)
    offsets = _offset_list(modulation)
    return tuple(o for k, o in enumerate(offsets) if k == min(sigma[k], rho[k], sigma[rho[k]], k))


def quarter_shift(m: int, pi: tuple[int, ...]) -> np.ndarray:
    """The (m + 1,) coefficient row whose addition to any row at pi is the
    quarter shift: QUARTER_SHIFT's coefficients on the linear coefficients
    of its variables, so D gains i mod 4 and every symbol and companion is
    multiplied by i^i (the argument is in the module docstring).  Raises
    AssertionError unless base_rows of the row minus base_rows of the zero
    row is i mod 4; that fixes the row to 1 on c_{pi^-1(m-1)}, 2 on
    c_{pi^-1(m-2)} and 0 elsewhere, so its powers and the constants move
    (c, c_{pi^-1(m-1)}) freely, 16 rows per orbit."""
    shift = np.zeros(m + 1, dtype=np.uint8)
    for variable, coefficient in QUARTER_SHIFT:
        shift[pi.index(variable % m)] = coefficient
    d = base_rows(m, pi, np.stack([np.zeros_like(shift), shift])).astype(np.int64)
    if not np.array_equal((d[1] - d[0]) % 4, np.arange(1 << m) % 4):
        raise AssertionError(f"{shift.tolist()} is not a free quarter shift at pi {pi}")
    return shift


# symbols a walk or kernel holds per slice of row_slices: bounds its memory
# at any m and for either modulation
CHUNK_SYMBOLS = 1 << 15


def row_slices(count: int, per_row: int) -> Iterator[slice]:
    """Consecutive slices of range(count), in order, each of at most
    CHUNK_SYMBOLS // per_row rows and at least one: the one memory rule of
    every walk and kernel, which holds per_row symbols per row it takes."""
    step = max(1, CHUNK_SYMBOLS // max(1, per_row))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def family_cells(m: int, per_row: int) -> Iterator[tuple[tuple[int, ...], tuple[int, int]]]:
    """The (pi, (start, stop)) cells of every family walk, with nothing
    built: pi lexicographic, then the row_slices of the 4^m constant orbits
    at per_row, the number of symbols the walk holds per orbit, each as the
    span of the coefficient counter that holds its orbits' rows, ORBIT_SIZE
    per orbit, the constant fastest.  A walk generates a cell's rows as it
    takes the cell: coefficient_rows(m, start, stop) for every constant,
    and with step ORBIT_SIZE for one row per orbit."""
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    for pi in canonical_permutations(m):
        for part in row_slices(4 ** m, per_row):
            yield pi, (ORBIT_SIZE * part.start, ORBIT_SIZE * part.stop)


def orbit_runs(m: int, per_row: int) -> Iterator[list[tuple[tuple[int, ...], np.ndarray]]]:
    """The orbit walk as runs of (pi, rows) cells, with nothing built.  Per
    pi, in lexicographic order, its rows are the 4^(m-1) orbit rows with
    c_{pi^-1(m-1)} = 0 (the coefficient quarter_shift moves by 1), one per
    quarter-shift orbit: the coefficient rows whose constant and last
    linear coefficient are 0, every SHIFT_ORBIT_SIZE * ORBIT_SIZE-th of
    the counter, in order, with that coefficient's column swapped with the
    one quarter_shift moves by 1.  Consecutive pis whose rows fit one
    row_slices budget of per_row symbols a row together make a run, a cell
    each; the rows of a pi that do not are its row_slices, a run each, and
    each cell's rows are generated as it is made."""
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    pis = canonical_permutations(m)
    for group in row_slices(math.factorial(m) // 2, 4 ** (m - 1) * per_row):
        cells = (cell for pi in itertools.islice(pis, group.stop - group.start)
                 for cell in _quarter_cells(m, pi, per_row))
        yield from [list(cells)] if group.stop - group.start > 1 else ([cell] for cell in cells)


def _quarter_cells(m: int, pi: tuple[int, ...], per_row: int) -> Iterator:
    """The (pi, rows) cells of the row_slices of the 4^(m-1) orbit rows of
    orbit_runs at pi, each with its last linear coefficient's column
    swapped with the one quarter_shift moves by 1."""
    free, columns = int(np.flatnonzero(quarter_shift(m, pi) == 1)[0]), np.arange(m + 1)
    columns[[free, m - 1]] = m - 1, free
    step = SHIFT_ORBIT_SIZE * ORBIT_SIZE
    return ((pi, coefficient_rows(m, step * part.start, step * part.stop, step)[:, columns])
            for part in row_slices(4 ** (m - 1), per_row))


@dataclass(frozen=True, eq=False)
class FamilyBlock:
    """Every offset of one (permutation, coefficient rows) cell, vectorized.

    The row axis follows coeffs, rows of algebra.coefficient_rows.  Every
    codeword is zeta^D * K: base holds the (rows, n) uint8 base rows D,
    parts the (offsets, n) row-free codeword parts K = qam(0, s_j..), forms
    the (1 + forms, n) uint8 row-free values of the components (0 for D,
    then each distinct offset_forms form once), and row o of
    component_index the components ((D, E) or (D, F, G)) of offset o.  The
    symbols and the components are derived on access for the block's rows
    (select takes some of them); the companion through companion_sign.
    """

    m: int
    pi: tuple[int, ...]
    offsets: tuple[Offset, ...]
    coeffs: np.ndarray
    base: np.ndarray
    forms: np.ndarray
    component_index: np.ndarray
    parts: np.ndarray
    scale: Scale

    def __len__(self) -> int:
        return len(self.offsets) * len(self.base)

    def select(self, rows) -> FamilyBlock:
        """The block of the rows asked for, any index of the row axis."""
        return replace(self, coeffs=self.coeffs[rows], base=self.base[rows])

    @property
    def kinds(self) -> tuple[str, ...]:
        """The offset kind of each offset, in block order."""
        return tuple(offset_kind(o) for o in self.offsets)

    @property
    def companion_sign(self) -> np.ndarray:
        return companion_sign(self.m, self.pi)

    @property
    def components(self) -> np.ndarray:
        """(1 + forms, rows, n) uint8 sequences: D, then D plus each form."""
        return (self.base + self.forms[:, None]) % 4

    def offset_components(self, o: int) -> np.ndarray:
        """(components, rows, n) sequences of offset o: (D, E) or (D, F, G)."""
        return self.components[self.component_index[o]]

    @property
    def symbols(self) -> np.ndarray:
        """(offsets, rows, n) complex lattice points zeta^D * K of every codeword."""
        return ZETA[self.base] * self.parts[:, None]

    def complex_symbols(self) -> np.ndarray:
        """(offsets, rows, n) complex unit-average-energy symbols: the lattice
        points over the square root of the scale."""
        return self.symbols / np.sqrt(self.scale.value)


def build_block(
    m: int, pi: tuple[int, ...], offsets: tuple[Offset, ...], coeffs: np.ndarray
) -> FamilyBlock:
    """Vectorized synthesis of every offset of one (pi, rows) cell: D once, each
    distinct component form once, and every offset's row-free part K from
    one qam_lattice call over the forms; no symbol is made here."""
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    forms, index = component_forms(offsets)
    index = np.array(index)
    values = np.concatenate([np.zeros((1, 1 << m), np.uint8), form_values(forms, m, pi)])
    parts, scale = qam_lattice(*np.moveaxis(values[index], 1, 0))
    return FamilyBlock(m, pi, tuple(offsets), coeffs, base_rows(m, pi, coeffs), values, index,
                       parts, scale)


def _pool_map(task: Callable, cells: Iterator, jobs: int) -> Iterator:
    # imported here: only a worker pool needs it, and it (with logging) is
    # a large share of the package's import time
    from concurrent import futures

    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(task, cells)


def _map_cells(task: Callable, cells: Iterator, jobs: int) -> Iterator:
    """task(cell) for every cell, in jobs processes, yielded in cell order as
    they come, so a consumer folds them without holding them all; one cell
    is taken at a time when jobs is 1."""
    if jobs < 1:
        raise ValueError(f"worker count must be >= 1, got {jobs}")
    return map(task, cells) if jobs == 1 else _pool_map(task, cells, jobs)


def iter_family_chunks(m: int, modulation: Modulation) -> Iterator[FamilyBlock]:
    """The family as blocks, one per cell of family_cells at the symbols of
    an orbit's records for every offset: every offset, in list order, over
    the cell's coefficient rows in counter order, the constant fastest."""
    offsets = _offset_list(modulation)
    for pi, span in family_cells(m, ORBIT_SIZE * (1 << m) * len(offsets)):
        yield build_block(m, pi, offsets, coefficient_rows(m, *span))
