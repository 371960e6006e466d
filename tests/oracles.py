"""Literal-definition oracles for the library's kernels.

The library holds a codeword as complex128 Gaussian integers in a
FamilyBlock.  Here a record holds it as int64 (re, im) pairs
(ComplexSequence, CodewordRecord): block_records reads them out of a block
exactly, build_record out of the one-row block of constructions.build, and
library_star and library_pmepr run the library's one-row kernels on them.
The tests compare integers in this form.

Each function here evaluates its quantity straight from the definition, one
sequence or one record at a time: the per-shift autocorrelation loop, the
full-range star sum, the one-sequence envelope FFT, the one-shot random
baseline that analysis.random_baseline streams, the per-record lemma double
sums, pointwise Boolean-function evaluation, the binary digits of an
index, the two QAM maps written out per modulation, pointwise offset
values and component sequences, and the float value of a lattice point.  The library computes each
of these once, in a batched kernel; the tests compare the two.
correlation_sums_batch, the per-shift loop over any sequence pairs, is the
reference of the library's one correlation kernel, coset_correlation_sums,
whose two shifts two_shifts reads off the loop's n, and
autocorrelation_sums, that loop over a pair and itself, the reference of
analysis.autocorrelation_sums.  star_rows is the
literal star sum over many records at once, for checks that cover a
whole family, distinct_rows counts a family's distinct symbol rows by
hashing every one of them, and l1_row_sums takes the 16-QAM lemma's full
double sum |sum_u T(u)| of many rows from row sums, the weaker claim that
the library's per-shift L1, max_u |T(u)|, implies.
codeword_doc is the JSON document of one codeword built field by field from
the pointwise components and QAM maps, the reference for the CLI's block
renderer.

coefficient_matrix is every coefficient row at once, the whole base-4
counter that algebra.coefficient_rows generates a slice at a time, and
orbit_rows its constant-0 rows, one per constant orbit.
parameter_grid is the family's record order as a plain tuple walk.
full_family_blocks is the family walk over every coefficient row, all four
constants of each orbit included, one block per pi; full_family_pmeprs takes
the PMEPR of every record over it.  The library walks one row per orbit of
zeta^c, conjugation, reversal and the quarter shift and weights it.
family_rows generates the cells of family_cells one row per constant
orbit, family_blocks builds their blocks, and run_cells lists the cells of
the orbit walk's runs.
image_rows writes the conjugation and reversal of a record's coefficient
row out from their formulas, for the test that the library's offset
permutations complete them.  conjugation_reversal_peps is the refinement
without the quarter-shift images, for the negative controls that need it.

The library scores every offset of a cell at once, through one
factored correlation of the cell's base rows.  The reference scores one
offset at a time, from the explicit sequences and their companions:
offset_block builds one (pi, offset) block straight from offset_values,
audit_block scores it alone, lemma_terms correlates every lemma pair of
one offset for that offset alone and lemma_residuals reduces them;
offset_bound_audit, full_bound_audit and offset_lemma_sweep fold them over
a family.  The walk takes each codeword's sums from its components' terms
(the component identity); direct_codeword_sums correlates the codewords
themselves, at every shift.

traced_peak is the tracemalloc peak of one call, for the tests' memory
bounds.
"""

from __future__ import annotations

import functools
import itertools
import tracemalloc
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np

from qamseq import analysis, constructions
from qamseq.algebra import (
    ZETA_INT,
    bit_matrix,
    canonical_permutations,
    coefficient_rows,
)
from qamseq.analysis import (
    golay_defect,
    pep_batch,
    polyphase_lattice,
    star_sum,
)
from qamseq.constellation import Scale, qam_lattice
from qamseq.constructions import (
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset,
    Offset16,
    Offset64,
    OffsetKind,
    build_block,
    companion_sign,
    family_cells,
    family_size,
    form_values,
    offset_forms,
    offset_kind,
    orbit_runs,
)
from qamseq.gbf import PathQuadratic, base_rows
from qamseq.verification import STAR_TOL, BoundAuditReport, KindStats

# ---------------------------------------------------------------------------
# the int64 record form of a codeword
# ---------------------------------------------------------------------------


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

    def lattice(self) -> np.ndarray:
        """The complex128 Gaussian integers re + i*im, the library's form."""
        return self.re + 1j * self.im

    def to_complex(self) -> np.ndarray:
        return self.lattice() / np.sqrt(self.scale.value)

    def energy(self) -> Fraction:
        """Sum of squared magnitudes, exact."""
        total = int(np.sum(self.re.astype(object) ** 2 + self.im.astype(object) ** 2))
        return Fraction(total, self.scale.value)


@dataclass(frozen=True, eq=False)
class CodewordRecord:
    """A constructed codeword, its primed companion and its unprimed
    quaternary components ((D, E) or (D, F, G))."""

    params: ConstructionParams
    sequence: ComplexSequence
    primed_sequence: ComplexSequence
    components: tuple[np.ndarray, ...]


def block_records(block: FamilyBlock) -> Iterator[CodewordRecord]:
    """The records of one block in grid order (row, then offset); their
    arrays are row views into int64 (re, im) pairs made once per block."""
    m, pi, scale = block.m, block.pi, block.scale
    (re, im), (primed_re, primed_im) = (
        (z.real.astype(np.int64), z.imag.astype(np.int64))
        for z in (block.symbols, block.symbols * block.companion_sign)
    )
    comps = [block.offset_components(o) for o in range(len(block.offsets))]
    for j, row in enumerate(block.coeffs.tolist()):
        base = PathQuadratic(m=m, pi=pi, linear=tuple(row[:m]), constant=row[m])
        for o, offset in enumerate(block.offsets):
            yield CodewordRecord(
                params=ConstructionParams(base=base, offset=offset),
                sequence=ComplexSequence(re[o, j], im[o, j], scale),
                primed_sequence=ComplexSequence(primed_re[o, j], primed_im[o, j], scale),
                components=tuple(c[j] for c in comps[o]),
            )


def build_record(params: ConstructionParams) -> CodewordRecord:
    """The record of one codeword: that of its one-row block."""
    return next(block_records(constructions.build(params)))


def library_star(a: ComplexSequence, b: ComplexSequence) -> float:
    """analysis.star of two record sequences."""
    return analysis.star(a.lattice(), b.lattice(), a.scale.value)


def library_pmepr(a: ComplexSequence, oversample: int = 16) -> float:
    """analysis.pmepr of a record sequence."""
    return analysis.pmepr(a.to_complex(), oversample)

# ---------------------------------------------------------------------------
# indices, constellations, Boolean functions
# ---------------------------------------------------------------------------


def bits_of(i: int, m: int) -> tuple[int, ...]:
    """Binary digits (i_0, ..., i_{m-1}) of i, MSB first.

    Raises ValueError unless 0 <= i < 2**m.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= i < (1 << m):
        raise ValueError(f"index {i} out of range for m={m}")
    return tuple((i >> (m - 1 - k)) & 1 for k in range(m))


def index_of(bits: tuple[int, ...]) -> int:
    """Inverse of bits_of: MSB-first digits back to the integer index."""
    i = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {bits!r}")
        i = (i << 1) | b
    return i


# zeta^v for v in Z4 as int64 lookup arrays, built here from the pair table
_ZETA_RE, _ZETA_IM = np.array(ZETA_INT, dtype=np.int64).T


class LatticeSymbol(NamedTuple):
    re_int: int
    im_int: int
    scale: Scale


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


def to_complex(p: LatticeSymbol) -> complex:
    """The unit-average-energy complex value of one lattice point."""
    d = np.sqrt(p.scale.value)
    return complex(p.re_int / d, p.im_int / d)


def squared_magnitude(p: LatticeSymbol) -> Fraction:
    return Fraction(p.re_int**2 + p.im_int**2, p.scale.value)


def average_energy(scale: Scale) -> Fraction:
    """Mean squared magnitude over the full grid; 1 for every scale."""
    if scale is Scale.UNIT:
        points = [LatticeSymbol(*ZETA_INT[v], Scale.UNIT) for v in range(4)]
    elif scale is Scale.QAM16:
        points = [qam16_map(u, v) for u in range(4) for v in range(4)]
    else:
        points = [qam64_map(u, v, w) for u in range(4) for v in range(4) for w in range(4)]
    return sum((squared_magnitude(p) for p in points), Fraction(0)) / len(points)


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
    """The Z4 sequence of f: evaluate at the bits of every index 0 .. n-1."""
    return np.array([evaluate(f, bits_of(i, f.m)) for i in range(1 << f.m)], dtype=np.int64)


def primed(f: PathQuadratic) -> PathQuadratic:
    """Companion function f + 2*x_{pi(m-1)} (adds 2 to the last path coefficient)."""
    lin = list(f.linear)
    lin[f.m - 1] = (lin[f.m - 1] + 2) % 4
    return replace(f, linear=tuple(lin))


def polyphase(values: np.ndarray) -> ComplexSequence:
    """Unit-scale lattice sequence zeta^values for a Z4-valued sequence."""
    v = np.asarray(values, dtype=np.int64) % 4
    return ComplexSequence(re=_ZETA_RE[v], im=_ZETA_IM[v], scale=Scale.UNIT)


def offset16_eval(o: Offset16, x: tuple[int, ...], pi: tuple[int, ...]) -> int:
    """Offset value s(x) = 2*x_{pi(0)}x_{pi(1)} + d1*x_{pi(0)} + d2*x_{pi(1)} + d3."""
    x0, x1 = x[pi[0]], x[pi[1]]
    return (2 * x0 * x1 + o.d1 * x0 + o.d2 * x1 + o.d3) % 4


def offset_eval(o: Offset, x: tuple[int, ...], pi: tuple[int, ...]) -> tuple[int, ...]:
    """Each component offset at one bit vector x: (s,) for 16-QAM; (s1, s2)
    for 64-QAM, where type 1 has s1 = h1*x_{pi(0)} + h3 and s2 = s of d, and
    type 2 has s1 = s of d and s2 = 2*x_{pi(0)}x_{pi(1)} + h1*x_{pi(0)}
    + h2*x_{pi(1)} + h3."""
    if isinstance(o, Offset16):
        return (offset16_eval(o, x, pi),)
    x0, x1 = x[pi[0]], x[pi[1]]
    s_d = offset16_eval(o.d, x, pi)
    if o.kind is OffsetKind.TYPE1:
        return ((o.h1 * x0 + o.h3) % 4, s_d)
    return (s_d, (2 * x0 * x1 + o.h1 * x0 + o.h2 * x1 + o.h3) % 4)


def offset_values(offset: Offset, m: int, pi: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """(n,) uint8 vector of each component offset over all indices: the
    library's form_values of the offset's forms."""
    return tuple(form_values(offset_forms(offset), m, pi))


def components(params: ConstructionParams) -> tuple[np.ndarray, ...]:
    """(D, E) or (D, F, G) pointwise: D = psi(base), and each further
    component D plus one component offset of offset_eval."""
    f, pi = params.base, params.base.pi
    d = psi(f)
    offsets = np.array([offset_eval(params.offset, bits_of(i, f.m), pi) for i in range(1 << f.m)])
    return (d, *((d + s) % 4 for s in offsets.T))


# ---------------------------------------------------------------------------
# the family walk over every coefficient row
# ---------------------------------------------------------------------------


def coefficient_matrix(m: int) -> np.ndarray:
    """(4^(m+1), m+1) uint8 array of all coefficient tuples, counter order:
    the whole-counter reference of algebra.coefficient_rows.

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


def orbit_rows(m: int) -> np.ndarray:
    """The 4^m constant-0 rows of coefficient_matrix(m), one per constant
    orbit, taken from the whole matrix."""
    return coefficient_matrix(m)[::constructions.ORBIT_SIZE]  # the constant varies fastest


def parameter_grid(
    m: int, modulation: Modulation
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, Offset]]:
    """(pi, linear, constant, offset) of every record in enumeration order:
    pi lexicographic, coefficients as a base-4 counter (constant fastest),
    then offset list order."""
    offsets = constructions._offset_list(modulation)
    for pi in canonical_permutations(m):
        for row in coefficient_matrix(m):
            for off in offsets:
                yield pi, tuple(int(v) for v in row[:m]), int(row[m]), off


def full_family_blocks(
    fn: Callable[[FamilyBlock], object], m: int, modulation: Modulation
) -> list:
    """fn(block) for one block per pi, every offset in list order, each block
    over all 4^(m+1) rows of coefficient_matrix(m): every constant of every
    orbit, constant fastest."""
    coeffs = coefficient_matrix(m)
    offsets = constructions._offset_list(modulation)
    return [fn(build_block(m, pi, offsets, coeffs)) for pi in canonical_permutations(m)]


def family_rows(m: int, per_row: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """(pi, rows) of each cell of family_cells, one row per constant orbit:
    the rows of the envelope audit's blocks."""
    return ((pi, coefficient_rows(m, *span, constructions.ORBIT_SIZE))
            for pi, span in family_cells(m, per_row))


def family_blocks(m: int, modulation: Modulation) -> list[FamilyBlock]:
    """One block per cell of family_cells at the symbols of every offset,
    each of every offset in list order over its orbit rows: the blocks of
    verification.envelope_audit."""
    offsets = constructions._offset_list(modulation)
    cells = family_rows(m, (1 << m) * len(offsets))
    return [build_block(m, pi, offsets, rows) for pi, rows in cells]


def run_cells(m: int, per_row: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """The (pi, rows) cells of constructions.orbit_runs(m, per_row), run
    after run."""
    return itertools.chain.from_iterable(orbit_runs(m, per_row))


def full_bound_audit(m: int, modulation: Modulation, oversample: int = 16) -> BoundAuditReport:
    """The bound audit over every coefficient row, scored by audit_block one
    (pi, offset) block at a time, each record counted once."""
    return offset_bound_audit(m, modulation, coefficient_matrix(m), 1, oversample)


def _block_pmeprs(block: FamilyBlock, oversample: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The offset kinds of a block, and its (offsets, rows) PMEPRs."""
    z = block.complex_symbols().reshape(-1, 1 << block.m)
    return block.kinds, (pep_batch(z, oversample) / (1 << block.m)).reshape(len(block.offsets), -1)


def full_family_pmeprs(
    m: int, modulation: Modulation, oversample: int = 16
) -> dict[str, np.ndarray]:
    """The PMEPR of every record over full_family_blocks, grouped by offset
    kind: the per-record walk that cli.family_pmeprs weights."""
    grouped: dict[str, list[np.ndarray]] = {}
    pmeprs = functools.partial(_block_pmeprs, oversample=oversample)
    for kinds, values in full_family_blocks(pmeprs, m, modulation):
        for kind, row_values in zip(kinds, values):
            grouped.setdefault(kind, []).append(row_values)
    return {kind: np.concatenate(vals) for kind, vals in grouped.items()}


def conjugation_reversal_peps(z, peps, near, oversample):
    """analysis.orbit_peps without the quarter-shift images, a negative
    control: on a near row the row and its conjugation x reversal images
    are computed, each standing for its 4 quarter shifts."""
    (rows,) = np.nonzero(near)
    own = z[rows]
    extra = pep_batch(np.concatenate([np.conj(own), own[:, ::-1], np.conj(own[:, ::-1])]), oversample)
    shifts = constructions.SHIFT_ORBIT_SIZE
    images = np.where(near, shifts, constructions.FULL_ORBIT_SIZE // constructions.ORBIT_SIZE)
    return (np.concatenate([peps, extra]),
            np.concatenate([images, np.full(len(extra), shifts)]),
            np.concatenate([np.arange(len(peps)), np.tile(rows, 3)]))


def image_rows(coeffs: np.ndarray, m: int, path_ends: bool = True) -> tuple[np.ndarray, ...]:
    """The coefficient rows (c_0 .. c_{m-1}, c) of the conjugation and of the
    reversal image of each row of coeffs: (-c_l, -c), and (-c_l + 2*[l in {0,
    m-1}], c + sum c_l + 2(m-1)), each mod 4.  path_ends=False drops the
    2*[l in {0, m-1}] term (a negative control)."""
    c = coeffs.astype(np.int64)
    conj = -c % 4
    rev = -c
    if path_ends:
        rev[:, [0, m - 1]] += 2
    rev[:, m] = c[:, m] + c[:, :m].sum(axis=1) + 2 * (m - 1)
    return conj, rev % 4


# ---------------------------------------------------------------------------
# one (pi, offset) block at a time: the reference of the cell scorers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OffsetBlock:
    """One offset over coefficient rows of one pi: its components ((D, E) or
    (D, F, G)), each built straight from offset_values, and their (rows, n)
    lattice symbols."""

    m: int
    pi: tuple[int, ...]
    offset: Offset
    coeffs: np.ndarray
    components: tuple[np.ndarray, ...]
    symbols: np.ndarray
    scale: Scale

    @property
    def kind(self) -> str:
        return offset_kind(self.offset)


def offset_block(m: int, pi: tuple[int, ...], offset: Offset, coeffs: np.ndarray) -> OffsetBlock:
    base = base_rows(m, pi, coeffs)
    comps = (base, *((base + s) % 4 for s in offset_values(offset, m, pi)))
    symbols, scale = qam_lattice(*comps)
    return OffsetBlock(m, pi, offset, coeffs, comps, symbols, scale)


def audit_block(block: OffsetBlock, oversample: int, weight: int) -> KindStats:
    """The audit tally of one offset block, each row counted weight times:
    its own star, PMEPR, Golay defect of D and component stars."""
    n = 1 << block.m
    sign = companion_sign(block.m, block.pi)
    z = block.symbols
    star_over_n = star_sum(autocorrelation_sums(z, z * sign)) / block.scale.value / n
    pmeprs = pep_batch(block.symbols / np.sqrt(block.scale.value), oversample) / n
    sums = []
    for component in block.components:
        c = polyphase_lattice(component)
        sums.append(autocorrelation_sums(c, c * sign))
    component_ok = all(bool(np.all(star_sum(s) <= 4 * n + STAR_TOL)) for s in sums[1:])
    if block.kind == "type1":
        component_ok &= int(np.max(golay_defect(sums[1]))) == 0
    return KindStats(
        kind=block.kind,
        total=weight * len(block.coeffs),
        min_star_over_n=float(np.min(star_over_n)),
        max_star_over_n=float(np.max(star_over_n)),
        max_pmepr=float(np.max(pmeprs)),
        golay_defect=int(np.max(golay_defect(sums[0]))),
        component_ok=component_ok,
        pmepr_le_star=bool(np.all(pmeprs <= star_over_n + STAR_TOL)),
    )


def offset_bound_audit(
    m: int, modulation: Modulation, coeffs: np.ndarray, weight: int, oversample: int = 16
) -> BoundAuditReport:
    """theorem_bound_audit one (pi, offset) block at a time, each over the
    coeffs rows of its pi and each row counted weight times."""
    kinds: dict[str, KindStats] = {}
    for pi in canonical_permutations(m):
        for off in constructions._offset_list(modulation):
            stats = audit_block(offset_block(m, pi, off, coeffs), oversample, weight)
            kinds[stats.kind] = kinds[stats.kind] + stats if stats.kind in kinds else stats
    kinds_in_order = tuple(kinds[k] for k in sorted(kinds))
    return BoundAuditReport(m, modulation, oversample, family_size(m, modulation), kinds_in_order)


def _lemma_terms(base_all: np.ndarray, svals: np.ndarray, sign: np.ndarray) -> tuple:
    """The (4, rows, n) stacks a, b whose correlation sums over k, per row of
    base_all, are T(u), the inner sum of the cross-term double sum at shift u:
    with P = zeta^(B+s), Q = zeta^B, the companion sign g and
    X_{a,b}(u) = sum_i a_i conj(b_{i+u}),

        T = X_{P,Q} + X_{Q,P} + X_{gP,gQ} + X_{gQ,gP},   T(-u) = conj T(u).
    """
    p, q = polyphase_lattice(base_all.astype(np.int64) + svals), polyphase_lattice(base_all)
    return np.stack([p, q, sign * p, sign * q]), np.stack([q, p, sign * q, sign * p])


def lemma_terms(
    base_all: np.ndarray, offset: Offset, m: int, pi: tuple[int, ...]
) -> list[np.ndarray]:
    """T(u), u = 0 .. n-1, per base row, of each lemma pair of one offset,
    correlated for this offset alone: (B, s) = (D, s) for a 16-QAM offset,
    and (D, s1), (D, s2) and (D + s1, s1 - s2) for a 64-QAM offset."""
    sign = companion_sign(m, pi)
    svals = [s.astype(np.int64) for s in offset_values(offset, m, pi)]
    pairs = [(base_all, s) for s in svals]
    if isinstance(offset, Offset64):
        s1, s2 = svals
        pairs.append(((base_all + s1) % 4, (s1 - s2) % 4))
    return [correlation_sums_batch(*_lemma_terms(b, s, sign)) for b, s in pairs]


def lemma_residuals(
    base_all: np.ndarray, offset: Offset, m: int, pi: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Every lemma residual of one offset, per base row, from its lemma_terms:
    L1 = max_u |T(u)| for a 16-QAM offset, L2a-c for a type 1 and L3a-c for
    a type 2 64-QAM offset."""
    terms = lemma_terms(base_all, offset, m, pi)
    if isinstance(offset, Offset16):
        (t,) = terms
        return {"L1": np.sqrt(np.max(t.real**2 + t.imag**2, axis=1))}
    t12, t13, t23 = terms
    if offset.kind is OffsetKind.TYPE1:
        prefix, r12 = "L2", np.sum(np.abs(t12[:, 1:]), axis=1)
    else:
        prefix, r12 = "L3", star_sum(t12)
    residuals = (_A1A2 * r12, _A1A3 * star_sum(t13), _A2A3 * star_sum(t23))
    return {prefix + part: r for part, r in zip("abc", residuals)}


def offset_lemma_sweep(m: int) -> tuple[dict[str, float], dict[str, int]]:
    """(maxima, evaluation counts) of lemma_sweep, one offset at a time."""
    maxima: dict[str, float] = {}
    counts: dict[str, int] = {}
    offsets = constructions._offset_list(Modulation.QAM16) + constructions._offset_list(
        Modulation.QAM64
    )
    for pi, rows in family_rows(m, 1 << m):
        base_all = base_rows(m, pi, rows)
        for off in offsets:
            for key, residuals in lemma_residuals(base_all, off, m, pi).items():
                maxima[key] = max(maxima.get(key, 0.0), float(np.max(residuals)))
                counts[key] = counts.get(key, 0) + int(residuals.size)
    return maxima, counts


def row_free(sequences: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The (terms, n) sequences x_k with sequences[k, r] = units[r] * x_k on
    every row r, from (terms, rows, n) sequences and (rows, n) unit sequences
    zeta^(D_r).  Raises ValueError when a term is not one such x_k on every
    row: coset_correlation_sums would then correlate some other sequence."""
    x = sequences * np.conj(units)
    if not np.array_equal(x, np.broadcast_to(x[:, :1], x.shape)):
        raise ValueError("a sequence is not zeta^D times one row-free sequence on every row")
    return x[:, 0]


def synthesized_symbols(block: FamilyBlock) -> np.ndarray:
    """The (offsets, rows, n) lattice points of every codeword of a block by
    the paper's synthesis: qam_lattice over its components (D, D + s_j..),
    each offset's built from base_rows and form_values, not from the
    block's row-free values."""
    base = base_rows(block.m, block.pi, block.coeffs).astype(np.int64)
    return np.stack([
        qam_lattice(base, *(base + form_values(offset_forms(off), block.m, block.pi)[:, None]))[0]
        for off in block.offsets])


def direct_codeword_sums(block: FamilyBlock) -> np.ndarray:
    """The (offsets, rows, n) sums C_H(u) + C_H'(u), u >= 0, of every
    codeword of a block, each correlated as the one sequence it is: the
    codeword rebuilt by synthesized_symbols, correlated with its companion
    by the per-shift loop autocorrelation_sums, at every shift.  The
    reference of the walk's component identity and of the two-shift
    kernel; it never reads the block's parts."""
    z = synthesized_symbols(block)
    flat = z.reshape(-1, z.shape[-1])
    return autocorrelation_sums(flat, flat * block.companion_sign).reshape(z.shape)


def two_shifts(sums: np.ndarray, pi: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(at, rest): the columns u = 0 and u0 = 2^(m-1-pi(0)) of (..., n)
    per-shift sums, the shifts analysis.coset_correlation_sums gives, and
    every other column, which the kernel takes for 0."""
    n = sums.shape[-1]
    u0 = n >> (pi[0] + 1)
    rest = np.ones(n, bool)
    rest[[0, u0]] = False
    return sums[..., [0, u0]], sums[..., rest]


def distinct_rows(m: int, modulation: Modulation) -> tuple[int, int]:
    """(distinct symbol rows, records) over the whole family, every row hashed."""
    def rows(block):
        sym = np.concatenate([block.symbols.real, block.symbols.imag], axis=2).astype(np.int8)
        return {row.tobytes() for row in sym.reshape(len(block), -1)}, len(block)

    seen, total = set(), 0
    for block_rows, count in full_family_blocks(rows, m, modulation):
        seen |= block_rows
        total += count
    return len(seen), total


# ---------------------------------------------------------------------------
# correlation and envelope, one sequence at a time
# ---------------------------------------------------------------------------


def correlation_sums_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact sum over k of X_{a_k,b_k}(u) for u = 0 .. n-1, rows batched,
    where X_{a,b}(u) = sum_i a_i * conj(b_{i+u}), one shift at a time: the
    reference of analysis.coset_correlation_sums.

    a and b are (K, B, n) arrays of Gaussian integers (integer or complex
    dtype): K sequence pairs per row.  The output is (B, n) complex128.
    Every product and partial sum is a Gaussian integer, and complex128
    holds those exactly while their parts stay below 2^53; here they are at
    most K * n * max|a| * max|b|: 2 * 32 * 98 for a 64-QAM star at m = 5.
    """
    a = np.asarray(a, dtype=complex)
    b_conj = np.conj(np.asarray(b, dtype=complex))
    n = a.shape[-1]
    sums = np.empty(a.shape[1:], dtype=complex)
    for u in range(n):
        sums[:, u] = np.einsum("kbi,kbi->b", a[:, :, : n - u], b_conj[:, :, u:])
    return sums


def autocorrelation_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_a(u) + C_b(u) for u = 0 .. n-1 per row of (B, n) lattice arrays, from
    correlation_sums_batch of the pair (a, b) with itself: the reference of
    analysis.autocorrelation_sums."""
    pair = np.stack([a, b])
    return correlation_sums_batch(pair, pair)


@dataclass(frozen=True, eq=False)
class CorrelationProfile:
    """C(u) for u in [-(n-1), n-1] as exact integer pairs over a denominator.

    Index u + (n - 1) addresses shift u.  value(0) is real and equals the
    total sequence energy.
    """

    n: int
    num_re: np.ndarray
    num_im: np.ndarray
    denominator: int

    def value(self, u: int) -> complex:
        if not -self.n < u < self.n:
            return 0j
        k = u + self.n - 1
        return complex(self.num_re[k], self.num_im[k]) / self.denominator


def autocorr(a: ComplexSequence) -> CorrelationProfile:
    """Aperiodic autocorrelation, both shift signs evaluated from definition.

    C(u) = sum_{i=0}^{n-1-u} A_i * conj(A_{i+u}) for 0 <= u < n and
    C(u) = sum_{i=0}^{n-1+u} A_{i-u} * conj(A_i) for -n < u < 0.
    """
    n = len(a)
    re, im = a.re, a.im
    num_re = np.zeros(2 * n - 1, dtype=np.int64)
    num_im = np.zeros(2 * n - 1, dtype=np.int64)
    for u in range(n):
        head_re, head_im = re[: n - u], im[: n - u]
        tail_re, tail_im = re[u:], im[u:]
        num_re[u + n - 1] = np.sum(head_re * tail_re + head_im * tail_im)
        num_im[u + n - 1] = np.sum(head_im * tail_re - head_re * tail_im)
    for u in range(-(n - 1), 0):
        lead_re, lead_im = re[-u:], im[-u:]
        base_re, base_im = re[: n + u], im[: n + u]
        num_re[u + n - 1] = np.sum(lead_re * base_re + lead_im * base_im)
        num_im[u + n - 1] = np.sum(lead_im * base_re - lead_re * base_im)
    return CorrelationProfile(n=n, num_re=num_re, num_im=num_im, denominator=a.scale.value)


def star(a: ComplexSequence, b: ComplexSequence) -> float:
    """sum over every shift of |C_a(u) + C_b(u)|, literal full-range sum."""
    ca, cb = autocorr(a), autocorr(b)
    tot_re = ca.num_re + cb.num_re
    tot_im = ca.num_im + cb.num_im
    return float(np.sum(np.hypot(tot_re, tot_im)) / a.scale.value)


def _autocorr_rows(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """autocorr for every row of (R, n) integer arrays at once: (R, 2n-1)
    numerators, column u + n - 1 for shift u, each shift sign from its own
    definition."""
    r, n = re.shape
    num_re = np.zeros((r, 2 * n - 1), dtype=np.int64)
    num_im = np.zeros((r, 2 * n - 1), dtype=np.int64)
    for u in range(n):
        head_re, head_im = re[:, : n - u], im[:, : n - u]
        tail_re, tail_im = re[:, u:], im[:, u:]
        num_re[:, u + n - 1] = np.sum(head_re * tail_re + head_im * tail_im, axis=1)
        num_im[:, u + n - 1] = np.sum(head_im * tail_re - head_re * tail_im, axis=1)
    for u in range(-(n - 1), 0):
        lead_re, lead_im = re[:, -u:], im[:, -u:]
        base_re, base_im = re[:, : n + u], im[:, : n + u]
        num_re[:, u + n - 1] = np.sum(lead_re * base_re + lead_im * base_im, axis=1)
        num_im[:, u + n - 1] = np.sum(lead_im * base_re - lead_re * base_im, axis=1)
    return num_re, num_im


def star_rows(
    re_a: np.ndarray, im_a: np.ndarray, re_b: np.ndarray, im_b: np.ndarray, denominator: int
) -> np.ndarray:
    """star for every row pair of (R, n) integer arrays: the literal
    full-range sum of star, summed in the same order."""
    ca_re, ca_im = _autocorr_rows(re_a, im_a)
    cb_re, cb_im = _autocorr_rows(re_b, im_b)
    return np.sum(np.hypot(ca_re + cb_re, ca_im + cb_im), axis=1) / denominator


def pep(a: ComplexSequence, oversample: int = 16) -> float:
    """Peak of |S(t_k)|^2, S(t_k) = sum_i A_i exp(2*pi*j*i*k/(L*n)), from one
    1-d FFT of this sequence alone."""
    grid = oversample * len(a)
    return float(np.max(np.abs(np.fft.ifft(a.to_complex(), n=grid) * grid) ** 2))


def pmepr(a: ComplexSequence, oversample: int = 16) -> float:
    return pep(a, oversample) / len(a)


def random_baseline(n: int, modulation: Modulation, count: int, seed: int) -> np.ndarray:
    """The (count, n) complex uncoded reference ensemble in one piece: one
    integers draw of every component from default_rng(seed), in order, and
    the lattice points of all of them at once."""
    rng = np.random.default_rng(seed)
    components = (rng.integers(0, 4, size=(count, n)).astype(np.uint8)
                  for _ in range(modulation.components))
    points, scale = qam_lattice(*components)
    return points / np.sqrt(scale.value)


# ---------------------------------------------------------------------------
# lemma residuals, one record at a time
# ---------------------------------------------------------------------------

_ZC = np.array([complex(*z) for z in ZETA_INT])

# cross-term weights a1*a2, a1*a3, a2*a3 with (a1, a2, a3) = (4, 2, 1)/sqrt(21)
_A1A2 = 8.0 / 21.0
_A1A3 = 4.0 / 21.0
_A2A3 = 2.0 / 21.0


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    params: ConstructionParams
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual == 0


def _last_bits(m: int, pi: tuple[int, ...]) -> np.ndarray:
    return bit_matrix(m)[:, pi[m - 1]].astype(np.int64)


def _cross_inner(base: np.ndarray, svals: np.ndarray, last_bits: np.ndarray, u: int) -> complex:
    """Inner sum over index pairs (i, i+u), both in range, for one shift u."""
    n = base.size
    lo, hi = max(0, -u), min(n, n - u)
    i = np.arange(lo, hi)
    k = i + u
    weight = np.where(last_bits[i] == last_bits[k], 2.0, 0.0)
    term = _ZC[(base[i] - base[k]) % 4] * (_ZC[svals[i] % 4] + _ZC[(-svals[k]) % 4])
    return complex(np.sum(term * weight))


def lemma1_residual(params: ConstructionParams) -> float:
    """max over every shift u of |inner sum at u| for the 16-QAM cross term:
    0 for valid offsets, at every shift, hence also for the full double sum."""
    if not isinstance(params.offset, Offset16):
        raise ValueError("lemma 1 oracle needs an Offset16")
    m, pi = params.m, params.base.pi
    base = psi(params.base).astype(np.int64)
    (svals,) = (s.astype(np.int64) for s in offset_values(params.offset, m, pi))
    lb = _last_bits(m, pi)
    n = base.size
    return max(abs(_cross_inner(base, svals, lb, u)) for u in range(1 - n, n))


def _three_residuals(
    params: ConstructionParams, first_from_one: bool
) -> tuple[float, float, float]:
    """The weighted a1a2 / a1a3 / a2a3 absolute-sum expressions; the a1a2 sum
    ranges over u >= 1 when first_from_one is set."""
    m, pi = params.m, params.base.pi
    s1, s2 = (s.astype(np.int64) for s in offset_values(params.offset, m, pi))
    base = psi(params.base).astype(np.int64)
    lb = _last_bits(m, pi)
    n = base.size
    comp = (base + s1) % 4
    s3 = (s1 - s2) % 4
    u_first = range(1, n) if first_from_one else range(1 - n, n)
    r12 = _A1A2 * sum(abs(_cross_inner(base, s1, lb, u)) for u in u_first)
    r13 = _A1A3 * sum(abs(_cross_inner(base, s2, lb, u)) for u in range(1 - n, n))
    r23 = _A2A3 * sum(abs(_cross_inner(comp, s3, lb, u)) for u in range(1 - n, n))
    return r12, r13, r23


def lemma2_residuals(params: ConstructionParams) -> tuple[float, float, float]:
    """Type 1 cross-term residuals (a1a2 over u>=1, a1a3 and a2a3 over all u)."""
    if not isinstance(params.offset, Offset64) or params.offset.kind is not OffsetKind.TYPE1:
        raise ValueError("lemma 2 oracle needs a type 1 Offset64")
    return _three_residuals(params, first_from_one=True)


def lemma3_residuals(params: ConstructionParams) -> tuple[float, float, float]:
    """Type 2 cross-term residuals, all three over the full shift range."""
    if not isinstance(params.offset, Offset64) or params.offset.kind is not OffsetKind.TYPE2:
        raise ValueError("lemma 3 oracle needs a type 2 Offset64")
    return _three_residuals(params, first_from_one=False)


def l1_row_sums(
    base_all: np.ndarray, offset: Offset16, m: int, pi: tuple[int, ...]
) -> np.ndarray:
    """|sum over every shift of T(u)|, the lemma's full double sum, for every
    row of base_all from row sums: summed over every shift, X_{a,b} is
    (sum a) * conj(sum b), so the sum of T over every shift is the real
    number sum_k (sum a_k) * conj(sum b_k) of _lemma_terms.  The sweep's L1,
    max_u |T(u)|, is 0 only where this is."""
    (svals,) = (s.astype(np.int64) for s in offset_values(offset, m, pi))
    a, b = _lemma_terms(base_all, svals, companion_sign(m, pi))
    return np.abs(np.sum(a.sum(axis=2) * np.conj(b.sum(axis=2)), axis=0).real)


def lemma_reports(params: ConstructionParams) -> list[LemmaReport]:
    """Every applicable lemma residual for one parameter set."""
    if isinstance(params.offset, Offset16):
        return [LemmaReport("L1", params, lemma1_residual(params))]
    if params.offset.kind is OffsetKind.TYPE1:
        ids, vals = ("L2a", "L2b", "L2c"), lemma2_residuals(params)
    else:
        ids, vals = ("L3a", "L3b", "L3c"), lemma3_residuals(params)
    return [LemmaReport(i, params, v) for i, v in zip(ids, vals)]


# ---------------------------------------------------------------------------
# the codeword document, one record at a time
# ---------------------------------------------------------------------------


def _offset_doc(o: Offset) -> dict:
    if isinstance(o, Offset16):
        return {"d1": o.d1, "d2": o.d2, "d3": o.d3}
    return {"kind": o.kind.value, "d1": o.d.d1, "d2": o.d.d2, "d3": o.d.d3,
            "h1": o.h1, "h2": o.h2, "h3": o.h3}


def _lattice(comps: tuple[np.ndarray, ...]) -> ComplexSequence:
    """The QAM sequence of components, one qam16_map or qam64_map per index."""
    qam = qam16_map if len(comps) == 2 else qam64_map
    points = [qam(*(int(c[i]) for c in comps)) for i in range(comps[0].size)]
    return ComplexSequence([p.re_int for p in points], [p.im_int for p in points], points[0].scale)


def codeword_doc(
    params: ConstructionParams,
    oversample: int = 16,
    star_of: Callable = library_star,
    pmepr_of: Callable = library_pmepr,
) -> dict:
    """The JSON document of one codeword as a dict, field by field: the
    pointwise components of params and of its primed companion, their QAM
    sequences, and the star and PMEPR that star_of and pmepr_of give them
    (the library's one-row kernels unless the literal star and pmepr here
    are passed)."""
    comps = components(params)
    seq = _lattice(comps)
    primed_seq = _lattice(components(replace(params, base=primed(params.base))))
    star_value = star_of(seq, primed_seq)
    n = len(seq)
    return {
        "format": "qamseq-codeword",
        "m": params.m,
        "n": n,
        "modulation": "16qam" if isinstance(params.offset, Offset16) else "64qam",
        "pi": list(params.base.pi),
        "linear": list(params.base.linear),
        "constant": params.base.constant,
        "offset": _offset_doc(params.offset),
        "scale_denominator": seq.scale.value,
        "base": comps[0].tolist(),
        "components": [c.tolist() for c in comps[1:]],
        "symbols": [[int(re), int(im)] for re, im in zip(seq.re, seq.im)],
        "primed_symbols": [[int(re), int(im)] for re, im in zip(primed_seq.re, primed_seq.im)],
        "star": star_value,
        "star_over_n": star_value / n,
        "pmepr": pmepr_of(seq, oversample),
        "oversample": oversample,
    }


def traced_peak(work) -> int:
    """The tracemalloc peak, in bytes, of one call of work (numpy reports
    its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
