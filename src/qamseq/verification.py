"""The checks behind `qamseq verify`: lemma sweep, bound audits, envelope, examples.

The star-bound proofs rest on cross-term double sums of the shape

    sum_u sum_i zeta^(B_i - B_{i+u}) * (zeta^(s_i) + zeta^(-s_{i+u}))
               * [1 + (-1)^(lb_i - lb_{i+u})]

where B is a component sequence, s an offset sequence and lb the bit at the
path end pi(m-1).  Offsets satisfying their defining congruences make these
sums vanish.  With P = zeta^(B+s), Q = zeta^B and the companion sign
(-1)^lb, the inner sum at shift u is a sum of four cross-correlations of P,
Q and their companions, T(u), with T(-u) = conj T(u).  Every such pair is
zeta^D times row-free sequences, D the cell's base row, so the sweep takes
every T of a cell, for u >= 0, from one analysis.coset_correlation_sums
call: T of D with each distinct component form once (shared by every offset
whose s1 or s2 is that form), and the a2a3 T of each 64-QAM offset.  The
sums are exact Gaussian integers, so a residual passes only at exactly 0.
Deliberately broken offsets must light them up, otherwise the sweep proves
nothing.

The sweep scores one (row, offset) per orbit of the quarter shift,
conjugation and reversal: the rows of constructions.orbit_cells under the
offsets of constructions.orbit_offsets.  T does not depend on the constant,
which multiplies P and Q alike, so the images below may take any constant.

- The quarter shift adds i mod 4 to D, and so to B = D and to B = D + s1
  alike, while s is a function of the row-free form alone: P, Q and their
  companions all gain the factor i^i, so every P_i conj(Q_{i+u}) gains
  i^i * i^(-(i+u)) = i^(-u), and T(u) becomes i^(-u) * T(u).
- Conjugation (sigma) takes D to -D and every form s to sigma(s) = -s
  (2*x*y = -2*x*y), so P and Q become conj(P) and conj(Q); the companion
  sign is real and the same, and T(u) becomes conj T(u).
- Reversal (rho) reads index n-1-i: D reversed is the image's D plus a
  constant, every form s reversed is rho(s) exactly, and the companion
  sign reversed is its negative, which cancels in gP conj(gQ).  With
  sum_i a_(n-1-i) conj(b_(n-1-i-u)) = X_{a,b}(-u) = conj X_{b,a}(u), and T
  symmetric in P and Q, T(u) becomes conj T(u).  The a2a3 pair, with
  row-free parts zeta^(2*s1 - s2) and zeta^(s1), goes the same way, as
  offset_symmetries maps s1 and s2 form by form.

So on the 16 (row, offset) pairs of an orbit T(u) is T(u) or conj T(u)
times a unit, a Gaussian integer whose real and imaginary parts are those
of T(u) up to order and sign: |T(u)| is the same bit for bit on all 16,
at every shift u.  Every residual is a function of the |T(u)| in a fixed
order of shifts: L1 is their maximum, the check that T vanishes at every
shift, which implies the lemma's |sum_u T(u)| = 0 (that sum is not
invariant: its terms turn by i^(-u)), and the others are weighted sums of
them.  The type 1 a1a2 sum keeps its range u >= 1: no map moves a shift
(each acts at u itself), so the range is the same on every image, and it
leaves out the zero-shift term, which for type 1 is genuinely nonzero and
belongs to the bound, not to the cancellation claim.  So each (row,
offset)'s residuals are those of its whole orbit, and each counts for
FULL_ORBIT_SIZE // ORBIT_SIZE = 16 evaluations, one per linear part and
offset of the orbit.

The bound audit sweeps entire families and checks, per codeword: the star
ceiling, the oversampled PMEPR ceiling, pmepr <= star/n, exact Golay
cancellation of the base pair, and the component star ceilings.  It scores
each FULL_ORBIT_SIZE-record orbit of zeta^c, conjugation, reversal and the
quarter shift once, on the row of its offset in constructions.orbit_offsets
with constant 0 and c_{pi^-1(m-1)} = 0, which counts for the 64 records of
the orbit (the constructions docstring says why they agree).  Their stars
agree exactly; their PMEPRs may differ in the last bits, so a row whose
PMEPR lies within analysis.pep_spread of a decision has the PMEPR of each
image computed (_audit_block).  Every companion sequence is
FamilyBlock.companion_sign times its sequence.  A block holds every orbit
offset of one cell of constructions.orbit_cells, and each component
sequence once: D, and D plus each distinct component form.  The audit reads back each codeword's and
each component's row-free sequence from what the block holds, refusing the
block if one differs between rows, and correlates all of them with their
companions in one coset_correlation_sums call per cell; the codewords' stars,
D's Golay defect and each form's star and Golay defect are reductions of
those sums.  Each block becomes the KindStats of each offset kind it holds,
read against that kind's ceiling in constructions.CEILINGS, and the report
is their sum per kind: counts add, extrema take min/max and flags AND, so
it is the same in any block order, for any cell size and for any worker
count.

The envelope checks hold the envelope kernel to Parseval and to its
oversampling rate over every constant orbit of the m=3 16-QAM family, in one
walk that computes each row's L = LOW envelope once.  A
report's passed is the AND of its own checks(), the verdicts that
`qamseq verify` prints and exits on.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .analysis import (
    coset_correlation_sums,
    coset_footprint,
    envelope_power_batch,
    golay_defect,
    near_points,
    orbit_peps,
    pep_batch,
    pep_spread,
    polyphase_lattice,
    row_free,
    shift_factors,
    star_sum,
    threshold_peps,
)
from .constellation import Scale
from .constructions import (
    CEILINGS,
    CHUNK_SYMBOLS,
    FULL_ORBIT_SIZE,
    ORBIT_SIZE,
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset,
    Offset16,
    Offset64,
    OffsetKind,
    _offset_list,
    build,
    companion_sign,
    family_size,
    form_values,
    map_family_blocks,
    map_orbit_blocks,
    offset_forms,
    orbit_cells,
    orbit_offsets,
    star_bound,
)
from .gbf import PathQuadratic, base_rows

STAR_TOL = 1e-9
PMEPR_TOL = 0.01

# cross-term weights a1*a2, a1*a3, a2*a3 with (a1, a2, a3) = (4, 2, 1)/sqrt(21)
_A1A2 = 8.0 / 21.0
_A1A3 = 4.0 / 21.0
_A2A3 = 2.0 / 21.0


@dataclass(frozen=True)
class CheckResult:
    """One verdict line: what was checked, what was seen, what was required."""

    name: str
    passed: bool
    observed: str
    requirement: str


# ---------------------------------------------------------------------------
# lemma sweep: every cross term through the one correlation kernel
# ---------------------------------------------------------------------------


def _lemma_forms(offsets: tuple[Offset, ...]) -> tuple[list, list[tuple[int, int]]]:
    """The distinct component forms of offsets, and the (s1, s2) form indices
    of each 64-QAM offset among them, in offset order."""
    forms = list(dict.fromkeys(f for off in offsets for f in offset_forms(off)))
    pairs = [tuple(forms.index(f) for f in offset_forms(off))
             for off in offsets if isinstance(off, Offset64)]
    return forms, pairs


def _lemma_residuals(
    base_all: np.ndarray, offsets: tuple[Offset, ...], m: int, pi: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Every lemma residual of each offset, per base row, as (offsets, rows)
    arrays in the order of offsets: L1 over the 16-QAM offsets, L2a-c over
    the type 1 and L3a-c over the type 2 64-QAM offsets.

    One coset_correlation_sums call gives every T of the cell: T of D with
    each distinct component form s (P = zeta^(D+s), Q = zeta^D: row-free parts
    zeta^s and 1), whose form serves the a1a2 sums of every offset with that
    s1, the a1a3 sums of every offset with that s2 and the L1 sums; and the
    a2a3 sums of each 64-QAM offset, T of D + s1 with s1 - s2 (row-free parts
    zeta^(2*s1 - s2) and zeta^(s1)).  L1 is max over every shift of |T(u)|,
    the square root of an exact integer, 0 exactly where T vanishes at every
    shift.  The others are
    weighted sums of |T(u)| over every shift, except the type 1 a1a2 sum,
    which ranges over u >= 1 (its zero-shift term is genuinely nonzero for
    type 1 offsets and belongs to the bound, not to the cancellation claim;
    the module docstring says why the orbit walk keeps that range).
    """
    return _lemma_residuals_at(offsets, m, pi)(base_all)


def _lemma_residuals_at(
    offsets: tuple[Offset, ...], m: int, pi: tuple[int, ...]
) -> Callable[[np.ndarray], dict[str, np.ndarray]]:
    """_lemma_residuals of offsets at pi as a function of the base rows: the
    factors and term indices are made once, for every cell of the pi."""
    forms, pairs = _lemma_forms(offsets)
    values = form_values(forms, m, pi).astype(np.int64)
    s1, s2 = (values[[pair[k] for pair in pairs]] for k in (0, 1))
    p = polyphase_lattice(np.concatenate([values, 2 * s1 - s2]))
    q = polyphase_lattice(np.concatenate([np.zeros_like(values), s1]))
    sign = companion_sign(m, pi)
    factors = shift_factors(p, q, sign) + shift_factors(q, p, sign)
    d_forms = [forms.index(offset_forms(off)[0]) for off in offsets if isinstance(off, Offset16)]
    kinds = [off.kind for off in offsets if isinstance(off, Offset64)]
    terms = {}  # per 64-QAM kind: the T of each offset's s1, s2 and a2a3 sums
    for kind in OffsetKind:
        chosen = [j for j, k in enumerate(kinds) if k is kind]
        if chosen:
            terms[kind] = (*np.array(pairs)[chosen].T, len(forms) + np.array(chosen))

    def cell_residuals(base_all: np.ndarray) -> dict[str, np.ndarray]:
        t = coset_correlation_sums(base_all, factors)
        # most T vanish at every shift (the lemmas' claim): their stars are 0
        # without a square root
        live = np.any(t, axis=2)
        stars = np.zeros(live.shape)
        stars[live] = star_sum(t[live])
        out = {}
        if d_forms:
            d = t[d_forms]  # |T(-u)| = |T(u)|: the shifts u >= 0 hold every |T|
            out["L1"] = np.sqrt(np.max(d.real**2 + d.imag**2, axis=2))
        side = np.sum(np.abs(t[: len(forms), :, 1:]), axis=2)  # the sum over u >= 1
        for kind, prefix, a1a2 in ((OffsetKind.TYPE1, "L2", side), (OffsetKind.TYPE2, "L3", stars)):
            if kind in terms:
                f1, f2, a2a3 = terms[kind]
                parts = (_A1A2 * a1a2[f1], _A1A3 * stars[f2], _A2A3 * stars[a2a3])
                out.update((prefix + part, r) for part, r in zip("abc", parts))
        return out

    return cell_residuals


@dataclass(frozen=True)
class LemmaSweepResult:
    """Aggregated residual maxima over the sweep plus the negative controls."""

    m: int
    evaluations: dict[str, int]
    max_residuals: dict[str, float]
    negative_controls: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks())

    def checks(self) -> list[CheckResult]:
        sweeps = [
            CheckResult(f"lemma.{lemma_id}.max_residual", value == 0,
                        f"{value:.3e} over {self.evaluations[lemma_id]} evaluations", "= 0")
            for lemma_id, value in sorted(self.max_residuals.items())
        ]
        controls = [
            CheckResult(f"lemma.negative_control.{name}", value > 0.1, f"{value:.6f}", "> 0.1")
            for name, value in sorted(self.negative_controls.items())
        ]
        return sweeps + controls


def negative_controls(m: int = 3) -> dict[str, float]:
    """Constraint-violating offsets pushed through the sweep's residuals
    together, on one base row: identity path, every linear coefficient 1,
    constant 0.  Each control reads the largest of its lemma's residuals.

    L1: offset triple (0,0,0), violating both congruences.
    L2: type 1 record with (h1, h3) = (2, 0), violating h1+2*h3=0.
    L3: a genuine type 1 record relabeled type 2 and re-evaluated.
    """
    pi = tuple(range(m))
    row = base_rows(m, pi, np.array([[1] * m + [0]]))
    d = Offset16(0, 1, 1)
    controls = {
        "L1": Offset16(0, 0, 0),
        "L2": Offset64(OffsetKind.TYPE1, d, 2, 0, 0),
        "L3": Offset64(OffsetKind.TYPE2, d, 0, 0, 0),
    }
    residuals = _lemma_residuals(row, tuple(controls.values()), m, pi)
    return {name: max(float(np.max(r)) for key, r in residuals.items() if key.startswith(name))
            for name in controls}


def lemma_sweep(m: int = 3) -> LemmaSweepResult:
    """Every lemma residual at one m, over every (pi, linear part, offset),
    on the cells of orbit_cells under the 2 + 16 offsets of orbit_offsets:
    one (linear part, offset) per orbit of the quarter shift, conjugation
    and reversal, whose residuals are those of the orbit's 16 (module
    docstring), so each counts FULL_ORBIT_SIZE // ORBIT_SIZE evaluations.

    Each linear part is walked with constant 0.  That is exhaustive:
    a constant c multiplies P and Q by zeta^c, so every product
    P_i conj(Q_{i+u}), and with it every lemma sum, does not depend on c.
    The sums are exact, so a residual passes only at exactly 0.
    """
    maxima: dict[str, float] = {k: 0.0 for k in ("L1", "L2a", "L2b", "L2c", "L3a", "L3b", "L3c")}
    counts: dict[str, int] = {k: 0 for k in maxima}
    offsets = orbit_offsets(Modulation.QAM16) + orbit_offsets(Modulation.QAM64)
    forms, pairs = _lemma_forms(offsets)
    footprint = coset_footprint(1 << m, len(forms) + len(pairs))
    # rounded up to a power of two, where orbit_cells keeps to CHUNK_SYMBOLS // per_row rows
    cells = orbit_cells(m, 1 << (footprint - 1).bit_length())
    for pi, pi_cells in itertools.groupby(cells, key=lambda cell: cell[0]):
        residuals_of = _lemma_residuals_at(offsets, m, pi)
        for _, rows in pi_cells:
            for key, residuals in residuals_of(base_rows(m, pi, rows)).items():
                maxima[key] = max(maxima[key], float(np.max(residuals)))
                counts[key] += FULL_ORBIT_SIZE // ORBIT_SIZE * int(residuals.size)

    return LemmaSweepResult(
        m=m,
        evaluations=counts,
        max_residuals=maxima,
        negative_controls=negative_controls(m),
    )


# ---------------------------------------------------------------------------
# family-wide bound audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KindStats:
    """The audit tally of one offset kind over some of its blocks; the
    tallies of two block sets add with +, in any order."""

    kind: str
    total: int
    star_ok: int
    pmepr_ok: int
    min_star_over_n: float
    max_star_over_n: float
    max_pmepr: float
    golay_defect: int
    component_ok: bool
    pmepr_le_star: bool

    @property
    def bound(self) -> float:
        return CEILINGS[self.kind][0]

    @property
    def exact_bound(self) -> Fraction:
        return CEILINGS[self.kind][1]

    def __add__(self, other: "KindStats") -> "KindStats":
        return KindStats(
            kind=self.kind,
            total=self.total + other.total,
            star_ok=self.star_ok + other.star_ok,
            pmepr_ok=self.pmepr_ok + other.pmepr_ok,
            min_star_over_n=min(self.min_star_over_n, other.min_star_over_n),
            max_star_over_n=max(self.max_star_over_n, other.max_star_over_n),
            max_pmepr=max(self.max_pmepr, other.max_pmepr),
            golay_defect=max(self.golay_defect, other.golay_defect),
            component_ok=self.component_ok and other.component_ok,
            pmepr_le_star=self.pmepr_le_star and other.pmepr_le_star,
        )


@dataclass(frozen=True)
class BoundAuditReport:
    m: int
    modulation: Modulation
    oversample: int
    expected_total: int
    kinds: tuple[KindStats, ...]

    @property
    def total(self) -> int:
        return sum(k.total for k in self.kinds)

    @property
    def distinct_sequences(self) -> int:
        """Every audited record is a distinct sequence: the parameters map to
        the symbols injectively (proved in qamseq.constructions)."""
        return self.total

    @property
    def golay_exact(self) -> bool:
        return all(k.golay_defect == 0 for k in self.kinds)

    @property
    def component_bounds_ok(self) -> bool:
        return all(k.component_ok for k in self.kinds)

    @property
    def pmepr_le_star_ok(self) -> bool:
        return all(k.pmepr_le_star for k in self.kinds)

    @property
    def strictly_near_complementary(self) -> bool:
        return any(k.max_star_over_n > 2.0 + STAR_TOL for k in self.kinds)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks())

    def checks(self) -> list[CheckResult]:
        prefix = f"bounds.{self.modulation.value}.m{self.m}"
        out = [
            CheckResult(
                name=f"{prefix}.count",
                passed=self.total == self.expected_total,
                observed=str(self.total),
                requirement=f"= {self.expected_total}",
            )
        ]
        for k in self.kinds:
            star_req = (
                f"star/n in [2, {k.bound}] +/- {STAR_TOL}"
                if k.kind == "qam16"
                else f"star/n <= {k.bound} + {STAR_TOL}"
            )
            out.append(
                CheckResult(
                    name=f"{prefix}.{k.kind}.star",
                    passed=k.star_ok == k.total,
                    observed=f"max star/n = {k.max_star_over_n:.12f} "
                    f"(min {k.min_star_over_n:.12f}, exact bound {k.exact_bound})",
                    requirement=f"{star_req} on {k.total} records",
                )
            )
            out.append(
                CheckResult(
                    name=f"{prefix}.{k.kind}.pmepr",
                    passed=k.pmepr_ok == k.total,
                    observed=f"max pmepr(L={self.oversample}) = {k.max_pmepr:.12f}",
                    requirement=f"<= {k.bound} + {PMEPR_TOL}",
                )
            )
        # (check, verdict, observed if it holds, observed if not, requirement)
        flags = (
            ("golay_base_pair", self.golay_exact, "exact integer cancellation", "defect found",
             "C_D(u) + C_D'(u) = 0 for every u != 0, all records"),
            ("component_stars", self.component_bounds_ok, "ok", "violation",
             "offset components star <= 4n (type 1 first component Golay)"),
            ("pmepr_le_star", self.pmepr_le_star_ok, "ok", "violation",
             f"pmepr <= star/n + {STAR_TOL} on every record"),
            ("strictly_near_complementary", self.strictly_near_complementary, "max star/n > 2",
             "all Golay", "at least one record with star/n > 2"),
            ("distinct_sequences", True, f"{self.distinct_sequences} distinct of {self.total} "
             "tuples", None, "= count, by injectivity of parameters -> symbols "
             "(proof in qamseq.constructions)"),
        )
        for check, passed, holds, fails, requirement in flags:
            observed = holds if passed else fails
            out.append(CheckResult(f"{prefix}.{check}", passed, observed, requirement))
        return out


def _block_stars(block: FamilyBlock) -> tuple[np.ndarray, np.ndarray]:
    """(stars, golay): the star sum of each codeword and then of D and each
    form with its companion, (offsets + components, rows), and each
    component's Golay defect over the rows, from one coset_correlation_sums
    call.  A function of its own, so that the kernel's sums are freed
    before the envelope runs."""
    n, rows, codewords = 1 << block.m, len(block.coeffs), len(block.offsets)
    # each codeword is zeta^D * K_o and each component zeta^D * zeta^(s_j), with
    # K_o and s_j the same on every row: read back from what the block holds
    # (row_free raises otherwise), so every star is of the block's own symbols
    units = polyphase_lattice(block.components)
    x = np.concatenate([row_free(block.symbols, units[0]), row_free(units, units[0])])
    sums = coset_correlation_sums(block.components[0], shift_factors(x, x, block.companion_sign))
    stars = star_sum(sums.reshape(-1, n)).reshape(-1, rows)
    # D's Golay defect, and each form's, from the components' sums
    golay = np.max(golay_defect(sums[codewords:].reshape(-1, n)).reshape(-1, rows), axis=1)
    return stars, golay


def _audit_block(block: FamilyBlock, oversample: int) -> list[KindStats]:
    """The audit tally of each offset kind of one block over orbit_offsets,
    each (offset, row) counted as the FULL_ORBIT_SIZE records of its orbit.

    The stars, component stars and Golay defects are the same on all of an
    orbit's records (constructions).  Their PMEPRs decide three things: p <=
    bound + PMEPR_TOL, p <= star/n + STAR_TOL and the kind's max.  The
    block's (offsets * rows, n) view is screened at once by
    analysis.threshold_peps, each row with its two points and its kind's
    max: pep_batch runs only on the rows the screen cannot decide, and every
    decision below, the max included, comes out as on pep_batch's PMEPR of
    every row (at an odd L or beyond n = 64 they are pep_batch's).  A row
    whose PMEPR is farther than analysis.pep_spread from all three decides
    them for its whole orbit; on the other rows orbit_peps computes the
    PMEPR of each conjugation x reversal x quarter-shift image, so every
    verdict and the max are those of a walk over every record."""
    n, codewords = 1 << block.m, len(block.offsets)
    grid = oversample * n
    stars, golay = _block_stars(block)
    star_over_n = stars[:codewords] / block.scale.value / n
    star_ok = np.all(stars[codewords:] <= 4 * n + STAR_TOL, axis=1)
    z = block.complex_symbols()
    # every codeword's decision points, its ceiling plus PMEPR_TOL and its
    # star/n plus STAR_TOL, and its kind's max: one screen of the whole block
    order = list(dict.fromkeys(block.kinds))
    ceilings = np.array([CEILINGS[kind][0] for kind in block.kinds])[:, None] + PMEPR_TOL
    points = np.stack(np.broadcast_arrays(ceilings, star_over_n + STAR_TOL), axis=-1)
    labels = np.repeat([order.index(kind) for kind in block.kinds], len(block.coeffs))
    peps = threshold_peps(z.reshape(-1, n), oversample, points.reshape(-1, 2), labels)
    peps = peps.reshape(star_over_n.shape)
    pmeprs = peps / n

    out = []
    kinds = np.array(block.kinds)
    for kind in order:
        mask = kinds == kind
        s, p, index = star_over_n[mask], pmeprs[mask], block.component_index[mask]
        bound = CEILINGS[kind][0]
        # the rows within pep_spread of one of their three PMEPR decisions
        near = near_points(p, np.sort([bound + PMEPR_TOL, np.max(p)]), grid)
        near |= np.abs(p - (s + STAR_TOL)) <= pep_spread(grid) * p
        values, images, at = orbit_peps(
            z[mask].reshape(-1, n), peps[mask].ravel(), near.ravel(), oversample)
        values /= n
        ok = s <= bound + STAR_TOL
        if kind == "qam16":
            # the 2n floor is a 16-QAM fact here: the r1*r2 energy cross terms
            # sum to zero over valid offsets, so C(0)_H + C(0)_H' = 2n exactly.
            # 64-QAM type 1 offsets with s1 = 2 collapse the two largest
            # components and land below 2n; only the ceiling is asserted there.
            ok &= s >= 2.0 - STAR_TOL
        component_ok = bool(np.all(star_ok[index[:, 1:]]))
        if kind == "type1":
            # type 1 first component is base + linear offset: still a Golay pair
            component_ok &= bool(np.all(golay[index[:, 1]] == 0))
        out.append(KindStats(
            kind=kind,
            total=FULL_ORBIT_SIZE * s.size,
            star_ok=FULL_ORBIT_SIZE * int(np.count_nonzero(ok)),
            pmepr_ok=ORBIT_SIZE * int(np.sum(images[values <= bound + PMEPR_TOL])),
            min_star_over_n=float(np.min(s)),
            max_star_over_n=float(np.max(s)),
            max_pmepr=float(np.max(values)),
            golay_defect=int(golay[0]),
            component_ok=component_ok,
            pmepr_le_star=bool(np.all(values <= s.ravel()[at] + STAR_TOL)),
        ))
    return out


def theorem_bound_audit(
    m: int,
    modulation: Modulation,
    oversample: int = 16,
    jobs: int = 1,
) -> BoundAuditReport:
    """Check every codeword of the family against its star and PMEPR bounds,
    on the blocks of map_orbit_blocks: one (offset, row) per
    FULL_ORBIT_SIZE-record orbit."""
    audit = functools.partial(_audit_block, oversample=oversample)
    kinds: dict[str, KindStats] = {}
    for block_stats in map_orbit_blocks(audit, m, modulation, jobs):
        for stats in block_stats:
            kinds[stats.kind] = kinds[stats.kind] + stats if stats.kind in kinds else stats
    return BoundAuditReport(
        m=m,
        modulation=modulation,
        oversample=oversample,
        expected_total=family_size(m, modulation),
        kinds=tuple(kinds[k] for k in sorted(kinds)),
    )


# the family of the envelope checks, and their two oversampling rates:
# L = LOW, the audits' default rate, and L = HIGH, its reference
ENVELOPE_M, ENVELOPE_MODULATION = 3, Modulation.QAM16
LOW, HIGH = 16, 32


def _envelope_gaps(block: FamilyBlock) -> tuple[float, float, float]:
    """The Parseval gap and the two PEP gaps of a block, over its (offsets *
    rows, n) view in slices of rows whose L = HIGH grids hold at most
    CHUNK_SYMBOLS points together, as pep_batch slices them: each kernel
    runs once per slice, and the L = LOW envelope gives both the grid-mean
    power and the low-rate PEP."""
    n = 1 << block.m
    grid = HIGH * n
    basis = np.exp(2j * np.pi * (np.outer(np.arange(n), np.arange(grid)) % grid) / grid)
    lattice, z = block.symbols.reshape(-1, n), block.complex_symbols().reshape(-1, n)
    energy = np.sum(lattice.real**2 + lattice.imag**2, axis=1) / block.scale.value
    step = max(1, CHUNK_SYMBOLS // grid)
    gaps = []
    for start in range(0, len(z), step):
        w, e = z[start : start + step], energy[start : start + step]
        power = envelope_power_batch(w, LOW)
        p_low, p_high = np.max(power, axis=1), pep_batch(w, HIGH)
        # squaring is monotone, so the square of the largest |S| is the
        # largest |S|^2, bit for bit
        dense = np.max(np.abs(w @ basis), axis=1) ** 2
        gaps.append((np.max(np.abs(np.mean(power, axis=1) - e) / e),
                     np.max((p_high - p_low) / p_high),
                     np.max(np.abs(p_high - dense) / dense)))
    return tuple(float(max(g)) for g in zip(*gaps))


def envelope_audit() -> tuple[float, float, float]:
    """(Parseval gap, PEP gap, dense gap): the max relative gaps over the
    envelope family, one row per constant orbit (zeta^c changes neither the
    envelope nor the energy, so a row's gaps are those of its whole orbit),
    from one walk over it.

    The Parseval gap is between the grid-mean envelope power at L = LOW and
    the sequence energy.  The PEP gaps are between the two oversampling
    rates, and between pep_batch at the high rate and a dense-DFT peak.
    The explicit exp(2*pi*j*i*k/(high*n)) matrix shares no code with the
    FFT, so a kernel that ignores its oversampling rate shows in the dense
    gap and not in the first, which compares the FFT with itself.
    """
    gaps = map_family_blocks(_envelope_gaps, ENVELOPE_M, ENVELOPE_MODULATION)
    return tuple(max(g) for g in zip(*gaps))


def oversampling_audit() -> tuple[float, float]:
    """The two PEP gaps of envelope_audit."""
    return envelope_audit()[1:]


def parseval_audit() -> float:
    """The Parseval gap of envelope_audit."""
    return envelope_audit()[0]


def envelope_checks() -> list[CheckResult]:
    """The Parseval and oversampling-adequacy checks of the envelope kernel."""
    family = f"the m={ENVELOPE_M} {ENVELOPE_MODULATION.value} family"
    parseval, gap, dense_gap = envelope_audit()
    records = family_size(ENVELOPE_M, ENVELOPE_MODULATION)
    return [
        CheckResult("analysis.parseval", parseval <= 1e-9,
                    f"max relative gap {parseval:.3e} over all {records} codewords of {family}",
                    "<= 1e-9 relative"),
        CheckResult("analysis.oversampling_adequacy", gap <= 0.005 and dense_gap <= 1e-9,
                    f"max relative PEP gap L={LOW} vs L={HIGH}: {gap:.3e}; "
                    f"FFT vs dense DFT at L={HIGH}: {dense_gap:.3e}",
                    f"<= 0.5% and <= 1e-9 relative over {family}"),
    ]


# ---------------------------------------------------------------------------
# reference-example regression
# ---------------------------------------------------------------------------

EXAMPLE1_PARAMS = ConstructionParams(
    base=PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0),
    offset=Offset16(0, 1, 1),
)
EXAMPLE2_PARAMS = ConstructionParams(
    base=PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0),
    offset=Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0),
)
EXAMPLE_PMEPR_TOL = 0.05

# per example: check-name prefix, parameters, component sequences by check
# name, symbols (Gaussian integers over the square root of their scale) and
# published PMEPR.  The example 1 symbols are recomputed from the synthesis
# formula (the published symbol list for this example is internally
# inconsistent with its own component sequences).
_EXAMPLES = (
    (
        "example1",
        EXAMPLE1_PARAMS,
        {"base_sequence": [0, 1, 1, 0, 1, 2, 0, 3], "offset_component": [1, 2, 3, 2, 2, 3, 0, 3]},
        (np.array([1 + 3j, -3 + 1j, -1 + 1j, 1 + 1j, -3 + 1j, -1 - 3j, 3 + 3j, 3 - 3j]),
         Scale.QAM16),
        2.1,
    ),
    (
        "example2",
        EXAMPLE2_PARAMS,
        {
            "component0": [0, 1, 1, 0, 1, 2, 0, 3],
            "component1": [0, 1, 1, 0, 1, 2, 0, 3],
            "component2": [1, 2, 3, 2, 2, 3, 0, 3],
        },
        (np.array([5 + 7j, -7 + 5j, -5 + 5j, 5 + 5j, -7 + 5j, -5 - 7j, 7 + 7j, 7 - 7j]),
         Scale.QAM64),
        3.5,
    ),
)


def _parts(z: np.ndarray) -> str:
    """The integer parts of Gaussian-integer symbols, as the report prints them."""
    return f"re={[int(v) for v in z.real]} im={[int(v) for v in z.imag]}"


def example_regression(oversample: int = 16) -> list[CheckResult]:
    """Rebuild both reference examples and pin sequences, symbols, and PMEPR,
    each read from the example's one-row block, scored as the audit scores one."""
    out: list[CheckResult] = []
    for name, params, components, (symbols, scale), published_pmepr in _EXAMPLES:
        block = build(params)
        for (check, expected), observed in zip(
            components.items(), block.offset_components(0)[:, 0], strict=True
        ):
            observed = observed.tolist()
            out.append(
                CheckResult(f"{name}.{check}", observed == expected, str(observed), str(expected))
            )
        z = block.symbols[0, 0]
        out.append(
            CheckResult(
                name=f"{name}.symbols",
                passed=block.scale is scale and np.array_equal(z, symbols),
                observed=_parts(z),
                requirement=f"{_parts(symbols)} (/sqrt({scale.value}))",
            )
        )
        p = float(pep_batch(block.complex_symbols()[0], oversample)[0]) / len(z)
        out.append(
            CheckResult(
                name=f"{name}.pmepr",
                passed=abs(p - published_pmepr) <= EXAMPLE_PMEPR_TOL,
                observed=f"{p:.6f}",
                requirement=f"{published_pmepr} +/- {EXAMPLE_PMEPR_TOL}",
            )
        )
        s = float(_block_stars(block)[0][0, 0]) / block.scale.value / len(z)
        bound = star_bound(params.offset)
        out.append(
            CheckResult(
                name=f"{name}.star_bound",
                passed=p <= s + STAR_TOL and s <= bound + STAR_TOL,
                observed=f"star/n = {s:.12f}",
                requirement=f"pmepr <= star/n <= {bound} (+{STAR_TOL})",
            )
        )
    return out
