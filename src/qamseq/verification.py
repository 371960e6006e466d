"""The checks behind `qamseq verify`: one orbit walk for the bound audits and
the lemma sweep, and the reference examples; and envelope_audit, the
envelope kernel's self-test.

A codeword is H = (1 + i) * sum_j w_j * P_j, P_j = zeta^(c_j), w_j =
2^(k-1-j), over components c_0 = D and c_j = D + s_j, and its companion is
g * H, g = (-1)^x_{pi(m-1)}.  With X_{a,b}(u) = sum_i a_i conj(b_{i+u}), let
A_j = X_{P_j,P_j} + X_{gP_j,gP_j} and T_jk = X_{P_j,P_k} + X_{P_k,P_j} +
X_{gP_j,gP_k} + X_{gP_k,gP_j}.  X is linear in a and conjugate-linear in
b, and |1 + i|^2 = 2, so at every shift u >= 0

    C_H(u) + C_H'(u) = 2 * sum_j w_j^2 * A_j(u) + 2 * sum_{j<k} w_j w_k * T_jk(u).

The walk takes the codeword sums as one product W @ sums of an integer
(offsets x terms) weight matrix by the cell's sums.  Every A_j and T_jk is
a Gaussian integer with parts at most 4n and every weight an integer of at
most 32, so every product and partial sum is an integer far below 2^53:
the product is exact in any order of summation, and equals bit for bit
the direct correlation of each codeword with its companion.

The T_jk are the cross terms the paper's lemmas cancel: the star-bound
proofs rest on double sums of the shape

    sum_u sum_i zeta^(B_i - B_{i+u}) * (zeta^(s_i) + zeta^(-s_{i+u}))
               * [1 + (-1)^(lb_i - lb_{i+u})]

with B a component sequence, s an offset sequence and lb the bit at the
path end pi(m-1), which vanish for offsets that satisfy their congruences.
With P = zeta^(B+s) and Q = zeta^B the inner sum at shift u is T_PQ(u) =
T(u), T(-u) = conj T(u): the T of D with s1 or s2, and the a2a3 T of
B = D + s1 with s = s1 - s2.  Each sequence is zeta^D times a row-free
one, so one analysis.coset_correlation_sums call per cell gives every term
(_walk_terms): A of D and of D plus each distinct form, T of D with each
form, and per 64-QAM offset T(F, G) and the a2a3 T, 11 + 10 + 16 + 16 = 53
terms over the 2 + 16 offsets of both families.  The sums are exact, so a
residual passes only at exactly 0; deliberately broken offsets must light
them up, otherwise the sweep proves nothing.

The walk scores one (row, offset) per orbit of the quarter shift,
conjugation and reversal: the rows of constructions.orbit_runs under the
offsets of constructions.orbit_offsets.  T does not depend on the constant,
which multiplies P and Q alike, so the images below may take any constant.

- The quarter shift adds i mod 4 to D, and so to B = D and to B = D + s1
  alike, while s is a function of the row-free form alone: every
  P_i conj(Q_{i+u}) gains i^i * i^(-(i+u)), and T(u) becomes i^(-u) * T(u).
- Conjugation (sigma) takes D to -D and every form s to sigma(s) = -s
  (2*x*y = -2*x*y), so P and Q become conj(P) and conj(Q); the companion
  sign is real and the same, and T(u) becomes conj T(u).
- Reversal (rho) reads index n-1-i: D reversed is the image's D plus a
  constant, every form s reversed is rho(s) exactly, and the companion
  sign reversed is its negative, which cancels in gP conj(gQ).  With
  sum_i a_(n-1-i) conj(b_(n-1-i-u)) = conj X_{b,a}(u), and T symmetric in
  P and Q, T(u) becomes conj T(u); offset_symmetries maps s1 and s2 form
  by form, so the a2a3 pair goes the same way.

So |T(u)| is the same bit for bit on the 16 (row, offset) pairs of an
orbit, at every shift u.  Every residual is a function of the |T(u)| in a
fixed order of shifts: L1 is their maximum, which implies the lemma's
|sum_u T(u)| = 0 (that sum is not invariant: its terms turn by i^(-u)),
and the others are weighted sums of them.  The type 1 a1a2 sum keeps its
range u >= 1, the same on every image (no map moves a shift); it leaves
out the zero-shift term, which for type 1 is genuinely nonzero and belongs
to the bound.  So each (row, offset) counts for FULL_ORBIT_SIZE //
ORBIT_SIZE = 16 evaluations.

The bound audit checks, per codeword: the star ceiling, the PMEPR ceiling,
pmepr <= star/n, exact Golay cancellation of the base pair, and the
component star ceilings.  The PMEPR ceiling is certified by the star, with
no sample: PEP(H) <= max_t (|S_H(t)|^2 + |S_H'(t)|^2) <= sum_u |C_H(u) +
C_H'(u)|, the triangle inequality on the Fourier series of |S_H|^2 +
|S_H'|^2, so the continuous PMEPR is at most star/n, and a kind's PMEPR
check holds where its largest star/n meets the ceiling.  A sampled
maximum could not certify it: the L-times oversampled peak power may lie
below the continuous one by up to the factor 1/cos(pi/(2L))^2, 1.0097 at
L = 16 (Sharif, Gharavi-Alkhansari and Khalaj, IEEE Trans. Commun. 51(1),
2003).
The sampled PMEPRs are still reported, each kind's maximum, and held to
pmepr <= star/n.  Each (row, offset) of the walk counts for
the FULL_ORBIT_SIZE records of its orbit of zeta^c, conjugation, reversal
and the quarter shift (constructions).  Their stars agree exactly; their
PMEPRs may differ in the last bits, so a row within analysis.pep_spread of
a decision has the PMEPR of each image computed (analysis.orbit_pmeprs).
Each task of the walk is a run of constructions.orbit_runs, the cells of
one pi or of several whose symbols fit one row_slices budget.  It builds
a block per family for each pi, whose base rows its correlations take, and
its envelopes are one analysis.run_pmeprs call over those blocks, the pass
ccdf makes over its runs too, here with each offset kind a group: all the
run's rows screened against one ascending set, the run's distinct
star/n + STAR_TOL values and each kind's maximum.  A row near another
row's point is refined as well, which moves no decision of its own, and
the group maximum rule gives each kind's exact maximum over the run, so no
report depends on how the cells are packed.  A task becomes the KindStats
of each offset kind, only what the checks read, and its lemma maxima and
counts; the reports are their sums (counts add, extrema take min/max,
flags AND), the same in any order, for any cell size, run and worker count.
The star check reads each kind's extrema: its largest star/n against the
ceiling and, for 16-QAM, its least against the 2n floor.

envelope_audit holds the envelope kernel to Parseval and to its
oversampling rate over every constant orbit of the m=3 16-QAM family, in one
walk: a self-test of the FFT kernel on a fixed family, which the tests run
and `qamseq verify` does not, as no verdict of verify reads it.  A report's
passed is the AND of its own checks(), the verdicts that `qamseq verify`
prints and exits on.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import coefficient_rows
from .analysis import (
    coset_correlation_sums,
    coset_footprint,
    envelope_power_batch,
    golay_defect,
    pep_batch,
    polyphase_lattice,
    run_pmeprs,
    score_block,
    shift_factors,
    star_sum,
)
from .constellation import Scale
from .constructions import (
    CEILINGS,
    FULL_ORBIT_SIZE,
    ORBIT_SIZE,
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset,
    Offset16,
    Offset64,
    OffsetKind,
    _map_cells,
    _offset_list,
    build,
    build_block,
    companion_sign,
    component_forms,
    family_cells,
    family_size,
    form_values,
    offset_kind,
    orbit_offsets,
    orbit_runs,
    row_slices,
    star_bound,
)
from .gbf import PathQuadratic, base_rows

STAR_TOL = 1e-9

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
# the orbit walk: every sum of a cell from one correlation kernel call
# ---------------------------------------------------------------------------


class _Terms(NamedTuple):
    """The terms of one (m, pi, offsets) cell in kernel order: A of each
    component (D, then D plus each distinct form), T of D with each form,
    then T(F, G) and the a2a3 T of each 64-QAM offset; factors are their
    shift_factors and weights the (offsets, terms) W of the identity.
    index names each offset's components, l1 the T of each 16-QAM offset,
    and kinds the (s1, s2, a2a3) terms of each 64-QAM kind's offsets."""

    factors: np.ndarray
    weights: np.ndarray
    components: int
    index: list[tuple[int, ...]]
    l1: list[int]
    kinds: dict[OffsetKind, tuple[np.ndarray, ...]]


@functools.lru_cache(maxsize=16)
def _term_layout(offsets: tuple[Offset, ...]) -> tuple:
    """What _walk_terms needs that does not depend on pi: the forms; the
    (F, G) components of each 64-QAM offset; each term as a (p, q) pair of
    row-free exponent rows (0 for D, s for D + s, then 2*s1 - s2 of each
    64-QAM offset); and the _Terms without their factors."""
    forms, index = component_forms(offsets)
    triples = [(off.kind, c) for off, c in zip(offsets, index) if len(c) == 3]
    k = 1 + len(forms)
    pairs = ([(c, c) for c in range(k)] + [(0, c) for c in range(1, k)]
             + [c[1:] for _, c in triples] + [(k + g, c[1]) for g, (_, c) in enumerate(triples)])
    term = {pair: t for t, pair in enumerate(pairs) if t >= k}
    weights = np.zeros((len(offsets), len(pairs)))
    for o, c in enumerate(index):
        # 2 * w_j * w_l = 2^(2K - 1 - j - l) on A_j (j = l) and on T_jl
        for (j, a), (l, b) in itertools.combinations_with_replacement(enumerate(c), 2):
            weights[o, a if j == l else term[a, b]] += 2 << (2 * len(c) - 2 - j - l)
    weights.setflags(write=False)  # cached: every cell shares it
    kinds: dict[OffsetKind, list] = {}
    for g, (kind, c) in enumerate(triples):
        kinds.setdefault(kind, []).append((term[0, c[1]], term[0, c[2]], term[k + g, c[1]]))
    kinds = {kind: tuple(np.array(col) for col in zip(*rows)) for kind, rows in kinds.items()}
    l1 = [term[0, c[1]] for c in index if len(c) == 2]
    fg = np.array([c[1:] for _, c in triples], dtype=int).reshape(-1, 2).T
    return forms, fg, np.array(pairs).T, _Terms(None, weights, k, index, l1, kinds)


@functools.lru_cache(maxsize=1)
def _walk_terms(m: int, pi: tuple[int, ...], offsets: tuple[Offset, ...],
                sign: tuple[int, ...]) -> _Terms:
    """The _Terms of offsets at pi under the companion sign, built once for
    every cell of the pi (the walk's cells come in pi order): one
    shift_factors call over the stacked (p, q) and (q, p) rows of every
    term of _term_layout, whose halves add to each T (and to twice each A)."""
    forms, (f, g), (p, q), terms = _term_layout(offsets)
    values = np.concatenate([np.zeros((1, 1 << m), np.int64), form_values(forms, m, pi)])
    x = polyphase_lattice(np.concatenate([values, 2 * values[f] - values[g]]))
    both = shift_factors(x[np.r_[p, q]], x[np.r_[q, p]], np.array(sign))
    factors = both[:, : len(p)] + both[:, len(p) :]
    factors[:, : terms.components] /= 2
    factors.setflags(write=False)  # cached: every cell of the pi shares them
    return terms._replace(factors=factors)


def _cell_terms(m: int, pi: tuple[int, ...], offsets: tuple[Offset, ...]) -> _Terms:
    """The _Terms of offsets at pi under its companion sign."""
    return _walk_terms(m, pi, offsets, tuple(companion_sign(m, pi).tolist()))


def _codeword_sums(sums: np.ndarray, terms: _Terms) -> np.ndarray:
    """The (offsets, rows, n) sums C_H + C_H' of every codeword of a cell:
    W @ sums, the component identity, on the float pairs of the sums."""
    flat = sums.view(float).reshape(len(sums), -1)
    return (terms.weights @ flat).view(complex).reshape(len(terms.weights), *sums.shape[1:])


def _reductions(base: np.ndarray, terms: _Terms) -> tuple:
    """(stars, golay, residuals) of one walk cell of base rows D, per row,
    from one coset_correlation_sums call: the star of each codeword and then
    of each term, (offsets + terms, rows); the Golay defect of each
    component; and every lemma residual as (offsets, rows) arrays in the
    order of offsets: L1 of the 16-QAM offsets, L2a-c of the type 1 and
    L3a-c of the type 2 offsets.  L1 is max_u |T(u)|, the square root of an
    exact integer, 0 exactly where T vanishes at every shift; the others
    are weighted sums of |T(u)| over every shift, the type 1 a1a2 sum over
    u >= 1 (module docstring).  |T(-u)| = |T(u)|: the shifts u >= 0 hold
    every |T|."""
    sums = coset_correlation_sums(base, terms.factors)
    n, rows = sums.shape[2], sums.shape[1]
    stars = star_sum(np.concatenate([_codeword_sums(sums, terms), sums]).reshape(-1, n))
    stars = stars.reshape(-1, rows)
    own = stars[len(terms.weights) :]  # the terms' own stars
    d = sums[terms.l1]
    residuals = {"L1": np.sqrt(np.max(d.real**2 + d.imag**2, axis=2))} if terms.l1 else {}
    for kind, prefix in ((OffsetKind.TYPE1, "L2"), (OffsetKind.TYPE2, "L3")):
        if kind in terms.kinds:
            f1, f2, a2a3 = terms.kinds[kind]
            a1a2 = np.sum(np.abs(sums[f1, :, 1:]), axis=2) if kind is OffsetKind.TYPE1 else own[f1]
            parts = (_A1A2 * a1a2, _A1A3 * own[f2], _A2A3 * own[a2a3])
            residuals.update((prefix + part, r) for part, r in zip("abc", parts))
    golay = golay_defect(sums[: terms.components].reshape(-1, n)).reshape(-1, rows)
    return stars, golay, residuals


def _audit_blocks(blocks: list[list[FamilyBlock]], terms: _Terms, cells: list,
                  oversample: int) -> list[KindStats]:
    """The audit tally of each offset kind of a task's blocks, a block per
    family for each pi of its run, each (offset, row) counted as the
    FULL_ORBIT_SIZE records of its orbit, from the stars and Golay defects
    of the _reductions of their cells, in run order.  Its PMEPR decisions,
    p <= star/n + STAR_TOL and the kind's max over the run, are one
    analysis.run_pmeprs call over the run with each kind a group, as over
    every record; no decision compares a sampled PMEPR with a ceiling."""
    # the first pi's blocks give the offsets, kinds and scales of every pi
    n, codewords = 1 << blocks[0][0].m, len(terms.weights)
    scales = np.concatenate([[block.scale.value] * len(block.offsets) for block in blocks[0]])
    kinds = np.array([kind for block in blocks[0] for kind in block.kinds])
    stars, golay = (np.concatenate([cell[i] for cell in cells], axis=1) for i in (0, 1))
    star_over_n = stars[:codewords] / scales[:, None] / n
    within = np.all(stars[codewords : codewords + terms.components] <= 4 * n + STAR_TOL, axis=1)
    golay = np.max(golay, axis=1)
    # every codeword's decision point, its star/n plus STAR_TOL, in one shared
    # ascending set of the run's distinct values (np.unique would import
    # numpy.ma, 10-20 ms of a whole call)
    points = np.sort((star_over_n + STAR_TOL).ravel())
    points = points[np.diff(points, prepend=-np.inf) > 0]
    out = []
    for kind, (values, _, at) in run_pmeprs(blocks, oversample, points, maxima=True).items():
        mask = kinds == kind
        s, index = star_over_n[mask], np.array([terms.index[o] for o in np.flatnonzero(mask)])
        component_ok = bool(np.all(within[index[:, 1:]]))
        if kind == "type1":
            # type 1 first component is base + linear offset: still a Golay pair
            component_ok &= bool(np.all(golay[index[:, 1]] == 0))
        out.append(KindStats(
            kind, FULL_ORBIT_SIZE * s.size, float(np.min(s)), float(np.max(s)),
            float(np.max(values)), int(golay[0]), component_ok,
            bool(np.all(values <= star_over_n.ravel()[at] + STAR_TOL))))
    return out


def _walk_task(task: tuple, oversample: int | None) -> tuple[list[KindStats], dict]:
    """(KindStats of each offset kind, (max, evaluations) of each lemma
    residual) of one (m, run, groups) task: run a run of orbit_runs, groups
    the offsets of each family.  Per pi of the run, unless oversample is
    None, a block per family, and the _reductions of each kernel cell of
    its base rows; then one _audit_blocks call over the blocks of every pi.
    The kernel cells are the row_slices of the kernel's footprint over
    every term plus the symbols of every offset; a cell's sums are freed
    before the next."""
    m, run, groups = task
    offsets = tuple(itertools.chain.from_iterable(groups))
    blocks, cells = [], []
    for pi, rows in run:
        terms = _cell_terms(m, pi, offsets)
        per_row = coset_footprint(1 << m, len(terms.factors[0])) + (1 << m) * len(offsets)
        # a lemma-only walk (oversample None) needs no block, only base rows
        blocks.append([] if oversample is None else [build_block(m, pi, g, rows) for g in groups])
        base = blocks[-1][0].base if blocks[-1] else base_rows(m, pi, rows)
        cells += [_reductions(base[part], terms) for part in row_slices(len(rows), per_row)]
    lemmas = {key: (max(float(np.max(cell[2][key])) for cell in cells),
                    FULL_ORBIT_SIZE // ORBIT_SIZE * sum(cell[2][key].size for cell in cells))
              for key in cells[0][2]}
    # the term layout does not depend on pi: any pi's terms serve
    return ([] if oversample is None else _audit_blocks(blocks, terms, cells, oversample)), lemmas


def orbit_walk(m: int, oversample: int | None = 16, jobs: int = 1,
               modulations: tuple[Modulation, ...] = tuple(Modulation)) -> tuple:
    """(audits, lemmas): the BoundAuditReport of each of the modulations
    (none when oversample is None) and, when both families are walked, the
    LemmaSweepResult, from one walk over orbit_runs under their
    orbit_offsets.  It maps tasks (_walk_task), the runs of orbit_runs that
    hold the symbols of every offset, in jobs processes; the reports are
    the same for every jobs."""
    groups = tuple(orbit_offsets(modulation) for modulation in modulations)
    tasks = ((m, run, groups) for run in orbit_runs(m, (1 << m) * sum(map(len, groups))))
    kinds: dict[str, KindStats] = {}
    maxima: dict[str, float] = {}
    counts: dict[str, int] = {}
    for task_stats, lemmas in _map_cells(
            functools.partial(_walk_task, oversample=oversample), tasks, jobs):
        for stats in task_stats:
            kinds[stats.kind] = kinds[stats.kind] + stats if stats.kind in kinds else stats
        for key, (value, count) in lemmas.items():
            maxima[key] = max(maxima.get(key, 0.0), value)
            counts[key] = counts.get(key, 0) + count
    audits = () if oversample is None else tuple(
        BoundAuditReport(m, modulation, oversample, family_size(m, modulation),
                         tuple(kinds[k] for k in sorted({offset_kind(o) for o in group})))
        for modulation, group in zip(modulations, groups))
    both = len(set(modulations)) == len(Modulation)
    lemmas = LemmaSweepResult(m, counts, maxima, negative_controls(m)) if both else None
    _walk_terms.cache_clear()  # no factors are held past the walk
    return audits, lemmas


# ---------------------------------------------------------------------------
# lemma sweep: a view of the walk
# ---------------------------------------------------------------------------


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
    """Constraint-violating offsets pushed through the walk's residuals
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
    residuals = _reductions(row, _cell_terms(m, pi, tuple(controls.values())))[2]
    return {name: max(float(np.max(r)) for key, r in residuals.items() if key.startswith(name))
            for name in controls}


def lemma_sweep(m: int = 3) -> LemmaSweepResult:
    """Every lemma residual at one m, over every (pi, linear part, offset):
    orbit_walk without the envelope, one (linear part, offset) per orbit of
    the quarter shift, conjugation and reversal, each counting
    FULL_ORBIT_SIZE // ORBIT_SIZE evaluations (module docstring).  Each
    linear part is walked with constant 0.  That is exhaustive: a constant
    c multiplies P and Q by zeta^c, so no lemma sum depends on c."""
    return orbit_walk(m, None)[1]


# ---------------------------------------------------------------------------
# family-wide bound audit: a view of the walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KindStats:
    """The audit tally of one offset kind over some of its blocks; the
    tallies of two block sets add with +, in any order."""

    kind: str
    total: int
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
        out = [CheckResult(f"{prefix}.count", self.total == self.expected_total, str(self.total),
                           f"= {self.expected_total}")]
        for k in self.kinds:
            # the 2n floor is a 16-QAM fact here: the r1*r2 energy cross terms
            # sum to zero over valid offsets, so C(0)_H + C(0)_H' = 2n exactly.
            # 64-QAM type 1 offsets with s1 = 2 collapse the two largest
            # components and land below 2n; only the ceiling is asserted there.
            floor = k.kind == "qam16"
            star_req = (f"star/n in [2, {k.bound}] +/- {STAR_TOL}" if floor
                        else f"star/n <= {k.bound} + {STAR_TOL}")
            within = k.max_star_over_n <= k.bound + STAR_TOL
            out.append(CheckResult(
                f"{prefix}.{k.kind}.star",
                within and (not floor or k.min_star_over_n >= 2.0 - STAR_TOL),
                f"max star/n = {k.max_star_over_n:.12f} (min {k.min_star_over_n:.12f}, "
                f"exact bound {k.exact_bound})", f"{star_req} on {k.total} records"))
            # the verdict is the certified chain pmepr <= star/n <= ceiling; the
            # sampled maximum is reported, and held to star/n by pmepr_le_star
            out.append(CheckResult(f"{prefix}.{k.kind}.pmepr", within,
                                   f"max pmepr(L={self.oversample}) = {k.max_pmepr:.12f}",
                                   f"continuous pmepr <= star/n <= {k.bound} + {STAR_TOL}"))
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


def theorem_bound_audit(m: int, modulation: Modulation, oversample: int = 16,
                        jobs: int = 1) -> BoundAuditReport:
    """Check every codeword of the family against its star and PMEPR bounds:
    orbit_walk over this family alone, one (offset, row) per
    FULL_ORBIT_SIZE-record orbit."""
    return orbit_walk(m, oversample, jobs, (modulation,))[0][0]


# the family of the envelope kernel's self-test, and its two oversampling rates:
# L = LOW, the audits' default rate, and L = HIGH, its reference
ENVELOPE_M, ENVELOPE_MODULATION = 3, Modulation.QAM16
LOW, HIGH = 16, 32


def _envelope_gaps(block: FamilyBlock) -> tuple[float, float, float]:
    """The Parseval gap and the two PEP gaps of a block, over its (offsets *
    rows, n) view in the row_slices of its L = HIGH grid points a row, as
    pep_batch slices them: each kernel runs once per slice, and the L = LOW
    envelope gives both the grid-mean power and the low-rate PEP."""
    n = 1 << block.m
    grid = HIGH * n
    basis = np.exp(2j * np.pi * (np.outer(np.arange(n), np.arange(grid)) % grid) / grid)
    z, k = block.complex_symbols().reshape(-1, n), block.parts
    # |zeta^D * K| = |K|: every row of an offset has the energy of its part
    energy = np.repeat(np.sum(k.real**2 + k.imag**2, axis=1), len(block.base)) / block.scale.value
    gaps = []
    for part in row_slices(len(z), grid):
        w, e = z[part], energy[part]
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
    from one block per cell of family_cells over its constant-0 rows, every
    offset in list order.

    The Parseval gap is between the grid-mean envelope power at L = LOW and
    the sequence energy.  The PEP gaps are between the two oversampling
    rates, and between pep_batch at the high rate and a dense-DFT peak.
    The explicit exp(2*pi*j*i*k/(high*n)) matrix shares no code with the
    FFT, so a kernel that ignores its oversampling rate shows in the dense
    gap and not in the first, which compares the FFT with itself.
    """
    m, offsets = ENVELOPE_M, _offset_list(ENVELOPE_MODULATION)
    gaps = [_envelope_gaps(build_block(m, pi, offsets, coefficient_rows(m, *span, ORBIT_SIZE)))
            for pi, span in family_cells(m, (1 << m) * len(offsets))]
    return tuple(max(g) for g in zip(*gaps))


def oversampling_audit() -> tuple[float, float]:
    """The two PEP gaps of envelope_audit."""
    return envelope_audit()[1:]


def parseval_audit() -> float:
    """The Parseval gap of envelope_audit."""
    return envelope_audit()[0]


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
# the examples' published PMEPRs have one decimal: each sampled PMEPR is held
# to that value, not to a ceiling, so this tolerance is not a bound's slack
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
    """Rebuild both reference examples and pin sequences, symbols, PMEPR
    and star, each read from the example's one-row block, the scores by
    analysis.score_block, as construct prints them."""
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
        s, p = (float(v[0, 0]) for v in score_block(block, oversample))
        out.append(
            CheckResult(
                name=f"{name}.pmepr",
                passed=abs(p - published_pmepr) <= EXAMPLE_PMEPR_TOL,
                observed=f"{p:.6f}",
                requirement=f"{published_pmepr} +/- {EXAMPLE_PMEPR_TOL}",
            )
        )
        s /= len(z)
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
