"""The checks behind `qamseq verify`: lemma sweep, bound audits, envelope, examples.

The star-bound proofs rest on cross-term double sums of the shape

    sum_u sum_i zeta^(B_i - B_{i+u}) * (zeta^(s_i) + zeta^(-s_{i+u}))
               * [1 + (-1)^(lb_i - lb_{i+u})]

where B is a component sequence, s an offset sequence and lb the bit at the
path end pi(m-1).  Offsets satisfying their defining congruences make these
sums vanish.  With P = zeta^(B+s), Q = zeta^B and the companion sign
(-1)^lb, the inner sum at shift u is a sum of four cross-correlations of P,
Q and their companions; the sweep evaluates it for u >= 0 with the library's
one correlation kernel, many base rows at a time, takes the negative shifts
from T(-u) = conj T(u), and reports magnitudes (L1, a sum over every shift,
comes from row sums instead).  It scores every offset of a cell together:
T of the base with one component form is shared by every offset whose s1 or
s2 is that form, so it is correlated once per distinct form.  The sums are
exact Gaussian integers, so a residual passes only at exactly 0.
Deliberately broken offsets must light them up, otherwise the sweep proves
nothing.

The bound audit sweeps entire families and checks, per codeword: the star
ceiling, the oversampled PMEPR ceiling, pmepr <= star/n, exact Golay
cancellation of the base pair, and the component star ceilings.  It scores
each constant orbit once, on its constant-0 row, which counts for the
ORBIT_SIZE records of the orbit (constructions.ORBIT_SIZE says why they
agree).  Every companion sequence is FamilyBlock.companion_sign times its
sequence.  A block holds every offset of one cell of
constructions.family_cells, and each component sequence once: D, and D plus
each distinct component form.  Each of them is correlated with its companion
once per cell; D's Golay defect and each form's star and Golay defect are
reductions of those sums.  The codewords' stars and PMEPRs run over groups
of offsets, GROUP_SYMBOLS symbol positions per call.  Each block becomes
the KindStats of each offset kind it holds, read against that kind's
ceiling in constructions.CEILINGS, and the report is their sum per kind:
counts add, extrema take min/max and flags AND, so it is the same in any
block order, for any cell or group size and for any worker count.

The envelope checks hold the envelope kernel to Parseval and to its
oversampling rate over every constant orbit of the m=3 16-QAM family.  A
report's passed is the AND of its own checks(), the verdicts that
`qamseq verify` prints and exits on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import (
    autocorrelation_sums,
    correlation_sums_batch,
    envelope_power_batch,
    golay_defect,
    pep_batch,
    pmepr,
    polyphase_lattice,
    star,
    star_batch,
    star_sum,
)
from .constellation import ComplexSequence, Scale
from .constructions import (
    CEILINGS,
    CHUNK_SYMBOLS,
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
    family_cells,
    family_size,
    form_values,
    map_family_blocks,
    offset_forms,
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


def _lemma_terms(base_all: np.ndarray, svals: np.ndarray, sign: np.ndarray) -> tuple:
    """The (4, rows, n) stacks a, b whose correlation sums over k, per row of
    base_all, are T(u), the inner sum of the cross-term double sum at shift u:
    with P = zeta^(B+s), Q = zeta^B, the companion sign g and
    X_{a,b}(u) = sum_i a_i conj(b_{i+u}),

        T = X_{P,Q} + X_{Q,P} + X_{gP,gQ} + X_{gQ,gP},   T(-u) = conj T(u).
    """
    p, q = polyphase_lattice(base_all.astype(np.int64) + svals), polyphase_lattice(base_all)
    return np.stack([p, q, sign * p, sign * q]), np.stack([q, p, sign * q, sign * p])


# symbol positions per correlation or envelope call of the audit and the lemma
# sweep: a cell holds up to CHUNK_SYMBOLS, and intermediates of that size
# would set the walks' peak memory
GROUP_SYMBOLS = CHUNK_SYMBOLS // 32


def _offset_groups(count: int, per_offset: int) -> list[slice]:
    """Consecutive slices of count offsets, each of at most GROUP_SYMBOLS
    symbol positions at per_offset per offset, and at least one offset."""
    step = max(1, GROUP_SYMBOLS // per_offset)
    return [slice(start, start + step) for start in range(0, count, step)]


def _lemma_residuals(
    base_all: np.ndarray, offsets: tuple[Offset, ...], m: int, pi: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Every lemma residual of each offset, per base row, as (offsets, rows)
    arrays in the order of offsets: L1 over the 16-QAM offsets, L2a-c over
    the type 1 and L3a-c over the type 2 64-QAM offsets.

    L1 is |sum over every shift of T(u)|, an exact integer from row sums:
    summed over every shift, X_{a,b} is (sum a) * conj(sum b).  The others are
    weighted sums of |T(u)| over every shift, except the type 1 a1a2 sum,
    which ranges over u >= 1 (its zero-shift term is genuinely nonzero for
    type 1 offsets and belongs to the bound, not to the cancellation claim).
    The a1a2 sums of an offset are T of its s1 and the a1a3 sums T of its s2,
    so T is correlated once per distinct component form; the a2a3 sums, T of
    D + s1 with s1 - s2, once per offset, a group of offsets per call.
    """
    sign = companion_sign(m, pi)
    rows, n = base_all.shape
    forms = list(dict.fromkeys(f for off in offsets for f in offset_forms(off)))
    values = dict(zip(forms, form_values(forms, m, pi).astype(np.int64)))
    out: dict[str, list[np.ndarray]] = {}
    for off in offsets:
        if isinstance(off, Offset16):
            a, b = _lemma_terms(base_all, values[offset_forms(off)[0]], sign)
            out.setdefault("L1", []).append(
                np.abs(np.sum(a.sum(axis=2) * np.conj(b.sum(axis=2)), axis=0).real)
            )
    offsets64 = [off for off in offsets if isinstance(off, Offset64)]
    pairs = [offset_forms(off) for off in offsets64]
    if not pairs:
        return {k: np.stack(v) for k, v in out.items()}
    t = {f: correlation_sums_batch(*_lemma_terms(base_all, values[f], sign))
         for f in dict.fromkeys(f for pair in pairs for f in pair)}
    s1 = np.stack([values[f1] for f1, _ in pairs])[:, None]
    s2 = np.stack([values[f2] for _, f2 in pairs])[:, None]
    comp = (base_all + s1) % 4
    diff = np.broadcast_to((s1 - s2) % 4, comp.shape)
    r23 = np.concatenate([
        star_sum(correlation_sums_batch(*_lemma_terms(
            comp[group].reshape(-1, n), diff[group].reshape(-1, n), sign)))
        for group in _offset_groups(len(pairs), rows * n)
    ]).reshape(len(pairs), rows)
    for off, (f1, f2), a2a3 in zip(offsets64, pairs, r23):
        if off.kind is OffsetKind.TYPE1:
            prefix, r12 = "L2", np.sum(np.abs(t[f1][:, 1:]), axis=1)
        else:
            prefix, r12 = "L3", star_sum(t[f1])
        residuals = (_A1A2 * r12, _A1A3 * star_sum(t[f2]), _A2A3 * a2a3)
        for part, r in zip("abc", residuals):
            out.setdefault(prefix + part, []).append(r)
    return {k: np.stack(v) for k, v in out.items()}


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
    """Constraint-violating offsets pushed through the sweep's residuals,
    each on one base row: identity path, every linear coefficient 1,
    constant 0.

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
    out = {}
    for name, off in controls.items():
        residuals = _lemma_residuals(row, (off,), m, pi).values()
        out[name] = max(float(np.max(r)) for r in residuals)
    return out


def lemma_sweep(m: int = 3) -> LemmaSweepResult:
    """Every lemma residual at one m, over every (pi, linear part, offset),
    on the cells of family_cells.

    Each linear part is walked once, with constant 0.  That is exhaustive:
    a constant c multiplies P and Q by zeta^c, so every product
    P_i conj(Q_{i+u}), and with it every lemma sum, does not depend on c.
    The sums are exact, so a residual passes only at exactly 0.
    """
    maxima: dict[str, float] = {k: 0.0 for k in ("L1", "L2a", "L2b", "L2c", "L3a", "L3b", "L3c")}
    counts: dict[str, int] = {k: 0 for k in maxima}
    offsets = _offset_list(Modulation.QAM16) + _offset_list(Modulation.QAM64)
    for pi, rows in family_cells(m, 1 << m):
        for key, residuals in _lemma_residuals(base_rows(m, pi, rows), offsets, m, pi).items():
            maxima[key] = max(maxima[key], float(np.max(residuals)))
            counts[key] += int(residuals.size)

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


def _audit_block(block: FamilyBlock, oversample: int) -> list[KindStats]:
    """The audit tally of each offset kind of one block, each row counted as
    the ORBIT_SIZE records of its constant orbit."""
    n, rows = 1 << block.m, len(block.coeffs)
    sign = block.companion_sign
    # C_c(u) + C_c'(u) of each component c with its companion, once per cell:
    # D's Golay defect, and each form's star and Golay defect, are
    # reductions of these sums
    c = polyphase_lattice(block.components).reshape(-1, n)
    sums = autocorrelation_sums(c, c * sign)
    golay = np.max(golay_defect(sums).reshape(-1, rows), axis=1)
    star_ok = np.all((star_sum(sums) <= 4 * n + STAR_TOL).reshape(-1, rows), axis=1)

    stars, peps = [], []
    for group in _offset_groups(len(block.offsets), rows * n):
        z = block.symbols[group].reshape(-1, n)
        stars.append(star_batch(z, z * sign, block.scale.value))
        peps.append(pep_batch(z / np.sqrt(block.scale.value), oversample))
    star_over_n = np.concatenate(stars).reshape(-1, rows) / n
    pmeprs = np.concatenate(peps).reshape(-1, rows) / n

    out = []
    kinds = np.array(block.kinds)
    for kind in dict.fromkeys(block.kinds):
        mask = kinds == kind
        s, p, index = star_over_n[mask], pmeprs[mask], block.component_index[mask]
        bound = CEILINGS[kind][0]
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
            total=ORBIT_SIZE * s.size,
            star_ok=ORBIT_SIZE * int(np.count_nonzero(ok)),
            pmepr_ok=ORBIT_SIZE * int(np.count_nonzero(p <= bound + PMEPR_TOL)),
            min_star_over_n=float(np.min(s)),
            max_star_over_n=float(np.max(s)),
            max_pmepr=float(np.max(p)),
            golay_defect=int(golay[0]),
            component_ok=component_ok,
            pmepr_le_star=bool(np.all(p <= s + STAR_TOL)),
        ))
    return out


def theorem_bound_audit(
    m: int,
    modulation: Modulation,
    oversample: int = 16,
    jobs: int = 1,
) -> BoundAuditReport:
    """Check every codeword of the family against its star and PMEPR bounds,
    one row per constant orbit."""
    audit = functools.partial(_audit_block, oversample=oversample)
    kinds: dict[str, KindStats] = {}
    for block_stats in map_family_blocks(audit, m, modulation, jobs):
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


def _envelope_gaps(block: FamilyBlock, basis: np.ndarray) -> tuple:
    """The two PEP gaps of a block, one offset of its first axis at a time."""
    gaps = []
    for z in block.complex_symbols():
        p_low, p_high = pep_batch(z, LOW), pep_batch(z, HIGH)
        dense = np.max(np.abs(z @ basis) ** 2, axis=1)
        gaps.append((np.max((p_high - p_low) / p_high), np.max(np.abs(p_high - dense) / dense)))
    return tuple(float(max(g)) for g in zip(*gaps))


def oversampling_audit() -> tuple[float, float]:
    """Max relative PEP gaps over the envelope family, one row per constant
    orbit (a row's PEP is that of its whole orbit): between the two
    oversampling rates, and between pep_batch at the high rate and a
    dense-DFT peak.

    The explicit exp(2*pi*j*i*k/(high*n)) matrix shares no code with the FFT,
    so a kernel that ignores its oversampling rate shows in the second gap
    and not in the first, which compares pep_batch with itself.
    """
    n = 1 << ENVELOPE_M
    grid = HIGH * n
    basis = np.exp(2j * np.pi * (np.outer(np.arange(n), np.arange(grid)) % grid) / grid)
    envelope_gaps = functools.partial(_envelope_gaps, basis=basis)
    gaps = map_family_blocks(envelope_gaps, ENVELOPE_M, ENVELOPE_MODULATION)
    return max(g[0] for g in gaps), max(g[1] for g in gaps)


def _parseval_gap(block: FamilyBlock) -> float:
    """The Parseval gap of a block, one offset of its first axis at a time."""
    gaps = []
    for z, w in zip(block.symbols, block.complex_symbols()):
        mean_power = np.mean(envelope_power_batch(w, LOW), axis=1)
        energy = np.sum(z.real**2 + z.imag**2, axis=1) / block.scale.value
        gaps.append(np.max(np.abs(mean_power - energy) / energy))
    return float(max(gaps))


def parseval_audit() -> float:
    """Max relative gap between grid-mean envelope power and sequence energy
    over the envelope family, one row per constant orbit: zeta^c changes
    neither, so a row's gap is that of its whole orbit."""
    return max(map_family_blocks(_parseval_gap, ENVELOPE_M, ENVELOPE_MODULATION))


def envelope_checks() -> list[CheckResult]:
    """The Parseval and oversampling-adequacy checks of the envelope kernel."""
    family = f"the m={ENVELOPE_M} {ENVELOPE_MODULATION.value} family"
    parseval = parseval_audit()
    gap, dense_gap = oversampling_audit()
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
# name, symbols and published PMEPR.  The example 1 symbols are recomputed
# from the synthesis formula (the published symbol list for this example is
# internally inconsistent with its own component sequences).
_EXAMPLES = (
    (
        "example1",
        EXAMPLE1_PARAMS,
        {"base_sequence": [0, 1, 1, 0, 1, 2, 0, 3], "offset_component": [1, 2, 3, 2, 2, 3, 0, 3]},
        ComplexSequence([1, -3, -1, 1, -3, -1, 3, 3], [3, 1, 1, 1, 1, -3, 3, -3], Scale.QAM16),
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
        ComplexSequence([5, -7, -5, 5, -7, -5, 7, 7], [7, 5, 5, 5, 5, -7, 7, -7], Scale.QAM64),
        3.5,
    ),
)


def example_regression(oversample: int = 16) -> list[CheckResult]:
    """Rebuild both reference examples and pin sequences, symbols, and PMEPR."""
    out: list[CheckResult] = []
    for name, params, components, symbols, published_pmepr in _EXAMPLES:
        record = build(params)
        for (check, expected), observed in zip(
            components.items(), record.components, strict=True
        ):
            observed = observed.tolist()
            out.append(
                CheckResult(f"{name}.{check}", observed == expected, str(observed), str(expected))
            )
        seq = record.sequence
        out.append(
            CheckResult(
                name=f"{name}.symbols",
                passed=seq == symbols,
                observed=f"re={seq.re.tolist()} im={seq.im.tolist()}",
                requirement=f"re={symbols.re.tolist()} im={symbols.im.tolist()} "
                f"(/sqrt({symbols.scale.value}))",
            )
        )
        p = pmepr(seq, oversample)
        out.append(
            CheckResult(
                name=f"{name}.pmepr",
                passed=abs(p - published_pmepr) <= EXAMPLE_PMEPR_TOL,
                observed=f"{p:.6f}",
                requirement=f"{published_pmepr} +/- {EXAMPLE_PMEPR_TOL}",
            )
        )
        s = star(seq, record.primed_sequence) / len(seq)
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
