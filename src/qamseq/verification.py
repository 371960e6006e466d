"""Brute-force oracles for the cancellation identities and bound audits.

The star-bound proofs rest on cross-term double sums of the shape

    sum_u sum_i zeta^(B_i - B_{i+u}) * (zeta^(s_i) + zeta^(-s_{i+u}))
               * [1 + (-1)^(lb_i - lb_{i+u})]

where B is a component sequence, s an offset sequence and lb the bit at the
path end pi(m-1).  Offsets satisfying their defining congruences make these
sums vanish; the oracles here evaluate them literally (no pairing argument)
and report magnitudes.  Deliberately broken offsets must light them up,
otherwise the oracle proves nothing.

The bound audit sweeps entire families and checks, per codeword: the star
ceiling, the oversampled PMEPR ceiling, pmepr <= star/n, exact Golay
cancellation of the base pair, and the component star ceilings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import ZETA_IM, ZETA_RE, bit_matrix, canonical_permutations, coefficient_matrix
from .analysis import (
    STAR_TOL,
    EnvelopeConfig,
    envelope_mean_power,
    golay_defect_batch,
    pep_batch,
    pmepr,
    polyphase_lattice,
    star,
    star_batch,
)
from .constellation import ComplexSequence, Scale
from .constructions import (
    BOUND_QAM16,
    BOUND_TYPE1,
    BOUND_TYPE2,
    EXACT_BOUND_QAM16,
    EXACT_BOUND_TYPE1,
    EXACT_BOUND_TYPE2,
    ConstructionParams,
    FamilyBlock,
    Modulation,
    Offset16,
    Offset64,
    OffsetKind,
    _offset_list,
    base_rows,
    build,
    component_values,
    family_size,
    map_family_blocks,
    offset16_values,
    offset64_component_values,
    star_bound,
)
from .gbf import PathQuadratic, psi

LEMMA_TOL = 1e-9
PMEPR_TOL = 0.01

_ZC = ZETA_RE + 1j * ZETA_IM

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
        return self.residual <= LEMMA_TOL


@dataclass(frozen=True)
class CheckResult:
    """One verdict line: what was checked, what was seen, what was required."""

    name: str
    passed: bool
    observed: str
    requirement: str


def _last_bits(m: int, pi: tuple[int, ...]) -> np.ndarray:
    return bit_matrix(m)[:, pi[m - 1]].astype(np.int64)


def _cross_inner(
    base: np.ndarray, svals: np.ndarray, last_bits: np.ndarray, u: int
) -> complex:
    """Inner sum over index pairs (i, i+u), both in range, for one shift u."""
    n = base.size
    lo, hi = max(0, -u), min(n, n - u)
    i = np.arange(lo, hi)
    k = i + u
    weight = np.where(last_bits[i] == last_bits[k], 2.0, 0.0)
    term = _ZC[(base[i] - base[k]) % 4] * (_ZC[svals[i] % 4] + _ZC[(-svals[k]) % 4])
    return complex(np.sum(term * weight))


def lemma1_residual(params: ConstructionParams) -> float:
    """|full double sum| for the 16-QAM cross term; ~0 for valid offsets."""
    if not isinstance(params.offset, Offset16):
        raise ValueError("lemma 1 oracle needs an Offset16")
    m, pi = params.m, params.base.pi
    base = psi(params.base).astype(np.int64)
    svals = offset16_values(params.offset, m, pi).astype(np.int64)
    lb = _last_bits(m, pi)
    n = base.size
    total = sum(_cross_inner(base, svals, lb, u) for u in range(1 - n, n))
    return abs(total)


def _offset64_vectors(params: ConstructionParams) -> tuple[np.ndarray, np.ndarray]:
    m, pi = params.m, params.base.pi
    s1, s2 = offset64_component_values(params.offset, m, pi)
    return s1.astype(np.int64), s2.astype(np.int64)


def _three_residuals(
    base: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    lb: np.ndarray,
    first_from_one: bool,
) -> tuple[float, float, float]:
    """The weighted a1a2 / a1a3 / a2a3 absolute-sum expressions.

    The a1a2 sum ranges over u >= 1 when first_from_one is set (its
    zero-shift term is genuinely nonzero for type 1 offsets and belongs to
    the bound, not to the cancellation claim).
    """
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
    s1, s2 = _offset64_vectors(params)
    base = psi(params.base).astype(np.int64)
    lb = _last_bits(params.m, params.base.pi)
    return _three_residuals(base, s1, s2, lb, first_from_one=True)


def lemma3_residuals(params: ConstructionParams) -> tuple[float, float, float]:
    """Type 2 cross-term residuals, all three over the full shift range."""
    if not isinstance(params.offset, Offset64) or params.offset.kind is not OffsetKind.TYPE2:
        raise ValueError("lemma 3 oracle needs a type 2 Offset64")
    s1, s2 = _offset64_vectors(params)
    base = psi(params.base).astype(np.int64)
    lb = _last_bits(params.m, params.base.pi)
    return _three_residuals(base, s1, s2, lb, first_from_one=False)


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
# batched lemma sweep (coefficient rows vectorized)
# ---------------------------------------------------------------------------


def _cross_inner_batch(
    base_all: np.ndarray, svals: np.ndarray, last_bits: np.ndarray, u: int
) -> np.ndarray:
    """_cross_inner for every coefficient row at once; returns (B,) complex."""
    n = base_all.shape[1]
    lo, hi = max(0, -u), min(n, n - u)
    i = np.arange(lo, hi)
    k = i + u
    weight = np.where(last_bits[i] == last_bits[k], 2.0, 0.0)
    factor = (_ZC[svals[i] % 4] + _ZC[(-svals[k]) % 4]) * weight
    diff = (base_all[:, i].astype(np.int64) - base_all[:, k]) % 4
    return _ZC[diff] @ factor


def _lemma1_batch(base_all: np.ndarray, svals: np.ndarray, lb: np.ndarray) -> np.ndarray:
    n = base_all.shape[1]
    total = np.zeros(base_all.shape[0], dtype=complex)
    for u in range(1 - n, n):
        total += _cross_inner_batch(base_all, svals, lb, u)
    return np.abs(total)


def _three_residuals_batch(
    base_all: np.ndarray,
    s1: np.ndarray,
    s2: np.ndarray,
    lb: np.ndarray,
    first_from_one: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = base_all.shape[1]
    comp_all = (base_all + s1) % 4
    s3 = (s1 - s2) % 4
    b = base_all.shape[0]
    r12 = np.zeros(b)
    r13 = np.zeros(b)
    r23 = np.zeros(b)
    for u in range(1 - n, n):
        if u >= 1 or not first_from_one:
            r12 += np.abs(_cross_inner_batch(base_all, s1, lb, u))
        r13 += np.abs(_cross_inner_batch(base_all, s2, lb, u))
        r23 += np.abs(_cross_inner_batch(comp_all, s3, lb, u))
    return _A1A2 * r12, _A1A3 * r13, _A2A3 * r23


@dataclass(frozen=True)
class LemmaSweepResult:
    """Aggregated residual maxima over the sweep plus the negative controls."""

    m: int
    coeff_stride: int
    evaluations: dict[str, int]
    max_residuals: dict[str, float]
    negative_controls: dict[str, float]

    @property
    def passed(self) -> bool:
        sweeps_ok = all(v <= LEMMA_TOL for v in self.max_residuals.values())
        controls_ok = all(v > 0.1 for v in self.negative_controls.values())
        return sweeps_ok and controls_ok

    def checks(self) -> list[CheckResult]:
        out = []
        for lemma_id in sorted(self.max_residuals):
            out.append(
                CheckResult(
                    name=f"lemma.{lemma_id}.max_residual",
                    passed=self.max_residuals[lemma_id] <= LEMMA_TOL,
                    observed=f"{self.max_residuals[lemma_id]:.3e} over "
                    f"{self.evaluations[lemma_id]} evaluations",
                    requirement=f"<= {LEMMA_TOL}",
                )
            )
        for name, value in sorted(self.negative_controls.items()):
            out.append(
                CheckResult(
                    name=f"lemma.negative_control.{name}",
                    passed=value > 0.1,
                    observed=f"{value:.6f}",
                    requirement="> 0.1",
                )
            )
        return out


def _example_base(m: int = 3) -> PathQuadratic:
    return PathQuadratic(m=m, pi=tuple(range(m)), linear=(1,) * m, constant=0)


def negative_controls(m: int = 3) -> dict[str, float]:
    """Constraint-violating offsets pushed through the oracles.

    L1: offset triple (0,0,0), violating both congruences.
    L2: type 1 record with (h1, h3) = (2, 0), violating h1+2*h3=0.
    L3: a genuine type 1 record relabeled type 2 and re-evaluated.
    """
    base = _example_base(m)
    d = Offset16(0, 1, 1)
    l1 = lemma1_residual(ConstructionParams(base, Offset16(0, 0, 0)))
    l2 = max(
        lemma2_residuals(ConstructionParams(base, Offset64(OffsetKind.TYPE1, d, 2, 0, 0)))
    )
    l3 = max(
        lemma3_residuals(ConstructionParams(base, Offset64(OffsetKind.TYPE2, d, 0, 0, 0)))
    )
    return {"L1": l1, "L2": l2, "L3": l3}


def lemma_sweep(m: int = 3, coeff_stride: int = 4) -> LemmaSweepResult:
    """Exhaustive offset/permutation sweep of every lemma residual at one m.

    Coefficient tuples are subsampled with a fixed stride (the identities are
    coefficient-independent; the sweep hunts implementation bugs), and the
    first permutation additionally gets the full coefficient grid.
    """
    coeffs = coefficient_matrix(m)
    perms = canonical_permutations(m)
    maxima: dict[str, float] = {k: 0.0 for k in ("L1", "L2a", "L2b", "L2c", "L3a", "L3b", "L3c")}
    counts: dict[str, int] = {k: 0 for k in maxima}

    def fold(key: str, residuals: np.ndarray) -> None:
        maxima[key] = max(maxima[key], float(np.max(residuals)))
        counts[key] += int(residuals.size)

    for pi_index, pi in enumerate(perms):
        rows = coeffs if pi_index == 0 else coeffs[::coeff_stride]
        base_all = base_rows(m, pi, rows)
        lb = _last_bits(m, pi)
        for off in _offset_list(Modulation.QAM16):
            svals = offset16_values(off, m, pi).astype(np.int64)
            fold("L1", _lemma1_batch(base_all, svals, lb))
        for off in _offset_list(Modulation.QAM64):
            s1, s2 = offset64_component_values(off, m, pi)
            s1, s2 = s1.astype(np.int64), s2.astype(np.int64)
            type1 = off.kind is OffsetKind.TYPE1
            r12, r13, r23 = _three_residuals_batch(
                base_all, s1, s2, lb, first_from_one=type1
            )
            prefix = "L2" if type1 else "L3"
            fold(prefix + "a", r12)
            fold(prefix + "b", r13)
            fold(prefix + "c", r23)

    return LemmaSweepResult(
        m=m,
        coeff_stride=coeff_stride,
        evaluations=counts,
        max_residuals=maxima,
        negative_controls=negative_controls(m),
    )


# ---------------------------------------------------------------------------
# family-wide bound audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KindStats:
    kind: str
    bound: float
    exact_bound: str
    total: int
    star_ok: int
    pmepr_ok: int
    min_star_over_n: float
    max_star_over_n: float
    max_pmepr: float


@dataclass(frozen=True)
class BoundAuditReport:
    m: int
    modulation: Modulation
    oversample: int
    total: int
    expected_total: int
    golay_exact: bool
    component_bounds_ok: bool
    pmepr_le_star_ok: bool
    strictly_near_complementary: bool
    distinct_sequences: int
    kinds: tuple[KindStats, ...]

    @property
    def passed(self) -> bool:
        per_kind = all(k.star_ok == k.total and k.pmepr_ok == k.total for k in self.kinds)
        return (
            per_kind
            and self.total == self.expected_total
            and self.golay_exact
            and self.component_bounds_ok
            and self.pmepr_le_star_ok
        )

    def checks(self) -> list[CheckResult]:
        out = [
            CheckResult(
                name=f"bounds.{self.modulation.value}.m{self.m}.count",
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
                    name=f"bounds.{self.modulation.value}.m{self.m}.{k.kind}.star",
                    passed=k.star_ok == k.total,
                    observed=f"max star/n = {k.max_star_over_n:.12f} "
                    f"(min {k.min_star_over_n:.12f}, exact bound {k.exact_bound})",
                    requirement=f"{star_req} on {k.total} records",
                )
            )
            out.append(
                CheckResult(
                    name=f"bounds.{self.modulation.value}.m{self.m}.{k.kind}.pmepr",
                    passed=k.pmepr_ok == k.total,
                    observed=f"max pmepr(L={self.oversample}) = {k.max_pmepr:.12f}",
                    requirement=f"<= {k.bound} + {PMEPR_TOL}",
                )
            )
        out.append(
            CheckResult(
                name=f"bounds.{self.modulation.value}.m{self.m}.golay_base_pair",
                passed=self.golay_exact,
                observed="exact integer cancellation" if self.golay_exact else "defect found",
                requirement="C_D(u) + C_D'(u) = 0 for every u != 0, all records",
            )
        )
        out.append(
            CheckResult(
                name=f"bounds.{self.modulation.value}.m{self.m}.component_stars",
                passed=self.component_bounds_ok,
                observed="ok" if self.component_bounds_ok else "violation",
                requirement="offset components star <= 4n (type 1 first component Golay)",
            )
        )
        out.append(
            CheckResult(
                name=f"bounds.{self.modulation.value}.m{self.m}.pmepr_le_star",
                passed=self.pmepr_le_star_ok,
                observed="ok" if self.pmepr_le_star_ok else "violation",
                requirement=f"pmepr <= star/n + {STAR_TOL} on every record",
            )
        )
        out.append(
            CheckResult(
                name=f"bounds.{self.modulation.value}.m{self.m}.strictly_near_complementary",
                passed=self.strictly_near_complementary,
                observed="max star/n > 2" if self.strictly_near_complementary else "all Golay",
                requirement="at least one record with star/n > 2",
            )
        )
        out.append(
            CheckResult(
                name=f"bounds.{self.modulation.value}.m{self.m}.distinct_sequences",
                passed=True,
                observed=f"{self.distinct_sequences} distinct of {self.total} tuples",
                requirement="reported, not asserted",
            )
        )
        return out


def _audit_block(block: FamilyBlock, oversample: int) -> dict:
    n = 1 << block.m
    bound = star_bound(block.offset)
    stars = star_batch(
        block.sym_re, block.sym_im, block.primed_re, block.primed_im, block.scale.value
    )
    star_over_n = stars / n
    ok = star_over_n <= bound + STAR_TOL
    if block.kind == "qam16":
        # the 2n floor is a 16-QAM fact here: the r1*r2 energy cross terms
        # sum to zero over valid offsets, so C(0)_H + C(0)_H' = 2n exactly.
        # 64-QAM type 1 offsets with s1 = 2 collapse the two largest
        # components and land below 2n; only the ceiling is asserted there.
        ok &= star_over_n >= 2.0 - STAR_TOL
    star_ok = np.count_nonzero(ok)
    peps = pep_batch(block.complex_symbols(), oversample)
    pmeprs = peps / n
    pmepr_ok = np.count_nonzero(pmeprs <= bound + PMEPR_TOL)
    pmepr_le_star = bool(np.all(pmeprs <= star_over_n + STAR_TOL))

    base_re, base_im = polyphase_lattice(block.components[0])
    basep_re, basep_im = polyphase_lattice(block.primed_components[0])
    golay_defect = int(np.max(golay_defect_batch(base_re, base_im, basep_re, basep_im)))

    comp_ok = True
    for idx in range(1, len(block.components)):
        c_re, c_im = polyphase_lattice(block.components[idx])
        cp_re, cp_im = polyphase_lattice(block.primed_components[idx])
        comp_star = star_batch(c_re, c_im, cp_re, cp_im, 1)
        comp_ok &= bool(np.all(comp_star <= 4 * n + STAR_TOL))
        if block.kind == "type1" and idx == 1:
            # type 1 first component is base + linear offset: still a Golay pair
            defect = int(np.max(golay_defect_batch(c_re, c_im, cp_re, cp_im)))
            comp_ok &= defect == 0

    sym = np.concatenate([block.sym_re, block.sym_im], axis=1).astype(np.int8)
    hashes = {row.tobytes() for row in sym}

    return {
        "kind": block.kind,
        "count": int(len(block)),
        "star_ok": int(star_ok),
        "pmepr_ok": int(pmepr_ok),
        "min_star_over_n": float(np.min(star_over_n)),
        "max_star_over_n": float(np.max(star_over_n)),
        "max_pmepr": float(np.max(pmeprs)),
        "pmepr_le_star": pmepr_le_star,
        "golay_defect": golay_defect,
        "component_ok": bool(comp_ok),
        "hashes": hashes,
    }


def theorem_bound_audit(
    m: int,
    modulation: Modulation,
    oversample: int = 16,
    jobs: int | None = None,
) -> BoundAuditReport:
    """Check every codeword of the family against its star and PMEPR bounds."""
    audit = functools.partial(_audit_block, oversample=oversample)
    results = map_family_blocks(audit, m, modulation, jobs)
    kinds: dict[str, dict] = {}
    hashes: set[bytes] = set()
    golay_defect = 0
    comp_ok = True
    pmepr_le_star = True
    for r in results:
        st = kinds.setdefault(
            r["kind"],
            {
                "total": 0,
                "star_ok": 0,
                "pmepr_ok": 0,
                "min_star": np.inf,
                "max_star": 0.0,
                "max_pmepr": 0.0,
            },
        )
        st["total"] += r["count"]
        st["star_ok"] += r["star_ok"]
        st["pmepr_ok"] += r["pmepr_ok"]
        st["min_star"] = min(st["min_star"], r["min_star_over_n"])
        st["max_star"] = max(st["max_star"], r["max_star_over_n"])
        st["max_pmepr"] = max(st["max_pmepr"], r["max_pmepr"])
        hashes |= r["hashes"]
        golay_defect = max(golay_defect, r["golay_defect"])
        comp_ok &= r["component_ok"]
        pmepr_le_star &= r["pmepr_le_star"]

    bound_of = {"qam16": BOUND_QAM16, "type1": BOUND_TYPE1, "type2": BOUND_TYPE2}
    exact_of = {
        "qam16": str(EXACT_BOUND_QAM16),
        "type1": str(EXACT_BOUND_TYPE1),
        "type2": str(EXACT_BOUND_TYPE2),
    }
    kind_stats = tuple(
        KindStats(
            kind=k,
            bound=bound_of[k],
            exact_bound=exact_of[k],
            total=st["total"],
            star_ok=st["star_ok"],
            pmepr_ok=st["pmepr_ok"],
            min_star_over_n=st["min_star"],
            max_star_over_n=st["max_star"],
            max_pmepr=st["max_pmepr"],
        )
        for k, st in sorted(kinds.items())
    )
    total = sum(k.total for k in kind_stats)
    max_star = max(k.max_star_over_n for k in kind_stats)
    return BoundAuditReport(
        m=m,
        modulation=modulation,
        oversample=oversample,
        total=total,
        expected_total=family_size(m, modulation),
        golay_exact=golay_defect == 0,
        component_bounds_ok=comp_ok,
        pmepr_le_star_ok=pmepr_le_star,
        strictly_near_complementary=max_star > 2.0 + STAR_TOL,
        distinct_sequences=len(hashes),
        kinds=kind_stats,
    )


def _envelope_gaps(block: FamilyBlock, low: int, high: int, basis: np.ndarray) -> tuple:
    z = block.complex_symbols()
    p_low = pep_batch(z, low)
    p_high = pep_batch(z, high)
    dense = np.max(np.abs(z @ basis) ** 2, axis=1)
    return float(np.max((p_high - p_low) / p_high)), float(np.max(np.abs(p_high - dense) / dense))


def oversampling_audit(
    m: int, modulation: Modulation, low: int = 16, high: int = 32
) -> tuple[float, float]:
    """Max relative PEP gaps over a family: between the two oversampling
    rates, and between pep_batch at the high rate and a dense-DFT peak.

    The explicit exp(2*pi*j*i*k/(high*n)) matrix shares no code with the FFT,
    so a kernel that ignores its oversampling rate shows in the second gap
    and not in the first, which compares pep_batch with itself.
    """
    n = 1 << m
    grid = high * n
    basis = np.exp(2j * np.pi * (np.outer(np.arange(n), np.arange(grid)) % grid) / grid)
    gaps = map_family_blocks(
        functools.partial(_envelope_gaps, low=low, high=high, basis=basis), m, modulation, jobs=1
    )
    return max(g[0] for g in gaps), max(g[1] for g in gaps)


def parseval_audit(
    m: int = 3,
    modulation: Modulation = Modulation.QAM16,
    count: int = 100,
    seed: int = 20240731,
    oversample: int = 16,
) -> float:
    """Max relative gap between grid-mean envelope power and sequence energy
    over randomly sampled family codewords."""
    rng = np.random.default_rng(seed)
    perms = canonical_permutations(m)
    offsets = _offset_list(modulation)
    coeffs = coefficient_matrix(m)
    cfg = EnvelopeConfig(oversample=oversample)
    worst = 0.0
    for _ in range(count):
        pi = perms[rng.integers(len(perms))]
        row = coeffs[rng.integers(len(coeffs))]
        off = offsets[rng.integers(len(offsets))]
        base = PathQuadratic(
            m=m, pi=pi, linear=tuple(int(v) for v in row[:m]), constant=int(row[m])
        )
        record = build(ConstructionParams(base, off))
        mean_power = envelope_mean_power(record.sequence, cfg)
        energy = float(record.sequence.energy())
        worst = max(worst, abs(mean_power - energy) / energy)
    return worst


# ---------------------------------------------------------------------------
# reference-example regression
# ---------------------------------------------------------------------------

EXAMPLE1_PARAMS = ConstructionParams(
    base=PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0),
    offset=Offset16(0, 1, 1),
)
EXAMPLE1_BASE = (0, 1, 1, 0, 1, 2, 0, 3)
EXAMPLE1_COMPONENT = (1, 2, 3, 2, 2, 3, 0, 3)
# recomputed from the synthesis formula (the published symbol list for this
# example is internally inconsistent with its own component sequences)
EXAMPLE1_SYMBOLS_RE = (1, -3, -1, 1, -3, -1, 3, 3)
EXAMPLE1_SYMBOLS_IM = (3, 1, 1, 1, 1, -3, 3, -3)
EXAMPLE1_PMEPR = 2.1

EXAMPLE2_PARAMS = ConstructionParams(
    base=PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0),
    offset=Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0),
)
EXAMPLE2_COMPONENTS = (
    (0, 1, 1, 0, 1, 2, 0, 3),
    (0, 1, 1, 0, 1, 2, 0, 3),
    (1, 2, 3, 2, 2, 3, 0, 3),
)
EXAMPLE2_SYMBOLS_RE = (5, -7, -5, 5, -7, -5, 7, 7)
EXAMPLE2_SYMBOLS_IM = (7, 5, 5, 5, 5, -7, 7, -7)
EXAMPLE2_PMEPR = 3.5
EXAMPLE_PMEPR_TOL = 0.05


def _seq_check(name: str, observed: np.ndarray, expected: Sequence[int]) -> CheckResult:
    obs = tuple(int(v) for v in observed)
    return CheckResult(
        name=name,
        passed=obs == tuple(expected),
        observed=str(list(obs)),
        requirement=str(list(expected)),
    )


def example_regression(oversample: int = 16) -> list[CheckResult]:
    """Rebuild both reference examples and pin sequences, symbols, and PMEPR."""
    cfg = EnvelopeConfig(oversample=oversample)
    out: list[CheckResult] = []

    rec1 = build(EXAMPLE1_PARAMS)
    d1, e1 = component_values(EXAMPLE1_PARAMS)
    out.append(_seq_check("example1.base_sequence", d1, EXAMPLE1_BASE))
    out.append(_seq_check("example1.offset_component", e1, EXAMPLE1_COMPONENT))
    expected1 = ComplexSequence(
        np.array(EXAMPLE1_SYMBOLS_RE), np.array(EXAMPLE1_SYMBOLS_IM), Scale.QAM16
    )
    out.append(
        CheckResult(
            name="example1.symbols",
            passed=rec1.sequence == expected1,
            observed=f"re={rec1.sequence.re.tolist()} im={rec1.sequence.im.tolist()}",
            requirement=f"re={list(EXAMPLE1_SYMBOLS_RE)} im={list(EXAMPLE1_SYMBOLS_IM)} (/sqrt(10))",
        )
    )
    p1 = pmepr(rec1.sequence, cfg)
    out.append(
        CheckResult(
            name="example1.pmepr",
            passed=abs(p1 - EXAMPLE1_PMEPR) <= EXAMPLE_PMEPR_TOL,
            observed=f"{p1:.6f}",
            requirement=f"{EXAMPLE1_PMEPR} +/- {EXAMPLE_PMEPR_TOL}",
        )
    )
    s1 = star(rec1.sequence, rec1.primed_sequence) / len(rec1.sequence)
    out.append(
        CheckResult(
            name="example1.star_bound",
            passed=p1 <= s1 + STAR_TOL and s1 <= 2.4 + STAR_TOL,
            observed=f"star/n = {s1:.12f}",
            requirement=f"pmepr <= star/n <= 2.4 (+{STAR_TOL})",
        )
    )

    rec2 = build(EXAMPLE2_PARAMS)
    comps2 = component_values(EXAMPLE2_PARAMS)
    for idx, (obs, exp) in enumerate(zip(comps2, EXAMPLE2_COMPONENTS)):
        out.append(_seq_check(f"example2.component{idx}", obs, exp))
    expected2 = ComplexSequence(
        np.array(EXAMPLE2_SYMBOLS_RE), np.array(EXAMPLE2_SYMBOLS_IM), Scale.QAM64
    )
    out.append(
        CheckResult(
            name="example2.symbols",
            passed=rec2.sequence == expected2,
            observed=f"re={rec2.sequence.re.tolist()} im={rec2.sequence.im.tolist()}",
            requirement=f"re={list(EXAMPLE2_SYMBOLS_RE)} im={list(EXAMPLE2_SYMBOLS_IM)} (/sqrt(42))",
        )
    )
    p2 = pmepr(rec2.sequence, cfg)
    out.append(
        CheckResult(
            name="example2.pmepr",
            passed=abs(p2 - EXAMPLE2_PMEPR) <= EXAMPLE_PMEPR_TOL,
            observed=f"{p2:.6f}",
            requirement=f"{EXAMPLE2_PMEPR} +/- {EXAMPLE_PMEPR_TOL}",
        )
    )
    s2 = star(rec2.sequence, rec2.primed_sequence) / len(rec2.sequence)
    out.append(
        CheckResult(
            name="example2.star_bound",
            passed=p2 <= s2 + STAR_TOL and s2 <= 3.62 + STAR_TOL,
            observed=f"star/n = {s2:.12f}",
            requirement=f"pmepr <= star/n <= 3.62 (+{STAR_TOL})",
        )
    )
    return out
