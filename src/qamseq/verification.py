"""Brute-force oracles for the cancellation identities and bound audits.

The star-bound proofs rest on cross-term double sums of the shape

    sum_u sum_i zeta^(B_i - B_{i+u}) * (zeta^(s_i) + zeta^(-s_{i+u}))
               * [1 + (-1)^(lb_i - lb_{i+u})]

where B is a component sequence, s an offset sequence and lb the bit at the
path end pi(m-1).  Offsets satisfying their defining congruences make these
sums vanish.  With P = zeta^(B+s), Q = zeta^B and the companion sign
(-1)^lb, the inner sum at shift u is a sum of four cross-correlations of P,
Q and their companions; the sweep evaluates it for u >= 0 with the library's
one correlation kernel, many base rows at a time, takes the negative shifts
from T(-u) = conj T(u), and reports magnitudes.  The sums are exact
Gaussian integers, so a residual passes only at exactly 0.  Deliberately
broken offsets must light them up, otherwise the sweep proves nothing.

The bound audit sweeps entire families and checks, per codeword: the star
ceiling, the oversampled PMEPR ceiling, pmepr <= star/n, exact Golay
cancellation of the base pair, and the component star ceilings.  Every
companion sequence is FamilyBlock.companion_sign times its sequence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import canonical_permutations, coefficient_matrix
from .analysis import (
    STAR_TOL,
    EnvelopeConfig,
    correlation_sums_batch,
    envelope_power_batch,
    golay_defect_batch,
    pep_batch,
    pmepr,
    polyphase_lattice,
    star,
    star_batch,
    star_sum,
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
    Offset,
    Offset16,
    Offset64,
    OffsetKind,
    _offset_list,
    build,
    companion_sign,
    component_values,
    family_size,
    map_family_blocks,
    offset16_values,
    offset64_component_values,
    star_bound,
)
from .gbf import PathQuadratic, base_rows

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


def _lemma_sums(base_all: np.ndarray, svals: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """T(u) for u = 0 .. n-1 per row of base_all, the inner sum of the
    cross-term double sum at shift u: with P = zeta^(B+s), Q = zeta^B, the
    companion sign g and X_{a,b}(u) = sum_i a_i conj(b_{i+u}),

        T = X_{P,Q} + X_{Q,P} + X_{gP,gQ} + X_{gQ,gP},   T(-u) = conj T(u).
    """
    p_re, p_im = polyphase_lattice(base_all.astype(np.int64) + svals)
    q_re, q_im = polyphase_lattice(base_all)
    p, q = p_re + 1j * p_im, q_re + 1j * q_im
    return correlation_sums_batch(
        np.stack([p, q, sign * p, sign * q]), np.stack([q, p, sign * q, sign * p])
    )


def _lemma_residuals(
    base_all: np.ndarray, offset: Offset, m: int, pi: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """Every lemma residual of one offset, per base row: L1 for a 16-QAM
    offset, L2a-c for a type 1 and L3a-c for a type 2 64-QAM offset.

    L1 is |sum over every shift of T(u)|, an exact integer.  The others are
    weighted sums of |T(u)| over every shift, except the type 1 a1a2 sum,
    which ranges over u >= 1 (its zero-shift term is genuinely nonzero for
    type 1 offsets and belongs to the bound, not to the cancellation claim).
    """
    sign = companion_sign(m, pi)
    if isinstance(offset, Offset16):
        t = _lemma_sums(base_all, offset16_values(offset, m, pi), sign).real
        return {"L1": np.abs(t[:, 0] + 2 * np.sum(t[:, 1:], axis=1))}
    s1, s2 = (s.astype(np.int64) for s in offset64_component_values(offset, m, pi))
    t12 = _lemma_sums(base_all, s1, sign)
    r13 = star_sum(_lemma_sums(base_all, s2, sign))
    r23 = star_sum(_lemma_sums((base_all + s1) % 4, (s1 - s2) % 4, sign))
    if offset.kind is OffsetKind.TYPE1:
        prefix, r12 = "L2", np.sum(np.abs(t12[:, 1:]), axis=1)
    else:
        prefix, r12 = "L3", star_sum(t12)
    residuals = (_A1A2 * r12, _A1A3 * r13, _A2A3 * r23)
    return {prefix + part: r for part, r in zip("abc", residuals)}


@dataclass(frozen=True)
class LemmaSweepResult:
    """Aggregated residual maxima over the sweep plus the negative controls."""

    m: int
    evaluations: dict[str, int]
    max_residuals: dict[str, float]
    negative_controls: dict[str, float]

    @property
    def passed(self) -> bool:
        sweeps_ok = all(v == 0 for v in self.max_residuals.values())
        controls_ok = all(v > 0.1 for v in self.negative_controls.values())
        return sweeps_ok and controls_ok

    def checks(self) -> list[CheckResult]:
        out = []
        for lemma_id in sorted(self.max_residuals):
            out.append(
                CheckResult(
                    name=f"lemma.{lemma_id}.max_residual",
                    passed=self.max_residuals[lemma_id] == 0,
                    observed=f"{self.max_residuals[lemma_id]:.3e} over "
                    f"{self.evaluations[lemma_id]} evaluations",
                    requirement="= 0",
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
        residuals = _lemma_residuals(row, off, m, pi).values()
        out[name] = max(float(r[0]) for r in residuals)
    return out


def lemma_sweep(m: int = 3) -> LemmaSweepResult:
    """Every lemma residual at one m, over every (pi, linear part, offset).

    Each linear part is walked once, with constant 0.  That is exhaustive:
    a constant c multiplies P and Q by zeta^c, so every product
    P_i conj(Q_{i+u}), and with it every lemma sum, does not depend on c.
    The sums are exact, so a residual passes only at exactly 0.
    """
    if m <= 2:
        raise ValueError(f"family defined for m > 2, got m={m}")
    rows = coefficient_matrix(m)[::4]  # the constant varies fastest
    maxima: dict[str, float] = {k: 0.0 for k in ("L1", "L2a", "L2b", "L2c", "L3a", "L3b", "L3c")}
    counts: dict[str, int] = {k: 0 for k in maxima}

    for pi in canonical_permutations(m):
        base_all = base_rows(m, pi, rows)
        for off in _offset_list(Modulation.QAM16) + _offset_list(Modulation.QAM64):
            for key, residuals in _lemma_residuals(base_all, off, m, pi).items():
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
    sign = block.companion_sign
    stars = star_batch(
        block.sym_re, block.sym_im, block.sym_re * sign, block.sym_im * sign, block.scale.value
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

    # each component's polyphase sequence with its companion: (re, im, re', im')
    pairs = []
    for component in block.components:
        c_re, c_im = polyphase_lattice(component)
        pairs.append((c_re, c_im, c_re * sign, c_im * sign))
    golay_defect = int(np.max(golay_defect_batch(*pairs[0])))

    comp_ok = True
    for idx in range(1, len(pairs)):
        comp_star = star_batch(*pairs[idx], 1)
        comp_ok &= bool(np.all(comp_star <= 4 * n + STAR_TOL))
        if block.kind == "type1" and idx == 1:
            # type 1 first component is base + linear offset: still a Golay pair
            defect = int(np.max(golay_defect_batch(*pairs[idx])))
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
    worst = 0.0
    for _ in range(count):
        pi = perms[rng.integers(len(perms))]
        row = coeffs[rng.integers(len(coeffs))]
        off = offsets[rng.integers(len(offsets))]
        base = PathQuadratic(
            m=m, pi=pi, linear=tuple(int(v) for v in row[:m]), constant=int(row[m])
        )
        record = build(ConstructionParams(base, off))
        z = record.sequence.to_complex()[None, :]
        mean_power = float(np.mean(envelope_power_batch(z, oversample)))
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
