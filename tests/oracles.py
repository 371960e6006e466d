"""Literal-definition oracles for the library's kernels.

Each function here evaluates its quantity straight from the definition, one
sequence or one record at a time: the per-shift autocorrelation loop, the
full-range star sum, the one-sequence envelope FFT, the per-record lemma
double sums, pointwise Boolean-function evaluation.  The library computes
each of these once, in a batched kernel; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from qamseq.algebra import ZETA_IM, ZETA_INT, ZETA_RE, bit_matrix
from qamseq.constellation import ComplexSequence, LatticeSymbol, Scale, qam16_map, qam64_map
from qamseq.constructions import (
    ConstructionParams,
    Offset16,
    Offset64,
    OffsetKind,
    offset16_values,
    offset64_component_values,
)
from qamseq.gbf import PathQuadratic, psi
from qamseq.verification import LEMMA_TOL

# ---------------------------------------------------------------------------
# indices, constellations, Boolean functions
# ---------------------------------------------------------------------------


def index_of(bits: tuple[int, ...]) -> int:
    """Inverse of bits_of: MSB-first digits back to the integer index."""
    i = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {bits!r}")
        i = (i << 1) | b
    return i


def average_energy(scale: Scale) -> Fraction:
    """Mean squared magnitude over the full grid; 1 for every scale."""
    if scale is Scale.UNIT:
        points = [LatticeSymbol(*ZETA_INT[v], Scale.UNIT) for v in range(4)]
    elif scale is Scale.QAM16:
        points = [qam16_map(u, v) for u in range(4) for v in range(4)]
    else:
        points = [qam64_map(u, v, w) for u in range(4) for v in range(4) for w in range(4)]
    return sum((p.squared_magnitude() for p in points), Fraction(0)) / len(points)


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


def primed(f: PathQuadratic) -> PathQuadratic:
    """Companion function f + 2*x_{pi(m-1)} (adds 2 to the last path coefficient)."""
    lin = list(f.linear)
    lin[f.m - 1] = (lin[f.m - 1] + 2) % 4
    return replace(f, linear=tuple(lin))


def polyphase(values: np.ndarray) -> ComplexSequence:
    """Unit-scale lattice sequence zeta^values for a Z4-valued sequence."""
    v = np.asarray(values, dtype=np.int64) % 4
    return ComplexSequence(re=ZETA_RE[v], im=ZETA_IM[v], scale=Scale.UNIT)


def offset16_eval(o: Offset16, x: tuple[int, ...], pi: tuple[int, ...]) -> int:
    """Offset value s(x) = 2*x_{pi(0)}x_{pi(1)} + d1*x_{pi(0)} + d2*x_{pi(1)} + d3."""
    x0, x1 = x[pi[0]], x[pi[1]]
    return (2 * x0 * x1 + o.d1 * x0 + o.d2 * x1 + o.d3) % 4


# ---------------------------------------------------------------------------
# correlation and envelope, one sequence at a time
# ---------------------------------------------------------------------------


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


def pep(a: ComplexSequence, oversample: int = 16) -> float:
    """Peak of |S(t_k)|^2, S(t_k) = sum_i A_i exp(2*pi*j*i*k/(L*n)), from one
    1-d FFT of this sequence alone."""
    grid = oversample * len(a)
    return float(np.max(np.abs(np.fft.ifft(a.to_complex(), n=grid) * grid) ** 2))


def pmepr(a: ComplexSequence, oversample: int = 16) -> float:
    return pep(a, oversample) / len(a)


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
        return self.residual <= LEMMA_TOL


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


def _three_residuals(
    params: ConstructionParams, first_from_one: bool
) -> tuple[float, float, float]:
    """The weighted a1a2 / a1a3 / a2a3 absolute-sum expressions; the a1a2 sum
    ranges over u >= 1 when first_from_one is set."""
    m, pi = params.m, params.base.pi
    s1, s2 = (s.astype(np.int64) for s in offset64_component_values(params.offset, m, pi))
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


def lemma_reports(params: ConstructionParams) -> list[LemmaReport]:
    """Every applicable lemma residual for one parameter set."""
    if isinstance(params.offset, Offset16):
        return [LemmaReport("L1", params, lemma1_residual(params))]
    if params.offset.kind is OffsetKind.TYPE1:
        ids, vals = ("L2a", "L2b", "L2c"), lemma2_residuals(params)
    else:
        ids, vals = ("L3a", "L3b", "L3c"), lemma3_residuals(params)
    return [LemmaReport(i, params, v) for i, v in zip(ids, vals)]
