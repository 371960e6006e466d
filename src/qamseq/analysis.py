"""The star operator, envelope power, and CCDF.

Aperiodic correlations of lattice-valued sequences are computed as exact
Gaussian integers over the scale denominator; the only floating point in the
star operator is one square root per shift.  Envelope evaluation samples the
continuous-time signal S(t) = sum_i A_i exp(2*pi*j*i*t) on an L-times
oversampled grid t_k = k/(L*n) over one period (w0 = 0, ws = 1, T = 1;
peak-to-mean ratios are invariant to that normalization).  Each quantity has
one batched kernel over (records, n) arrays; star and pmepr are one-row calls
of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ZETA_IM, ZETA_RE
from .constellation import ComplexSequence, Scale, qam16_lattice, qam64_lattice
from .constructions import Modulation

STAR_TOL = 1e-9


@dataclass(frozen=True)
class EnvelopeConfig:
    """Envelope sampling control; oversample L >= 1 grid points per carrier."""

    oversample: int = 16

    def __post_init__(self):
        if self.oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {self.oversample}")


def star(a: ComplexSequence, b: ComplexSequence) -> float:
    """sum over every shift of |C_a(u) + C_b(u)|: a one-row star_batch."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    if a.scale is not b.scale:
        raise ValueError(f"scale mismatch: {a.scale} != {b.scale}")
    rows = (a.re[None, :], a.im[None, :], b.re[None, :], b.im[None, :])
    return float(star_batch(*rows, a.scale.value)[0])


def pmepr(a: ComplexSequence, cfg: EnvelopeConfig = EnvelopeConfig()) -> float:
    """PEP over the code-average power n (unit-average-energy constellations):
    a one-row pep_batch."""
    return float(pep_batch(a.to_complex()[None, :], cfg.oversample)[0]) / len(a)


@dataclass(frozen=True, eq=False)
class CcdfCurve:
    """Exceedance curve: probability that PMEPR strictly exceeds a threshold."""

    thresholds: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if t.shape != p.shape or t.ndim != 1:
            raise ValueError("thresholds and probabilities must be 1-d, equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "probabilities", p)


def default_threshold_grid() -> np.ndarray:
    """Linear PMEPR thresholds 1.0 .. 10.0 in steps of 0.05."""
    return np.linspace(1.0, 10.0, 181)


def ccdf(values, thresholds) -> CcdfCurve:
    """Empirical CCDF of PMEPR samples on an ascending threshold grid."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("need at least one PMEPR sample")
    t = np.asarray(thresholds, dtype=float)
    probs = np.array([np.mean(v > thr) for thr in t])
    return CcdfCurve(thresholds=t, probabilities=probs)


def random_baseline(
    n: int, modulation: Modulation, count: int, seed: int
) -> list[ComplexSequence]:
    """Uniform i.i.d. constellation symbols: the uncoded reference ensemble."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    if modulation is Modulation.QAM16:
        u = rng.integers(0, 4, size=(count, n))
        v = rng.integers(0, 4, size=(count, n))
        re, im = qam16_lattice(u, v)
        scale = Scale.QAM16
    else:
        u = rng.integers(0, 4, size=(count, n))
        v = rng.integers(0, 4, size=(count, n))
        w = rng.integers(0, 4, size=(count, n))
        re, im = qam64_lattice(u, v, w)
        scale = Scale.QAM64
    return [ComplexSequence(re[k], im[k], scale) for k in range(count)]


# ---------------------------------------------------------------------------
# batched kernels over (records, n) integer lattice arrays
# ---------------------------------------------------------------------------


def correlation_sums_batch(
    re_a: np.ndarray, im_a: np.ndarray, re_b: np.ndarray, im_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact numerators of C_a(u) + C_b(u) for u = 0 .. n-1, rows batched.

    Inputs are (B, n) integer arrays; outputs are (B, n) int64.
    """
    b, n = re_a.shape
    sum_re = np.zeros((b, n), dtype=np.int64)
    sum_im = np.zeros((b, n), dtype=np.int64)
    for u in range(n):
        for re, im in ((re_a, im_a), (re_b, im_b)):
            head_re, head_im = re[:, : n - u], im[:, : n - u]
            tail_re, tail_im = re[:, u:], im[:, u:]
            sum_re[:, u] += np.einsum("bi,bi->b", head_re, tail_re)
            sum_re[:, u] += np.einsum("bi,bi->b", head_im, tail_im)
            sum_im[:, u] += np.einsum("bi,bi->b", head_im, tail_re)
            sum_im[:, u] -= np.einsum("bi,bi->b", head_re, tail_im)
    return sum_re, sum_im


def star_batch(
    re_a: np.ndarray,
    im_a: np.ndarray,
    re_b: np.ndarray,
    im_b: np.ndarray,
    denominator: int,
) -> np.ndarray:
    """Star values for a batch of sequence pairs (conjugate-symmetric form)."""
    sum_re, sum_im = correlation_sums_batch(re_a, im_a, re_b, im_b)
    mags = np.hypot(sum_re.astype(float), sum_im.astype(float))
    return (mags[:, 0] + 2 * np.sum(mags[:, 1:], axis=1)) / denominator


def golay_defect_batch(
    re_a: np.ndarray, im_a: np.ndarray, re_b: np.ndarray, im_b: np.ndarray
) -> np.ndarray:
    """Exact integer Golay defect per row: max |numerator| over shifts u != 0.

    Zero iff C_a(u) + C_b(u) = 0 for every nonzero shift.
    """
    sum_re, sum_im = correlation_sums_batch(re_a, im_a, re_b, im_b)
    defect = np.abs(sum_re[:, 1:]) + np.abs(sum_im[:, 1:])
    return np.max(defect, axis=1)


def envelope_power_batch(z: np.ndarray, oversample: int = 16) -> np.ndarray:
    """|S(t_k)|^2 for k = 0 .. L*n - 1, per row of a (B, n) complex array."""
    b, n = z.shape
    grid = EnvelopeConfig(oversample=oversample).oversample * n
    samples = np.fft.ifft(z, n=grid, axis=1) * grid
    return np.abs(samples) ** 2


def pep_batch(z: np.ndarray, oversample: int = 16) -> np.ndarray:
    """Peak |S(t)|^2 per row of a (B, n) complex array."""
    return np.max(envelope_power_batch(z, oversample), axis=1)


def polyphase_lattice(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) int64 arrays of zeta^values for a batch of Z4 arrays."""
    v = np.asarray(values, dtype=np.int64) % 4
    return ZETA_RE[v], ZETA_IM[v]
