"""The star operator, envelope power, and CCDF.

Lattice sequences (symbols over their scale denominator, zeta powers of Z4
sequences) are complex128 arrays of Gaussian integers, and one exact
cross-correlation kernel serves star, the Golay check and the lemma sums:
every value and every sum is a Gaussian integer far below 2^53, which
complex128 holds exactly.  The only rounding in the star operator is one
square root per shift.  Envelope evaluation samples the continuous-time signal
S(t) = sum_i A_i exp(2*pi*j*i*t) on an L-times oversampled grid
t_k = k/(L*n) over one period (w0 = 0, ws = 1, T = 1; peak-to-mean ratios
are invariant to that normalization).  Each quantity has one batched kernel
over (records, n) arrays; star and pmepr are one-row calls of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ZETA
from .constellation import ComplexSequence, qam_lattice
from .constructions import CHUNK_SYMBOLS, Modulation


def star(a: ComplexSequence, b: ComplexSequence) -> float:
    """sum over every shift of |C_a(u) + C_b(u)|: a one-row star_batch."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    if a.scale is not b.scale:
        raise ValueError(f"scale mismatch: {a.scale} != {b.scale}")
    rows = ((s.re + 1j * s.im)[None, :] for s in (a, b))
    return float(star_batch(*rows, a.scale.value)[0])


def pmepr(a: ComplexSequence, oversample: int = 16) -> float:
    """PEP over the code-average power n (unit-average-energy constellations),
    sampled at oversample grid points per carrier: a one-row pep_batch."""
    return float(pep_batch(a.to_complex()[None, :], oversample)[0]) / len(a)


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
    """Empirical CCDF of PMEPR samples on an ascending threshold grid: the
    share of samples strictly above each threshold, from one sort."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("need at least one PMEPR sample")
    t = np.asarray(thresholds, dtype=float)
    probs = (v.size - np.searchsorted(v, t, side="right")) / v.size
    return CcdfCurve(thresholds=t, probabilities=probs)


def random_baseline(n: int, modulation: Modulation, count: int, seed: int) -> np.ndarray:
    """(count, n) complex unit-average-energy symbols, uniform i.i.d. over the
    constellation (as ComplexSequence.to_complex): the uncoded reference ensemble."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    components = (rng.integers(0, 4, size=(count, n)) for _ in range(modulation.components))
    points, scale = qam_lattice(*components)
    return points / np.sqrt(scale.value)


# ---------------------------------------------------------------------------
# batched kernels over (records, n) complex lattice arrays
# ---------------------------------------------------------------------------


def correlation_sums_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact sum over k of X_{a_k,b_k}(u) for u = 0 .. n-1, rows batched,
    where X_{a,b}(u) = sum_i a_i * conj(b_{i+u}).

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


def star_sum(sums: np.ndarray) -> np.ndarray:
    """|T(0)| + 2 * sum_{u>=1} |T(u)| per row of (B, n) sums T(u), u >= 0:
    the sum of |T| over every shift of a conjugate-symmetric T(-u) = conj T(u)."""
    mags = np.hypot(sums.real, sums.imag)
    return mags[:, 0] + 2 * np.sum(mags[:, 1:], axis=1)


def autocorrelation_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_a(u) + C_b(u) for u = 0 .. n-1 per row of (B, n) lattice arrays:
    the pair (a, b) correlated with itself.  star_sum and golay_defect reduce these sums."""
    pair = np.stack([a, b])
    return correlation_sums_batch(pair, pair)


def star_batch(a: np.ndarray, b: np.ndarray, denominator: int) -> np.ndarray:
    """Star values for a batch of sequence pairs (conjugate-symmetric form)."""
    return star_sum(autocorrelation_sums(a, b)) / denominator


def golay_defect(sums: np.ndarray) -> np.ndarray:
    """Exact integer Golay defect per row of (B, n) autocorrelation sums:
    max |numerator| over shifts u != 0.

    Zero iff C_a(u) + C_b(u) = 0 for every nonzero shift.
    """
    side = sums[:, 1:]
    return np.max(np.abs(side.real) + np.abs(side.imag), axis=1).astype(np.int64)


def golay_defect_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golay defect per row of a batch of sequence pairs."""
    return golay_defect(autocorrelation_sums(a, b))


def envelope_power_batch(z: np.ndarray, oversample: int = 16) -> np.ndarray:
    """|S(t_k)|^2 for k = 0 .. L*n - 1, per row of a (B, n) complex array."""
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    grid = oversample * z.shape[1]
    samples = np.fft.ifft(z, n=grid, axis=1)
    samples *= grid
    power = np.abs(samples)
    power **= 2
    return power


def pep_batch(z: np.ndarray, oversample: int = 16) -> np.ndarray:
    """Peak |S(t)|^2 per row of a (B, n) complex array, over slices of rows
    whose L*n grids hold at most CHUNK_SYMBOLS points together: a batch's
    envelope is never held whole, and each row's peak is the same in any slice."""
    step = max(1, CHUNK_SYMBOLS // max(1, oversample * z.shape[1]))
    peaks = np.empty(len(z))
    for start in range(0, len(z), step):
        power = envelope_power_batch(z[start : start + step], oversample)
        peaks[start : start + step] = np.max(power, axis=1)
    return peaks


def polyphase_lattice(values: np.ndarray) -> np.ndarray:
    """The complex128 Gaussian integers zeta^values for a batch of Z4 arrays."""
    return ZETA[np.asarray(values, dtype=np.int64) % 4]
