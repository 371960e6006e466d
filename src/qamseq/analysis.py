"""The star operator, envelope power, and CCDF.

Lattice sequences (symbols over their scale denominator, zeta powers of Z4
sequences) are complex128 arrays of Gaussian integers.  Every value and every
sum below is a Gaussian integer far below 2^53, which complex128 holds
exactly; the only rounding in the star operator is one correctly rounded
square root of the exact norm re^2 + im^2 per shift, and the sum over shifts.
Every sequence a family walk correlates lies in a coset zeta^D * x of one base
row D, and coset_correlation_sums, the one correlation kernel, correlates a
whole family cell that way: one matrix product per shift for every (row,
term) pair.  star, star_batch and golay_defect_batch are its D = 0, g = 0
reductions, kept for the library example and the benchmark's tracer; the
literal per-shift loop is the tests' reference.  Envelope evaluation samples
the continuous-time signal S(t) = sum_i A_i exp(2*pi*j*i*t) on an L-times
oversampled grid t_k = k/(L*n) over one period (w0 = 0, ws = 1, T = 1;
peak-to-mean ratios are invariant to that normalization).  Each quantity has
one batched kernel over (records, n) arrays; star and pmepr are one-row calls
of them.  orbit_peps scores a row for the conjugation x reversal x
quarter-shift images of its sequence too, and computes their PEPs only where
pep_spread says that a decision could tell them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ZETA
from .constellation import qam_lattice
from .constructions import CHUNK_SYMBOLS, FULL_ORBIT_SIZE, ORBIT_SIZE, SHIFT_ORBIT_SIZE, Modulation


def star(a: np.ndarray, b: np.ndarray, denominator: int) -> float:
    """sum over every shift of |C_a(u) + C_b(u)| over the scale denominator,
    for two equal-length rows of Gaussian integers: a one-row star_batch."""
    return float(star_batch(a[None, :], b[None, :], denominator)[0])


def pmepr(z: np.ndarray, oversample: int = 16) -> float:
    """PEP over the code-average power n of one row z of unit-average-energy
    symbols, sampled at oversample grid points per carrier: a one-row pep_batch."""
    return float(pep_batch(z[None, :], oversample)[0]) / len(z)


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


def ccdf(values, thresholds, weights=None) -> CcdfCurve:
    """Empirical CCDF of PMEPR samples on an ascending threshold grid: the
    share of samples strictly above each threshold, from one sort.  Sample k
    counts weights[k] times (an integer, 1 by default): each share is the
    integer weight above the threshold over the integer total."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("need at least one PMEPR sample")
    w = np.ones(v.size, np.int64) if weights is None else np.asarray(weights, np.int64)
    order = np.argsort(v, kind="stable")
    above = np.append(np.cumsum(w[order][::-1])[::-1], 0)  # the weight from each index on
    t = np.asarray(thresholds, dtype=float)
    probs = above[np.searchsorted(v[order], t, side="right")] / above[0]
    return CcdfCurve(thresholds=t, probabilities=probs)


def random_baseline(n: int, modulation: Modulation, count: int, seed: int) -> np.ndarray:
    """(count, n) complex unit-average-energy symbols, uniform i.i.d. over the
    constellation (as FamilyBlock.complex_symbols): the uncoded reference ensemble."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    components = (rng.integers(0, 4, size=(count, n)) for _ in range(modulation.components))
    points, scale = qam_lattice(*components)
    return points / np.sqrt(scale.value)


# ---------------------------------------------------------------------------
# batched kernels over (records, n) complex lattice arrays
# ---------------------------------------------------------------------------


def star_sum(sums: np.ndarray) -> np.ndarray:
    """|T(0)| + 2 * sum_{u>=1} |T(u)| per row of (B, n) sums T(u), u >= 0:
    the sum of |T| over every shift of a conjugate-symmetric T(-u) = conj T(u)."""
    parts = np.ascontiguousarray(sums, dtype=complex).view(float).reshape(*sums.shape, 2)
    mags = np.einsum("...i,...i->...", parts, parts)  # the exact norms re^2 + im^2, below 2^53
    np.sqrt(mags, out=mags)
    return mags[:, 0] + 2 * np.sum(mags[:, 1:], axis=1)


def row_free(sequences: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The (terms, n) sequences x_k with sequences[k, r] = units[r] * x_k on
    every row r, from (terms, rows, n) sequences and (rows, n) unit sequences
    zeta^(D_r).  Raises ValueError when a term is not one such x_k on every
    row: coset_correlation_sums would then correlate some other sequence."""
    x = sequences * np.conj(units)
    if not np.array_equal(x, np.broadcast_to(x[:, :1], x.shape)):
        raise ValueError("a sequence is not zeta^D times one row-free sequence on every row")
    return x[:, 0]


def _ahead(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, i) -> i + u modulo n, and where i + u < n."""
    ahead = np.arange(n)[:, None] + np.arange(n)[None, :]
    return ahead % n, ahead < n


def shift_factors(p: np.ndarray, q: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """(n, terms, n) factors F[u, k, i] = p_k(i) * conj(q_k(i+u)) * (1 + g_i g_{i+u})
    for i + u < n, and 0 beyond, of (terms, n) row-free sequences p, q and
    the (n,) companion sign g: coset_correlation_sums of them is X_{P,Q} +
    X_{gP,gQ} for P = zeta^D * p and Q = zeta^D * q."""
    ahead, inside = _ahead(p.shape[-1])
    factors = np.conj(q).T[ahead]  # (u, i, terms)
    factors *= p.T
    factors *= np.where(inside, 1 + sign * sign[ahead], 0)[:, :, None]
    return factors.transpose(0, 2, 1)


def coset_footprint(n: int, terms: int) -> int:
    """Complex values coset_correlation_sums holds per base row: its (n, n)
    unit products and its terms x n sums."""
    return n * (n + terms)


def coset_correlation_sums(base: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """(terms, rows, n) sums sum_i zeta^(D_r(i) - D_r(i+u)) * F[u, k, i] for the
    (rows, n) Z4 base rows D_r and (n, terms, n) shift_factors F.

    Every sequence a family walk correlates is zeta^D times a sequence that
    does not depend on the row: a codeword is zeta^D * (1 + i) * sum_j w_j *
    zeta^(s_j), a component zeta^D * zeta^(s_j), and a lemma pair
    (zeta^(B+s), zeta^B) with B = D or D + s1 moves zeta^(s1) into its row-free
    part (the Reed-Muller coset structure of Davis and Jedwab).  With
    P = zeta^D * p, Q = zeta^D * q and X_{a,b}(u) = sum_i a_i conj(b_{i+u}),

        X_{P,Q}(u) + X_{gP,gQ}(u)
            = sum_i zeta^(D_i - D_{i+u}) * p_i conj(q_{i+u}) * (1 + g_i g_{i+u}),

    so at each shift the sums of every row and term are one matrix product
    of the unit products by the row-free factors.  The units are +-1, +-i
    and the factors Gaussian integers, so every product and partial sum is
    exact.  Rows run in slices of at most CHUNK_SYMBOLS // coset_footprint
    (and at least one), so the unit products are never held for a whole cell.
    """
    n, terms = factors.shape[:2]
    ahead, _ = _ahead(n)
    sums = np.empty((terms, len(base), n), dtype=complex)
    step = max(1, CHUNK_SYMBOLS // coset_footprint(n, terms))
    for start in range(0, len(base), step):
        d = base[start : start + step].T  # (i, rows)
        units = ZETA[(d[None] - d[ahead]) & 3]  # (u, i, rows)
        sums[:, start : start + step] = np.matmul(factors, units).transpose(1, 2, 0)
    return sums


def autocorrelation_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_a(u) + C_b(u), u = 0 .. n-1, per row of equal-shape (B, n) lattice arrays:
    coset_correlation_sums on the base row D = 0 with no companion (g = 0)."""
    if a.shape != b.shape:
        raise ValueError(f"rows of unequal shape: {a.shape} and {b.shape}")
    zero = np.zeros(a.shape[-1], np.int64)
    factors = shift_factors(a, a, zero) + shift_factors(b, b, zero)
    return coset_correlation_sums(zero[None], factors)[:, 0]


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


def pep_spread(grid: int) -> float:
    """A relative bound delta with |p - p'| <= delta * p for the computed PEPs
    p, p' of two sequences whose exact envelopes on the grid of `grid`
    points hold the same values, such as z, conj(z), z reversed and i^i * z,
    whose envelope is that of z moved grid / 4 samples on; math.inf unless
    grid is a power of two.

    Let y_k be the exact samples and P = max |y_k|^2.  The FFT's forward
    error is ||y^ - y||_2 <= f * ||y||_2 with f = log2(N) * eta / (1 -
    log2(N) * eta), eta <= 7u for weights accurate to about u (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Sec. 24.1; u the
    unit roundoff), and by Parseval ||y||_2^2 = N * ||z||_2^2 <= N * P, as
    the peak is at least the mean.  So every sample is off by at most
    e * sqrt(P), e = f * sqrt(N).  The modulus (one ulp, squared) and the
    square add at most 6u, so a computed PEP lies within r * P of P,
    r = (1 + e)^2 * (1 + 6u) - 1, and two of them within 2r * P <=
    2r / (1 - r) * p of each other.  The scalings by 1/N and N are exact for
    N a power of two.  delta is about 4e-13 at N = 256; the largest spread
    seen over the families is about 1.5e-15, and at N = 256 the
    quarter-shift images' PEPs came out bit-equal.  Any other N, as at an
    odd oversampling rate, has FFT passes of another radix, which the bound
    does not cover, and scalings that round: there no spread is proved, so
    delta is infinite and every decision computes the PEP of every image.
    """
    if grid & (grid - 1):
        return math.inf
    u = np.finfo(float).eps / 2
    f = math.log2(grid) * 7 * u
    e = f / (1 - f) * math.sqrt(grid)
    r = (1 + e) ** 2 * (1 + 6 * u) - 1
    return 2 * r / (1 - r)


def near_points(peps: np.ndarray, points, grid: int) -> np.ndarray:
    """Where a computed PEP on a grid of `grid` points is no farther than
    pep_spread(grid) times itself from one of the ascending points: there,
    and only there, a comparison with a point can come out differently for
    the PEPs of the images of a sequence.  Every PEP is near where
    pep_spread is infinite."""
    points = np.asarray(points, dtype=float)
    i = np.searchsorted(points, peps)
    below = np.abs(peps - points[np.maximum(i - 1, 0)])
    above = np.abs(points[np.minimum(i, len(points) - 1)] - peps)
    return np.minimum(below, above) <= pep_spread(grid) * peps


def orbit_peps(z: np.ndarray, peps: np.ndarray, near: np.ndarray, oversample: int) -> tuple:
    """(values, images, rows): the computed PEPs of the FULL_ORBIT_SIZE //
    ORBIT_SIZE = 16 images of each row of (rows, n) z, as a multiset: y *
    i^(b*i) for y one of z, conj(z), z reversed and conj(z) reversed, and b =
    0 .. 3, the conjugation x reversal x quarter-shift images.  Each row's
    own PEP in peps (pep_batch of z) stands for all its images, except where
    near holds: there it stands for the row alone, and the PEPs of the 15
    other images are computed, one image each.  The images of a row hold the
    same exact envelope, so off near_points every comparison of an image's
    PEP with a point comes out as the row's own.  images counts the images
    each value stands for; rows names the row of z of each value."""
    (rows,) = np.nonzero(near)
    own = z[rows]
    flips = np.stack([own, np.conj(own), own[:, ::-1], np.conj(own[:, ::-1])])
    turns = ZETA[np.outer(np.arange(SHIFT_ORBIT_SIZE), np.arange(z.shape[1])) % 4]  # i^(b*i)
    others = (turns[:, None, None] * flips).reshape(-1, z.shape[1])[len(rows):]
    extra = pep_batch(others, oversample)
    count = FULL_ORBIT_SIZE // ORBIT_SIZE
    images = np.where(near, 1, count)
    return (np.concatenate([peps, extra]),
            np.concatenate([images, np.ones(len(extra), images.dtype)]),
            np.concatenate([np.arange(len(peps)), np.tile(rows, count - 1)]))


def polyphase_lattice(values: np.ndarray) -> np.ndarray:
    """The complex128 Gaussian integers zeta^values for a batch of Z4 arrays."""
    return ZETA[np.asarray(values, dtype=np.int64) % 4]
