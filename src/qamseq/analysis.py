"""The star operator, envelope power, and CCDF.

Lattice sequences (symbols over their scale denominator, zeta powers of Z4
sequences) are complex128 arrays of Gaussian integers.  Every value and every
sum below is a Gaussian integer far below 2^53, which complex128 holds
exactly; the only rounding in the star operator is one correctly rounded
square root of the exact norm re^2 + im^2 per shift, and the sum over shifts.
Every sequence the walk or a block correlates is zeta^D * x with its
companion g * zeta^D * x, x row-free, D a base row.  Its sums vanish at
every shift but 0 and u0 = 2^(m-1-pi(0)) (proof in verification) if x reads
only x_pi(0) and x_pi(1) (P1), g reads only x_pi(m-1) and changes sign with
it (P2), and D is the quadratic path plus an affine part (P3,
gbf.base_rows).  shift_factors certifies P1 and P2; coset_correlation_sums,
the one correlation kernel, gives both sums of every (row, term) pair from
one matrix product.  Arbitrary pairs are not two-shift sparse:
autocorrelation_sums sums each shift, and star, star_batch and
golay_defect_batch reduce it for the library example and the benchmark.
Envelope evaluation samples S(t) = sum_i A_i exp(2*pi*j*i*t) on an L-times
oversampled grid t_k = k/(L*n) over one period (w0 = 0, ws = 1, T = 1;
peak-to-mean ratios are invariant to that normalization) with pep_batch,
the float64 FFT; pmepr is its one-row call.  score_block gives the star and
PMEPR of every codeword of a block.  threshold_peps screens rows in
complex64 against thresholds and group maxima, and runs pep_batch only
where its certified error reaches one; orbit_pmeprs, the one PMEPR decision
rule, adds orbit_peps, the PEPs of the conjugation x reversal x
quarter-shift images of each row near a decision by pep_spread.  run_pmeprs
is the one PMEPR pass of the audit and ccdf: per task, a run of
constructions.orbit_runs given as a block per family of offsets for each
pi, one orbit_pmeprs call over every row, the values split by offset kind;
the audit, which reports each kind's maximum, makes each kind a group.
ccdf is the one counting rule of every CCDF column: exact int64 counts of
a sample set's records, in total and above each threshold, which add over
sample sets, so the ccdf command counts each run and each baseline slice
as it comes and holds no PMEPR multiset past it.
random_baseline, the uncoded reference ensemble, holds only its uint8 Z4
draws whole and yields its complex symbols in row_slices, for
threshold_peps to take one at a time.  Every kernel here runs its rows in
constructions.row_slices of its footprint per row, the one memory rule.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .algebra import ZETA
from .constellation import qam_lattice
from .constructions import (FULL_ORBIT_SIZE, ORBIT_SIZE, SHIFT_ORBIT_SIZE, FamilyBlock,
                            Modulation, row_slices)


def star(a: np.ndarray, b: np.ndarray, denominator: int) -> float:
    """sum over every shift of |C_a(u) + C_b(u)| over the scale denominator,
    for two equal-length rows of Gaussian integers: a one-row star_batch."""
    return float(star_batch(a[None, :], b[None, :], denominator)[0])


def pmepr(z: np.ndarray, oversample: int = 16) -> float:
    """PEP over the code-average power n of one row z of unit-average-energy
    symbols, sampled at oversample grid points per carrier: a one-row pep_batch."""
    return float(pep_batch(z[None, :], oversample)[0]) / len(z)


def default_threshold_grid() -> np.ndarray:
    """Linear PMEPR thresholds 1.0 .. 10.0 in steps of 0.05."""
    return np.linspace(1.0, 10.0, 181)


def ccdf(values, thresholds, weights=None) -> np.ndarray:
    """Exact int64 counts of PMEPR samples on a 1-d, nonempty, strictly
    increasing threshold grid, from one sort: the total weight, then the
    weight strictly above each threshold.  Sample k counts weights[k] times
    (an integer, 1 by default), so the counts of two sample sets add, and
    the curve is counts[1:] / counts[0].  A NaN sample or threshold is
    refused: it would count as above every threshold, or break the grid."""
    v = np.asarray(values, dtype=float)
    t = np.asarray(thresholds, dtype=float)
    if v.size == 0 or np.isnan(v).any():
        raise ValueError("need at least one PMEPR sample, and no NaN")
    if t.ndim != 1 or t.size == 0 or np.isnan(t).any():
        raise ValueError("thresholds must be 1-d, nonempty and not NaN")
    if np.any(np.diff(t) <= 0):
        raise ValueError("thresholds must be strictly increasing")
    w = np.ones(v.size, np.int64) if weights is None else np.asarray(weights, np.int64)
    order = np.argsort(v, kind="stable")
    above = np.append(np.cumsum(w[order][::-1])[::-1], 0)  # the weight from each index on
    return above[np.append(0, np.searchsorted(v[order], t, side="right"))]


def random_baseline(n: int, modulation: Modulation, count: int, seed: int) -> Iterator[np.ndarray]:
    """count rows of n complex unit-average-energy symbols, uniform i.i.d.
    over the constellation (as FamilyBlock.complex_symbols): the uncoded
    reference ensemble, in the row_slices of n symbols a row.  The Z4
    component draws are made here, before the first slice, and held as one
    (components, count, n) uint8 array: all of component 0, then component
    1 (and 2), each from its own row slices of
    default_rng(seed).integers(0, 4), the same stream as one call per
    component.  A slice's lattice points are built as it is taken, so the
    complex symbols of the whole ensemble are never held."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    draws = np.empty((modulation.components, count, n), np.uint8)
    for component in draws:
        for part in row_slices(count, n):
            component[part] = rng.integers(0, 4, size=component[part].shape)
    return _lattice_slices(draws)


def _lattice_slices(draws: np.ndarray) -> Iterator[np.ndarray]:
    """The unit-average-energy symbols of each row slice of the
    (components, count, n) Z4 draws."""
    for part in row_slices(draws.shape[1], draws.shape[2]):
        points, scale = qam_lattice(*draws[:, part])
        points /= np.sqrt(scale.value)
        yield points


# ---------------------------------------------------------------------------
# batched kernels over (records, n) complex lattice arrays
# ---------------------------------------------------------------------------


def star_sum(sums: np.ndarray) -> np.ndarray:
    """|T(0)| + 2 * sum_{u>=1} |T(u)| per row of (B, shifts) sums T(u), u >= 0:
    the sum of |T| over every shift of a conjugate-symmetric T(-u) = conj T(u)."""
    sums = np.asarray(sums, dtype=complex)
    mags = sums.real**2  # the exact norms re^2 + im^2, below 2^53
    mags += sums.imag**2
    np.sqrt(mags, out=mags)
    return mags[:, 0] + 2 * np.sum(mags[:, 1:], axis=1)


def shift_factors(p: np.ndarray, q: np.ndarray, sign: np.ndarray, pi: tuple) -> np.ndarray:
    """(2, terms, n) factors F[k, t, i] = p_t(i) * conj(q_t(i+u)) * (1 + g_i g_{i+u})
    at u = 0 (k = 0) and u0 (k = 1), 0 where i + u >= n, of (terms, n)
    row-free p, q and the (n,) companion sign g at pi.  Raises
    AssertionError unless P1 and P2 hold."""
    n = p.shape[-1]
    i, bit = np.arange(n), [n >> (v + 1) for v in pi]  # x_v is bit m-1-v of i
    free = i & (bit[0] | bit[1])
    if not (np.array_equal(p, p[:, free]) and np.array_equal(q, q[:, free])
            and np.array_equal(sign, sign[i & bit[-1]]) and np.all(sign * sign[i ^ bit[-1]] == -1)):
        raise AssertionError(f"the row-free factors at pi {pi} read more than P1 and P2 allow")
    u0 = bit[0]
    factors = np.stack([2 * p * np.conj(q), np.zeros_like(p, dtype=complex)])
    factors[1, :, : n - u0] = p[:, : n - u0] * np.conj(q[:, u0:]) * (1 + sign[: n - u0] * sign[u0:])
    return factors


def coset_footprint(n: int, terms: int) -> int:
    """Complex values coset_correlation_sums holds per base row: its n units
    at u0 and its terms sums there."""
    return n + terms


def coset_correlation_sums(base: np.ndarray, factors: np.ndarray, pi: tuple) -> np.ndarray:
    """(terms, rows, 2) sums S(u) = sum_i zeta^(D_r(i) - D_r(i+u)) * F[k, t, i]
    at u = 0 and u0 = 2^(m-1-pi(0)) of the (rows, n) Z4 base rows D_r and
    the shift_factors F at pi: X_{P,Q}(u) + X_{gP,gQ}(u) for P = zeta^D * p,
    Q = zeta^D * q and X_{a,b}(u) = sum_i a_i conj(b_{i+u}), which by P1-P3
    is 0 at every other shift.  D cancels at u = 0, so S(0) is the row-free
    sum of F[0]; S(u0) is one matrix product of the rows' unit products by
    F[1].  Units +-1, +-i and Gaussian-integer factors keep every product
    and partial sum exact.  Rows run in the row_slices of coset_footprint."""
    terms, n = factors.shape[1:]
    u0 = n >> (pi[0] + 1)
    sums = np.empty((terms, len(base), 2), dtype=complex)
    sums[:, :, 0] = np.sum(factors[0], axis=1)[:, None]
    for part in row_slices(len(base), coset_footprint(n, terms)):
        d = base[part].T  # (i, rows)
        sums[:, part, 1] = factors[1, :, : n - u0] @ ZETA[(d[: n - u0] - d[u0:]) & 3]
    return sums


def autocorrelation_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C_a(u) + C_b(u), u = 0 .. n-1, per row of equal-shape (B, n) lattice
    arrays, one shift at a time, over row_slices of 4n values a row."""
    if a.shape != b.shape:
        raise ValueError(f"rows of unequal shape: {a.shape} and {b.shape}")
    n = a.shape[-1]
    sums = np.empty(a.shape, dtype=complex)
    for part in row_slices(len(a), 4 * n):
        z = np.stack([a[part], b[part]])
        for u in range(n):
            sums[part, u] = np.sum(z[..., : n - u] * np.conj(z[..., u:]), axis=(0, 2))
    return sums


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
    """Peak |S(t)|^2 per row of a (B, n) complex array, over the row_slices
    of its L*n grid points a row: a batch's envelope is never held whole,
    and each row's peak is the same in any slice."""
    peaks = np.empty(len(z))
    for part in row_slices(len(z), oversample * z.shape[1]):
        peaks[part] = np.max(envelope_power_batch(z[part], oversample), axis=1)
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
    r = _pep_error(grid)
    return 2 * r / (1 - r)


def _pep_error(grid: int) -> float:
    """r with |p - P| <= r * P for a PEP p that pep_batch computes on a
    power-of-two grid of `grid` points, P the exact peak (pep_spread)."""
    u = np.finfo(float).eps / 2
    f = math.log2(grid) * 7 * u
    e = f / (1 - f) * math.sqrt(grid)
    return (1 + e) ** 2 * (1 + 6 * u) - 1


def _point_distance(values: np.ndarray, points) -> np.ndarray:
    """The distance from each value to the nearest of the ascending points,
    which it refuses empty, where no point is nearest, or in any other order
    (NaN included): its searchsorted would find wrong neighbours."""
    points = np.asarray(points, dtype=float)
    if not (points.size and np.all(np.diff(points) >= 0)):
        raise ValueError("points must be ascending and nonempty")
    i = np.searchsorted(points, values)
    below = np.abs(values - points[np.maximum(i - 1, 0)])
    above = np.abs(points[np.minimum(i, len(points) - 1)] - values)
    return np.minimum(below, above)


def near_points(peps: np.ndarray, points, grid: int) -> np.ndarray:
    """Where a computed PEP on a grid of `grid` points is no farther than
    pep_spread(grid) times itself from one of the ascending points: there,
    and only there, a comparison with a point can come out differently for
    the PEPs of the images of a sequence.  Every PEP is near where
    pep_spread is infinite."""
    return _point_distance(peps, points) <= pep_spread(grid) * peps


@functools.cache
def _screen_matrix(n: int, oversample: int) -> np.ndarray:
    """The (n, L*n) complex64 matrix exp(2*pi*j*(i*k mod N)/N), N = L*n: the
    envelope samples S(t_k) of a row z are z @ it."""
    grid = oversample * n
    ik = np.outer(np.arange(n), np.arange(grid)) % grid
    matrix = np.exp(2j * np.pi / grid * ik).astype(np.complex64)
    matrix.flags.writeable = False  # one array serves every caller
    return matrix


def screen_peps(z: np.ndarray, oversample: int) -> np.ndarray:
    """Peak |S(t)|^2 per row of a (B, n) complex array in complex64: one
    matrix product by _screen_matrix per row_slices slice of its L*n grid
    points a row, then the float32 modulus, its row maximum and its square.
    screen_margin bounds its error."""
    matrix = _screen_matrix(z.shape[1], oversample)
    peaks = np.empty(len(z), np.float32)
    for part in row_slices(len(z), matrix.shape[1]):
        samples = z[part].astype(np.complex64) @ matrix
        peaks[part] = np.max(np.abs(samples), axis=1)
    return np.square(peaks).astype(float)


def screen_margin(z: np.ndarray, oversample: int) -> np.ndarray:
    """Delta per row of a (B, n) complex array z: screen_peps and pep_batch
    of the row differ by at most Delta / 2, on a power-of-two grid of
    N = L*n points; infinite for a row whose S1 = sum_i |z_i| lies outside
    [2^-50, 2^50].

    Let y_k = sum_i z_i w_ik be the exact samples, w_ik = exp(2*pi*j*ik/N),
    and P = max |y_k|^2.  Every |w_ik| = 1, so |y_k| <= S1 and P <= S1^2.
    With u = 2^-24, float32's unit roundoff, and gamma_k = k*u / (1 - k*u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Sec.
    3.1): rounding z and the matrix to complex64 moves each z_i and w_ik by
    at most u times its modulus, so the exact products of the rounded
    factors are within (2u + u^2) * |z_i| of z_i w_ik, and their modulus
    sum is at most (1 + u)^2 * S1.  A complex dot product of length n is
    computed within sqrt(2) * gamma_(n+2) times the modulus sum of its
    products (Sec. 3.6), in any order of summation, fused multiply-adds
    included.  So every screened sample is within e * S1 of y_k, with
    e = sqrt(2) * gamma_(n+2) * (1 + u)^2 + 2u + u^2, and the squares of
    the samples within ((1 + e)^2 - 1) * S1^2 of theirs.  The modulus (one
    ulp), the exact maximum and the square add at most 6u of the result:

        |screen - P| <= ((1 + e)^2 * (1 + 6u) - 1) * S1^2.

    pep_batch's own error is |p - P| <= r * P <= r * S1^2, r from
    pep_spread.  Delta is twice the sum of the two terms, times S1^2; the
    factor 2 covers the float64 evaluation of the matrix (its cosines and
    sines within about 1e-16), of S1 and of Delta, all far below u.  Inside
    the S1 range, no product or square leaves float32's range, and an
    underflow (at most 2^-149 per operation) costs far less than that factor.
    """
    n = z.shape[1]
    u = np.finfo(np.float32).eps / 2
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    e = math.sqrt(2) * gamma * (1 + u) ** 2 + 2 * u + u * u
    bound = (1 + e) ** 2 * (1 + 6 * u) - 1 + _pep_error(oversample * n)
    s1 = np.sum(np.abs(z), axis=1)
    inside = (s1 >= 2.0**-50) & (s1 <= 2.0**50)
    return np.where(inside, 2 * bound * s1 * s1, math.inf)


def threshold_peps(z: np.ndarray, oversample: int, points, groups=None) -> np.ndarray:
    """PEPs per row of a (B, n) complex array whose comparisons peps / n > t
    with each of the points t come out as those of pep_batch(z, oversample):
    screen_peps, and pep_batch's own value on each row whose screened PEP
    over n lies within screen_margin over n of a point, ascending points
    shared by every row.  n is a power of two wherever the screen runs, so
    the divisions are exact.  Off those rows, the screened and the float64
    PEP differ by at most half the margin, so they fall on the same side of
    every point, and farther from it than pep_spread times themselves (the
    margin is at least 12u * S1^2, pep_spread some 1e-13): near_points and
    orbit_peps decide on them as on pep_batch's.

    groups, (B,) labels 0, 1, .. (or None), adds each group's maximum to
    the decisions: the largest of the returned PEPs of a group's rows is
    the largest of their pep_batch PEPs, bit for bit, and every other row
    of the group lies farther below it than pep_spread times itself, as
    pep_batch's PEP of the row does (_group_max_rows has the proof).
    Where pep_spread proves nothing (a grid that is not a power of two) and
    beyond n = 64, where the screen's matrix product costs more than the
    FFT it saves, this is pep_batch(z, oversample)."""
    n, grid = z.shape[1], oversample * z.shape[1]
    if n > 64 or grid & (grid - 1):
        return pep_batch(z, oversample)
    peps = screen_peps(z, oversample)
    margin = screen_margin(z, oversample)
    near = _point_distance(peps / n, points) <= margin / n
    if groups is not None:
        near |= _group_max_rows(peps, margin, groups)
    (rows,) = np.nonzero(near)
    peps[rows] = pep_batch(z[rows], oversample)
    return peps


def _group_max_rows(peps: np.ndarray, margin: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Where a row's screened PEP s, with its margin Delta, lies within
    Delta of its group's floor F = max (s' - Delta' / 2) over the group.

    Each row's pep_batch PEP p lies in [s - Delta / 2, s + Delta / 2], so
    the group's largest p, M, is at least F, and the row that holds it has
    s + Delta / 2 >= p = M >= F: it is marked.  A row left unmarked has
    s + Delta < F <= M, so s and p <= s + Delta / 2 both lie more than
    Delta / 2 below M: pep_batch's value on the marked rows gives the
    group's maximum M exactly, and every unmarked row, screened or not,
    stays farther below M than pep_spread times itself."""
    floor = np.full(int(groups.max()) + 1, -math.inf)
    np.maximum.at(floor, groups, peps - margin / 2)
    return peps + margin >= floor[groups]


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


def orbit_pmeprs(z: np.ndarray, oversample: int, points, groups: np.ndarray | None) -> tuple:
    """(pmeprs, records, rows): the one PMEPR decision rule, over the (B, n)
    complex rows z of orbits of ORBIT_SIZE records.  threshold_peps screens
    the rows against the ascending points, shared by every row, and the
    maximum of each of the (B,) groups, if given, which then joins the
    points; orbit_peps computes the images of the rows near_points marks.
    A row near a point that none of its own decisions reads is refined as
    well, which moves no value a decision reads.  pmeprs is the multiset of
    PEPs over n, records the records each value stands for, rows the row of
    z of each value."""
    n = z.shape[1]
    peps = threshold_peps(z, oversample, points, groups)
    if groups is not None:
        tops = np.full(int(groups.max()) + 1, -math.inf)
        np.maximum.at(tops, groups, peps / n)
        points = np.sort(np.concatenate([points, tops]))
    near = near_points(peps / n, points, oversample * n)
    values, images, rows = orbit_peps(z, peps, near, oversample)
    return values / n, ORBIT_SIZE * images, rows


def run_pmeprs(blocks: list[list[FamilyBlock]], oversample: int, points, maxima: bool) -> dict:
    """{kind: (pmeprs, records, rows)} of a run of constructions.orbit_runs,
    blocks a block per family of offsets for each of its (pi, rows) cells:
    one orbit_pmeprs call at the ascending points over the rows of every
    cell, each offset kind a group if maxima is set.  Without groups the
    multiset does not depend on how cells are packed into runs.  rows
    indexes the run's (offsets, rows) grid, the offsets of every family in
    order and the rows of every cell."""
    z = np.hstack([np.vstack([block.complex_symbols() for block in cell]) for cell in blocks])
    order: dict[str, int] = {}  # each kind's group, numbered in order of first offset
    label = np.array([order.setdefault(kind, len(order)) for b in blocks[0] for kind in b.kinds])
    values, records, rows = orbit_pmeprs(z.reshape(-1, z.shape[2]), oversample, points,
                                         np.repeat(label, z.shape[1]) if maxima else None)
    mine = label[rows // z.shape[1]]
    return {kind: (values[mine == k], records[mine == k], rows[mine == k])
            for kind, k in order.items()}


def score_block(block: FamilyBlock, oversample: int) -> tuple[np.ndarray, np.ndarray]:
    """(star, pmepr), each (offsets, rows), of every codeword of a block: its
    star over the scale denominator, from one coset_correlation_sums call on
    the base rows with the parts' shift_factors (every codeword is zeta^D *
    its part), and its PEP over n, from one pep_batch call."""
    n, shape = 1 << block.m, (len(block.offsets), len(block.base))
    factors = shift_factors(block.parts, block.parts, block.companion_sign, block.pi)
    sums = coset_correlation_sums(block.base, factors, block.pi)
    star = star_sum(sums.reshape(-1, 2)) / block.scale.value
    pmepr = pep_batch(block.complex_symbols().reshape(-1, n), oversample) / n
    return star.reshape(shape), pmepr.reshape(shape)


def polyphase_lattice(values: np.ndarray) -> np.ndarray:
    """The complex128 Gaussian integers zeta^values for a batch of Z4 arrays."""
    return ZETA[np.asarray(values, dtype=np.int64) % 4]
