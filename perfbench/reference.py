"""Independent reference checker for the 16-QAM / 64-QAM families.

Everything here is re-derived from the paper's formulas with plain numpy and
shares no code with ``qamseq``:

* a length-n = 2^m sequence is indexed by the MSB-first bits x_0 .. x_{m-1};
* the base component is D = 2*sum_l x_pi(l) x_pi(l+1) + sum_l c_l x_pi(l) + c;
* 16-QAM symbols are gamma*(r1*zeta^D + r2*zeta^E) with E = D + s and
  (r1, r2) = (2, 1)/sqrt(5); 64-QAM symbols are
  gamma*(a1*zeta^D + a2*zeta^F + a3*zeta^G) with (a1, a2, a3) = (4, 2, 1)/sqrt(21);
  gamma = exp(i*pi/4), zeta = i;
* the primed companion adds 2*x_pi(m-1) to every component;
* star = sum over all shifts of |C_H(u) + C_H'(u)|, with the aperiodic
  autocorrelations taken from ``numpy.correlate``;
* PMEPR is the peak of |sum_i H_i exp(2*pi*j*i*k/(L*n))|^2 / n over a dense
  L-times oversampled DFT matrix (no FFT).

Offsets are dicts shaped like the ``offset`` field of a ``qamseq`` codeword
record: ``{d1, d2, d3}`` for 16-QAM, ``{kind, d1, d2, d3, h1, h2, h3}`` for
64-QAM.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

ZETA = np.array([1, 1j, -1, -1j])
GAMMA = np.exp(1j * np.pi / 4)
WEIGHTS = {"16qam": np.array([2, 1]) / np.sqrt(5), "64qam": np.array([4, 2, 1]) / np.sqrt(21)}
SCALE = {"16qam": 10, "64qam": 42}
CEILING = {"qam16": Fraction(12, 5), "type1": Fraction(76, 21), "type2": Fraction(52, 21)}
# float slack on star/n and PMEPR comparisons: a few ulps of sums of n terms
TOL = 1e-9


def bits(m: int) -> np.ndarray:
    """(2^m, m) int array; row i holds the MSB-first binary digits of i."""
    i = np.arange(1 << m)[:, None]
    return (i >> np.arange(m - 1, -1, -1)[None, :]) & 1


def canonical_permutations(m: int) -> list[tuple[int, ...]]:
    """Path permutations up to reversal: pi[0] < pi[-1]."""
    return [p for p in itertools.permutations(range(m)) if p[0] < p[-1]]


def offsets(modulation: str) -> list[dict]:
    """Every offset satisfying the paper's congruences (8 for 16-QAM, 64 for 64-QAM)."""
    ds = [
        {"d1": d1, "d2": d2, "d3": d3}
        for d1, d2, d3 in itertools.product(range(4), repeat=3)
        if (d1 + 2 * d3) % 4 == 2 and (2 * d2) % 4 == 2
    ]
    if modulation == "16qam":
        return ds
    out = []
    for h1, h3 in itertools.product(range(4), repeat=2):
        for d in ds:
            if (h1 + 2 * h3) % 4 == 0:
                out.append({"kind": "type1", **d, "h1": h1, "h2": 0, "h3": h3})
            elif (h1 + 2 * h3) % 4 == 2:
                out.append({"kind": "type2", **d, "h1": h1, "h2": (d["d2"] + 2) % 4, "h3": h3})
    return out


def family_size(m: int, modulation: str) -> int:
    """The paper's closed form: (8 or 64) * (m!/2) * 4^(m+1)."""
    return (8 if modulation == "16qam" else 64) * (math.factorial(m) // 2) * 4 ** (m + 1)


def kind_of(offset: dict) -> str:
    return offset.get("kind", "qam16")


def offset_violations(offset: dict) -> list[str]:
    """Names of the congruences the offset breaks; empty for a valid offset."""
    d1, d2, d3 = offset["d1"] % 4, offset["d2"] % 4, offset["d3"] % 4
    out = []
    if (d1 + 2 * d3) % 4 != 2:
        out.append("d1+2*d3=2")
    if (2 * d2) % 4 != 2:
        out.append("2*d2=2")
    kind = kind_of(offset)
    if kind == "type1" and (offset["h1"] + 2 * offset["h3"]) % 4 != 0:
        out.append("h1+2*h3=0")
    if kind == "type2":
        if (offset["h1"] + 2 * offset["h3"]) % 4 != 2:
            out.append("h1+2*h3=2")
        if offset["h2"] % 4 != (d2 + 2) % 4:
            out.append("h2=d2+2")
    return out


def _quadratic(x: np.ndarray, pi, c1: int, c2: int, c3: int) -> np.ndarray:
    x0, x1 = x[:, pi[0]], x[:, pi[1]]
    return (2 * x0 * x1 + c1 * x0 + c2 * x1 + c3) % 4


def components(m: int, pi, linear, constant: int, offset: dict) -> list[np.ndarray]:
    """Z4 component sequences: [D, E] for 16-QAM, [D, F, G] for 64-QAM."""
    x = bits(m)
    xp = x[:, list(pi)]
    base = (2 * np.sum(xp[:, :-1] * xp[:, 1:], axis=1) + xp @ np.asarray(linear) + constant) % 4
    d = (offset["d1"], offset["d2"], offset["d3"])
    kind = kind_of(offset)
    if kind == "qam16":
        shifts = [_quadratic(x, pi, *d)]
    elif kind == "type1":
        shifts = [(offset["h1"] * x[:, pi[0]] + offset["h3"]) % 4, _quadratic(x, pi, *d)]
    else:
        h = (offset["h1"], offset["h2"], offset["h3"])
        shifts = [_quadratic(x, pi, *d), _quadratic(x, pi, *h)]
    return [base] + [(base + s) % 4 for s in shifts]


def qam(comps: list[np.ndarray]) -> np.ndarray:
    """Unit-average-energy QAM symbols as weighted sums of zeta-powers."""
    w = WEIGHTS["16qam" if len(comps) == 2 else "64qam"]
    return GAMMA * sum(wk * ZETA[c] for wk, c in zip(w, comps))


def synthesize(m: int, pi, linear, constant: int, offset: dict):
    """(components, H, H') for one family member."""
    comps = components(m, pi, linear, constant, offset)
    last = 2 * bits(m)[:, pi[m - 1]]
    return comps, qam(comps), qam([(c + last) % 4 for c in comps])


def star(h: np.ndarray, hp: np.ndarray) -> float:
    """sum_u |C_H(u) + C_H'(u)| over all 2n-1 shifts."""
    return float(np.sum(np.abs(np.correlate(h, h, "full") + np.correlate(hp, hp, "full"))))


def pmepr(h: np.ndarray, oversample: int = 16) -> float:
    """Peak envelope power over the code-average power n, dense DFT."""
    n = h.size
    k = np.arange(oversample * n)[:, None]
    dft = np.exp(2j * np.pi * k * np.arange(n)[None, :] / (oversample * n))
    return float(np.max(np.abs(dft @ h) ** 2) / n)


def lattice(h: np.ndarray, modulation: str) -> list[list[int]]:
    """Symbols as integer pairs over sqrt(10) / sqrt(42), the record format."""
    scaled = h * np.sqrt(SCALE[modulation])
    pairs = np.rint(np.stack([scaled.real, scaled.imag], axis=1))
    if np.max(np.abs(pairs - np.stack([scaled.real, scaled.imag], axis=1))) > 1e-9:
        raise ValueError("symbol is off the integer lattice")
    return pairs.astype(int).tolist()


def check_params(m: int, pi, linear, constant: int, offset: dict, oversample: int = 16):
    """Problems with one parameter tuple, plus its (star/n, pmepr).

    Checks the offset congruences and pmepr <= star/n <= the exact ceiling of
    the offset's kind.
    """
    problems = [f"offset violates {v}" for v in offset_violations(offset)]
    _, h, hp = synthesize(m, pi, linear, constant, offset)
    n = 1 << m
    s = star(h, hp) / n
    p = pmepr(h, oversample)
    ceiling = CEILING[kind_of(offset)]
    if s > ceiling + TOL:
        problems.append(f"star/n {s!r} exceeds the ceiling {ceiling}")
    if p > s + TOL:
        problems.append(f"pmepr {p!r} exceeds star/n {s!r}")
    return problems, s, p


def check_record(doc: dict) -> list[str]:
    """Rebuild a ``qamseq`` codeword record symbol for symbol and re-check it."""
    m, pi, modulation = doc["m"], tuple(doc["pi"]), doc["modulation"]
    oversample = doc.get("oversample", 16)
    problems, s, p = check_params(m, pi, doc["linear"], doc["constant"], doc["offset"], oversample)
    comps, h, hp = synthesize(m, pi, doc["linear"], doc["constant"], doc["offset"])
    if doc["scale_denominator"] != SCALE[modulation]:
        problems.append("scale denominator differs")
    if doc["base"] != comps[0].tolist():
        problems.append("base sequence differs")
    if doc["components"] != [c.tolist() for c in comps[1:]]:
        problems.append("component sequences differ")
    if doc["symbols"] != lattice(h, modulation):
        problems.append("symbols differ")
    if doc["primed_symbols"] != lattice(hp, modulation):
        problems.append("primed symbols differ")
    if abs(doc["star_over_n"] - s) > TOL or abs(doc["star"] - s * doc["n"]) > TOL * doc["n"]:
        problems.append(f"star differs: record {doc['star_over_n']!r}, reference {s!r}")
    if abs(doc["pmepr"] - p) > TOL:
        problems.append(f"pmepr differs: record {doc['pmepr']!r}, reference {p!r}")
    return problems


def sample_params(m: int, modulation: str, count: int, rng: np.random.Generator):
    """``count`` family members (pi, linear, constant, offset) drawn with ``rng``."""
    perms, offs = canonical_permutations(m), offsets(modulation)
    out = []
    for _ in range(count):
        coeffs = rng.integers(0, 4, size=m + 1).tolist()
        out.append((perms[rng.integers(len(perms))], coeffs[:m], coeffs[m], offs[rng.integers(len(offs))]))
    return out
