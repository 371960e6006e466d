import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from oracles import (
    CodewordRecord,
    ComplexSequence,
    autocorr,
    build_record,
    library_pmepr,
    library_star,
    polyphase,
    primed,
    psi,
    qam16_map,
    qam64_map,
)
from qamseq import analysis
from qamseq.algebra import ZETA
from qamseq.analysis import (
    CcdfCurve,
    ccdf,
    coset_correlation_sums,
    coset_footprint,
    default_threshold_grid,
    envelope_power_batch,
    golay_defect_batch,
    pep_batch,
    pmepr,
    polyphase_lattice,
    random_baseline,
    row_free,
    shift_factors,
    star,
    star_batch,
    star_sum,
)
from qamseq.constellation import Scale
from qamseq.constructions import (
    ConstructionParams,
    Modulation,
    Offset16,
    Offset64,
    OffsetKind,
    _offset_list,
    build,
    build_block,
    family_cells,
    form_values,
    iter_family_chunks,
    offset_forms,
    orbit_rows,
)
from qamseq.gbf import PathQuadratic

EX1_PARAMS = ConstructionParams(
    base=PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0),
    offset=Offset16(0, 1, 1),
)


def ones(n):
    return ComplexSequence(np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), Scale.UNIT)


def pep(seq, oversample=16):
    """The library's peak envelope power of one sequence: a one-row pep_batch."""
    return pep_batch(seq.to_complex()[None, :], oversample)[0]


def unit_sequence(z):
    """The unit-scale record of a complex lattice array."""
    return ComplexSequence(z.real, z.imag, Scale.UNIT)


lattice_sequences = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: arrays(np.int64, n, elements=st.integers(0, 3)).map(
        lambda vals: unit_sequence(polyphase_lattice(vals))
    )
)

lattice_pairs = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(0, 3)),
        arrays(np.int64, n, elements=st.integers(0, 3)),
    ).map(lambda ab: tuple(unit_sequence(polyphase_lattice(v)) for v in ab))
)


def test_autocorr_all_ones():
    profile = autocorr(ones(4))
    for u in range(-3, 4):
        assert profile.value(u) == 4 - abs(u)
    assert profile.value(5) == 0


def test_autocorr_zero_shift_is_energy():
    seq = polyphase(psi(EX1_PARAMS.base))
    assert autocorr(seq).value(0) == len(seq) == 8


def test_autocorr_conjugate_symmetry_reference():
    record = build_record(EX1_PARAMS)
    profile = autocorr(record.sequence)
    for u in range(1, 8):
        assert profile.value(-u) == profile.value(u).conjugate()


def test_autocorr_golay_pair_cancellation_exact():
    base = EX1_PARAMS.base
    a = autocorr(polyphase(psi(base)))
    b = autocorr(polyphase(psi(primed(base))))
    total_re = a.num_re + b.num_re
    total_im = a.num_im + b.num_im
    center = len(a.num_re) // 2
    assert total_re[center] == 16  # 2n at u = 0
    mask = np.ones_like(total_re, dtype=bool)
    mask[center] = False
    assert not total_re[mask].any()
    assert not total_im[mask].any()


@given(lattice_sequences)
@settings(max_examples=60)
def test_autocorr_conjugate_symmetry_property(seq):
    profile = autocorr(seq)
    n = len(seq)
    for u in range(1, n):
        assert profile.value(-u) == profile.value(u).conjugate()


@given(lattice_sequences)
@settings(max_examples=60)
def test_autocorr_matches_numpy_correlate(seq):
    # independent oracle: numpy's correlation, C(u) = conj(correlate(z, z)[n-1+u])
    z = seq.to_complex()
    reference = np.conj(np.correlate(z, z, mode="full"))
    profile = autocorr(seq)
    values = [profile.value(u) for u in range(1 - len(seq), len(seq))]
    assert np.allclose(values, reference, atol=1e-12)


@given(lattice_pairs)
@settings(max_examples=40)
def test_pep_bounded_by_star_for_any_pair(pair):
    # |S_a(t)|^2 <= |S_a|^2 + |S_b|^2 <= sum_u |C_a(u) + C_b(u)| holds for
    # arbitrary equal-length pairs, not only constructed codewords
    a, b = pair
    assert pep(a) <= library_star(a, b) + 1e-9


def test_star_polyphase_golay_pair_is_2n():
    base = EX1_PARAMS.base
    a = polyphase(psi(base))
    b = polyphase(psi(primed(base)))
    assert library_star(a, b) == pytest.approx(16.0, abs=1e-12)


def test_star_all_ones_self():
    a = ones(4)
    assert library_star(a, a) == pytest.approx(32.0, abs=1e-12)


def test_star_reference_codeword_within_bound():
    record = build_record(EX1_PARAMS)
    value = library_star(record.sequence, record.primed_sequence)
    assert 16.0 - 1e-9 <= value <= 19.2 + 1e-9


def test_star_length_mismatch():
    with pytest.raises(ValueError):
        star(np.ones(4, complex), np.ones(5, complex), 1)


def test_batch_kernels_refuse_rows_of_unequal_length():
    a, b = np.ones((2, 4), complex), np.ones((2, 5), complex)
    with pytest.raises(ValueError, match="rows of unequal shape"):
        star_batch(a, b, 1)
    with pytest.raises(ValueError, match="rows of unequal shape"):
        golay_defect_batch(a, b)


def test_star_and_pmepr_are_one_row_calls_on_a_block_row():
    # the one-row block of build: star of its symbol row and companion over
    # the scale, and the PMEPR of its unit-energy row, equal the batched
    # kernels on the block's rows bit for bit
    block = build(EX1_PARAMS)
    z, sign, scale = block.symbols[0], block.companion_sign, block.scale.value
    assert star(z[0], z[0] * sign, scale) == star_batch(z, z * sign, scale)[0]
    assert star(z[0], z[0] * sign, scale) / 8 == pytest.approx(2.4, abs=1e-12)
    w = block.complex_symbols()[0]
    assert pmepr(w[0]) == pep_batch(w, 16)[0] / 8
    assert pmepr(w[0], 32) == pep_batch(w, 32)[0] / 8


@given(lattice_pairs)
@settings(max_examples=60)
def test_star_two_code_paths_agree(pair):
    # the literal full-range sum against the conjugate-symmetric form of the
    # literal per-shift loop, and the library's star bit for bit against the
    # latter
    a, b = pair
    one_row = star_sum(oracles.autocorrelation_sums(*((s.re + 1j * s.im)[None, :] for s in (a, b))))
    assert oracles.star(a, b) == pytest.approx(one_row[0], rel=1e-12)
    assert library_star(a, b) == one_row[0]


def test_star_polyphase_identity_form():
    # for polyphase pairs: star = 2n + 2 * sum_{u>=1} |C_a(u) + C_b(u)|
    base = EX1_PARAMS.base
    a = polyphase(psi(base))
    b = polyphase(psi(primed(base)))
    ca, cb = autocorr(a), autocorr(b)
    n = len(a)
    tail = sum(abs(ca.value(u) + cb.value(u)) for u in range(1, n))
    assert library_star(a, b) == pytest.approx(2 * n + 2 * tail, abs=1e-12)


def test_pep_coherent_sum():
    for n in (4, 8):
        assert pep(ones(n)) == pytest.approx(n**2, rel=1e-12)


def test_pep_single_symbol_flat():
    seq = ComplexSequence(np.array([1, 0, 0, 0]), np.zeros(4, dtype=np.int64), Scale.UNIT)
    assert pep(seq) == pytest.approx(1.0, rel=1e-12)


def test_pep_monotone_in_oversampling():
    record = build_record(EX1_PARAMS)
    values = [library_pmepr(record.sequence, l) for l in (1, 2, 4, 8, 16, 32)]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))


def test_pmepr_all_ones():
    assert library_pmepr(ones(8)) == pytest.approx(8.0, rel=1e-12)


def test_pmepr_reference_values():
    rec1 = build_record(EX1_PARAMS)
    p = library_pmepr(rec1.sequence)
    assert p == pytest.approx(2.0587415658, abs=1e-6)
    assert abs(p - 2.1) <= 0.05


def test_pmepr_golay_polyphase_at_most_two():
    base = EX1_PARAMS.base
    assert library_pmepr(polyphase(psi(base))) <= 2.0 + 1e-9


def test_envelope_mean_power_parseval():
    record = build_record(EX1_PARAMS)
    energy = float(record.sequence.energy())
    z = record.sequence.to_complex()[None, :]
    for l in (1, 4, 16):
        power = envelope_power_batch(z, l)
        assert power.shape == (1, l * 8)
        assert np.mean(power) == pytest.approx(energy, rel=1e-12)
        assert np.max(power) == pep_batch(z, l)[0]


def star_bound_holds(record, bound):
    """pmepr <= star/n <= bound (within 1e-9), and star/n, for one codeword."""
    star_over_n = library_star(record.sequence, record.primed_sequence) / len(record.sequence)
    p = library_pmepr(record.sequence)
    return p <= star_over_n + 1e-9 and star_over_n <= bound + 1e-9, star_over_n


def test_star_bound_check_reference_pass():
    passed, _ = star_bound_holds(build_record(EX1_PARAMS), 2.4)
    assert passed


def test_star_bound_check_64qam_reference_pass():
    params = ConstructionParams(
        base=EX1_PARAMS.base,
        offset=Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0),
    )
    passed, star_over_n = star_bound_holds(build_record(params), 3.62)
    assert passed
    assert star_over_n == pytest.approx(76 / 21, abs=1e-9)


def test_star_bound_check_fake_record_fails():
    fake_seq = ones(8)  # unit-magnitude coherent sum: pmepr = n
    fake = CodewordRecord(params=EX1_PARAMS, sequence=fake_seq, primed_sequence=fake_seq,
                          components=build_record(EX1_PARAMS).components)
    passed, star_over_n = star_bound_holds(fake, 2.4)
    assert not passed
    assert library_pmepr(fake_seq) == pytest.approx(8.0, rel=1e-9)
    assert star_over_n > 2.4


def test_ccdf_counting():
    curve = ccdf([1.0, 2.0, 3.0], [0.0, 2.5, 4.0])
    assert curve.probabilities.tolist() == [1.0, pytest.approx(1 / 3), 0.0]


def test_ccdf_counts_only_samples_strictly_above_a_threshold():
    # samples sitting exactly on a threshold do not exceed it
    curve = ccdf([2.45, 2.4, 2.4], [2.35, 2.4, 2.45])
    assert curve.probabilities.tolist() == [1.0, 1 / 3, 0.0]


def test_ccdf_equals_the_share_above_each_threshold():
    # the literal definition, one pass per threshold, bit for bit, on
    # samples that repeat and that sit on grid points
    rng = np.random.default_rng(5)
    grid = default_threshold_grid()
    values = np.concatenate([rng.uniform(0.5, 11.0, 500), grid[::7], grid[::7], [1.0, 10.0]])
    curve = ccdf(values, grid)
    assert curve.probabilities.tolist() == [np.mean(values > t) for t in grid]


def test_ccdf_rejects_empty_and_bad_grid():
    with pytest.raises(ValueError):
        ccdf([], [1.0])
    with pytest.raises(ValueError):
        CcdfCurve(np.array([1.0, 1.0]), np.array([0.5, 0.5]))


def test_default_threshold_grid():
    grid = default_threshold_grid()
    assert grid[0] == 1.0
    assert grid[-1] == 10.0
    assert len(grid) == 181
    assert np.allclose(np.diff(grid), 0.05)


def test_random_baseline_domain_and_determinism():
    for modulation, scale, points in (
        (Modulation.QAM16, Scale.QAM16, [qam16_map(u, v) for u in range(4) for v in range(4)]),
        (Modulation.QAM64, Scale.QAM64, [qam64_map(u, v, w) for u in range(4)
                                         for v in range(4) for w in range(4)]),
    ):
        z = random_baseline(16, modulation, 50, seed=42)
        assert z.shape == (50, 16) and z.dtype == complex
        lattice = np.rint(z * np.sqrt(scale.value))
        re, im = lattice.real.astype(np.int64), lattice.imag.astype(np.int64)
        assert set(zip(re.ravel().tolist(), im.ravel().tolist())) <= {p[:2] for p in points}
        # bit for bit what ComplexSequence.to_complex gives for those lattice points
        for k in range(len(z)):
            assert np.array_equal(ComplexSequence(re[k], im[k], scale).to_complex(), z[k])
        assert np.array_equal(random_baseline(16, modulation, 50, seed=42), z)
        assert not np.array_equal(random_baseline(16, modulation, 50, seed=43), z)


def test_random_baseline_count_validation():
    with pytest.raises(ValueError):
        random_baseline(8, Modulation.QAM16, 0, seed=1)


def test_batch_kernels_match_scalar_paths():
    record = build_record(EX1_PARAMS)
    seq, pr = record.sequence, record.primed_sequence
    rows = tuple((s.re + 1j * s.im)[None, :] for s in (seq, pr))
    stars = star_batch(*rows, Scale.QAM16.value)
    assert stars[0] == pytest.approx(oracles.star(seq, pr), rel=1e-12)
    assert stars[0] == star_sum(oracles.autocorrelation_sums(*rows))[0] / Scale.QAM16.value
    peps = pep_batch(seq.to_complex()[None, :], 16)
    assert peps[0] == pytest.approx(oracles.pep(seq), rel=1e-12)


def family_stars_and_pmeprs(modulation):
    """star_batch and pep_batch values batched as enumerate batches them,
    with the symbol and companion rows they came from, over m=3."""
    n = 8
    rows, stars, pmeprs = [], [], []
    for block in iter_family_chunks(3, modulation):
        sign = block.companion_sign
        for z, w in zip(block.symbols, block.complex_symbols()):
            zp = z * sign
            rows.append(tuple(x.astype(np.int64) for x in (z.real, z.imag, zp.real, zp.imag)))
            stars.append(star_batch(z, zp, block.scale.value))
            pmeprs.append(pep_batch(w, 16) / n)
    columns = tuple(np.concatenate(c) for c in zip(*rows))
    return columns, np.concatenate(stars), np.concatenate(pmeprs)


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_batch_kernels_equal_scalar_paths_bit_for_bit(modulation):
    # star_batch, the coset kernel on D = 0, and pep_batch equal (not merely
    # come close to) the literal star sum and pmepr on every record
    (re, im, re_p, im_p), stars, pmeprs = family_stars_and_pmeprs(modulation)
    scale = Scale.QAM16 if modulation is Modulation.QAM16 else Scale.QAM64
    assert len(stars) == len(re) == (6144 if modulation is Modulation.QAM16 else 49152)
    assert np.array_equal(stars, oracles.star_rows(re, im, re_p, im_p, scale.value))
    for j in range(len(re)):
        assert pmeprs[j] == oracles.pmepr(ComplexSequence(re[j], im[j], scale))


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_star_rows_is_the_literal_star(modulation):
    # the all-records star oracle against the one-record literal sum, bit
    # for bit, on a seeded sample of family records and on random lattice
    # pairs, whose star sums are not integers
    (re, im, re_p, im_p), _, _ = family_stars_and_pmeprs(modulation)
    scale = Scale.QAM16 if modulation is Modulation.QAM16 else Scale.QAM64
    rng = np.random.default_rng(20240731)
    sample = rng.choice(len(re), size=300, replace=False)
    rows = oracles.star_rows(re[sample], im[sample], re_p[sample], im_p[sample], scale.value)
    for value, j in zip(rows, sample):
        a = ComplexSequence(re[j], im[j], scale)
        b = ComplexSequence(re_p[j], im_p[j], scale)
        assert value == oracles.star(a, b)
    pairs = rng.integers(-7, 8, size=(4, 200, 8))
    rows = oracles.star_rows(*pairs, scale.value)
    for k, value in enumerate(rows):
        a = ComplexSequence(pairs[0, k], pairs[1, k], scale)
        b = ComplexSequence(pairs[2, k], pairs[3, k], scale)
        assert value == oracles.star(a, b)
    assert not np.all(rows * scale.value == np.rint(rows * scale.value))


def test_star_sum_takes_the_correctly_rounded_root_of_each_exact_norm():
    # one shift per row, so star_sum is |T(0)|: a Gaussian integer whose norm
    # is a perfect square gives its integer root exactly, and any other
    # gives math.sqrt of the exact Python-int norm (parts below 2^26, so the
    # norm is below 2^53 and converts to float exactly)
    rng = np.random.default_rng(18)
    p, q, k = (rng.integers(1, 64, size=2000) for _ in range(3))
    legs = np.stack([k * (p * p - q * q), k * 2 * p * q])  # hypotenuse k * (p^2 + q^2)
    sums = (legs[0] + 1j * legs[1])[:, None]
    assert np.array_equal(analysis.star_sum(sums), k * (p * p + q * q))
    assert np.array_equal(analysis.star_sum(np.conj(sums)), k * (p * p + q * q))
    re, im = rng.integers(-(1 << 26), 1 << 26, size=(2, 20000))
    roots = [math.sqrt(a * a + b * b) for a, b in zip(re.tolist(), im.tolist())]
    assert np.array_equal(analysis.star_sum((re + 1j * im)[:, None]), roots)


def test_pep_batch_equals_its_one_row_calls_in_bounded_slices(monkeypatch):
    # a stacked batch runs its envelope FFT in slices of rows whose L*n grids
    # hold at most CHUNK_SYMBOLS points, and every row's peak is bit for bit
    # that of its own one-row call
    z = random_baseline(16, Modulation.QAM64, 600, seed=7)
    single = np.array([pep_batch(row[None, :], 16)[0] for row in z])
    shapes = []
    real = analysis.envelope_power_batch

    def recorded(batch, oversample):
        shapes.append(batch.shape)
        return real(batch, oversample)

    monkeypatch.setattr(analysis, "envelope_power_batch", recorded)
    stacked = pep_batch(z, 16)
    assert np.array_equal(stacked, single)
    assert analysis.CHUNK_SYMBOLS // (16 * 16) == 128
    assert shapes == [(128, 16)] * 4 + [(88, 16)]
    # an empty batch has no peaks and runs no FFT
    assert pep_batch(z[:0], 16).shape == (0,)
    assert len(shapes) == 5


def test_pep_batch_rejects_oversample_below_one():
    z = build(EX1_PARAMS).complex_symbols()[0]
    with pytest.raises(ValueError, match="oversample must be >= 1, got 0"):
        pep_batch(z, 0)


def test_golay_defect_batch_detects_non_pairs():
    base = EX1_PARAMS.base
    d_vals = psi(base)
    a = polyphase_lattice(d_vals[None, :])
    b = polyphase_lattice(psi(primed(base))[None, :])
    assert golay_defect_batch(a, b)[0] == 0
    # a sequence paired with itself is not a Golay pair
    assert golay_defect_batch(a, a)[0] > 0


def test_correlation_sums_batch_matches_autocorr():
    # the reference loop against the two-sided integer autocorrelation: the
    # pair (H, H') as both operands gives C_H(u) + C_H'(u)
    record = build_record(EX1_PARAMS)
    seq, pr = record.sequence, record.primed_sequence
    pair = np.stack([seq.re + 1j * seq.im, pr.re + 1j * pr.im])[:, None, :]
    sums = oracles.correlation_sums_batch(pair, pair)
    ca, cb = autocorr(seq), autocorr(pr)
    n = len(seq)
    assert sums.shape == (1, n)
    for u in range(n):
        k = u + n - 1
        assert sums[0, u] == complex(ca.num_re[k] + cb.num_re[k], ca.num_im[k] + cb.num_im[k])


def test_correlation_sums_batch_cross_terms_match_definition():
    # the reference loop against sum_k sum_i a_k[i] * conj(b_k[i + u]) in
    # exact Python integers, for distinct operands, complex and integer inputs
    rng = np.random.default_rng(7)
    a = rng.integers(-7, 8, size=(3, 5, 8)) + 1j * rng.integers(-7, 8, size=(3, 5, 8))
    b = rng.integers(-7, 8, size=(3, 5, 8)) + 1j * rng.integers(-7, 8, size=(3, 5, 8))
    for x, y in ((a, b), (a.real.astype(np.int64), b.imag.astype(np.int64))):
        sums = oracles.correlation_sums_batch(x, y)
        for row in range(5):
            for u in range(8):
                want = sum(
                    complex(x[k, row, i]) * complex(y[k, row, i + u]).conjugate()
                    for k in range(3)
                    for i in range(8 - u)
                )
                assert sums[row, u] == want


@pytest.mark.parametrize("n", [8, 16, 32])
def test_autocorrelation_sums_are_the_literal_loop(n):
    # the coset kernel on the base row D = 0 with no companion against the
    # per-shift loop, bit for bit, on seeded Gaussian-integer pairs, and the
    # star and Golay defect of the batch kernels against their reductions
    rng = np.random.default_rng(n)
    parts = rng.integers(-7, 8, size=(4, 50, n))
    a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    want = oracles.autocorrelation_sums(a, b)
    assert np.array_equal(analysis.autocorrelation_sums(a, b), want)
    assert np.array_equal(star_batch(a, b, 10), star_sum(want) / 10)
    assert np.array_equal(golay_defect_batch(a, b), analysis.golay_defect(want))


def _explicit_sums(sequences, sign):
    """C_z(u) + C_gz(u) of each (..., n) sequence z with its companion g * z,
    from the reference loop over the explicit pair."""
    z = sequences.reshape(-1, sequences.shape[-1])
    return oracles.autocorrelation_sums(z, z * sign).reshape(sequences.shape)


@pytest.mark.parametrize("modulation", list(Modulation), ids=lambda mod: mod.value)
@pytest.mark.parametrize("m, cells", [(3, None), (4, 2), (5, 2)])
def test_coset_kernel_equals_the_explicit_correlations(m, cells, modulation):
    # every sum the family walks take from coset_correlation_sums, bit for bit
    # against the reference loop over the explicit sequences: the codewords
    # and the components with their companions, and the lemma's T of D with
    # each form and a2a3 T of D + s1 with s1 - s2, for the cell's offsets
    # and the three negative-control offsets; on every cell of m=3, the
    # first two of m=4 and m=5
    d = Offset16(0, 1, 1)
    controls = (Offset16(0, 0, 0), Offset64(OffsetKind.TYPE1, d, 2, 0, 0),
                Offset64(OffsetKind.TYPE2, d, 0, 0, 0))
    offsets = _offset_list(modulation)
    for pi, rows in itertools.islice(family_cells(m, (1 << m) * len(offsets)), cells):
        block = build_block(m, pi, offsets, rows)
        base, sign = block.components[0], block.companion_sign
        units = polyphase_lattice(block.components)
        for sequences in (block.symbols, units):
            x = row_free(sequences, units[0])
            got = coset_correlation_sums(base, shift_factors(x, x, sign))
            assert np.array_equal(got, _explicit_sums(sequences, sign))
        lemma_offsets = offsets + controls
        forms = list(dict.fromkeys(f for off in lemma_offsets for f in offset_forms(off)))
        values = dict(zip(forms, form_values(forms, m, pi).astype(np.int64)))
        pairs = [offset_forms(off) for off in lemma_offsets if isinstance(off, Offset64)]
        # (row-free p, q, explicit B, s): T of B with s, P = zeta^(B+s), Q = zeta^B
        cases = [(ZETA[values[f] % 4], np.ones(1 << m), base, values[f]) for f in forms]
        cases += [(ZETA[(2 * values[f1] - values[f2]) % 4], ZETA[values[f1] % 4],
                   (base + values[f1]) % 4, values[f1] - values[f2]) for f1, f2 in pairs]
        p, q = (np.stack([case[k] for case in cases]) for k in (0, 1))
        got = coset_correlation_sums(base, shift_factors(p, q, sign) + shift_factors(q, p, sign))
        for t, (_, _, explicit, s) in zip(got, cases, strict=True):
            want = oracles.correlation_sums_batch(*oracles._lemma_terms(explicit, s, sign))
            assert np.array_equal(t, want)


def test_coset_kernel_is_the_same_in_any_row_slices(monkeypatch):
    # the kernel runs its rows in slices sized by its footprint: slices of
    # one row, of three rows (the last one short), and the default budget's
    # 25 rows give the one-slice sums of all 40 rows bit for bit
    block = build_block(4, (0, 1, 2, 3), _offset_list(Modulation.QAM64), orbit_rows(4)[:40])
    units = polyphase_lattice(block.components)
    x = row_free(block.symbols, units[0])
    factors = shift_factors(x, x, block.companion_sign)
    assert analysis.CHUNK_SYMBOLS // coset_footprint(16, 64) == 25
    sliced = coset_correlation_sums(block.components[0], factors)
    for budget in (40, 1, 3):
        monkeypatch.setattr(analysis, "CHUNK_SYMBOLS", budget * coset_footprint(16, 64))
        assert np.array_equal(coset_correlation_sums(block.components[0], factors), sliced)


def test_row_free_refuses_a_sequence_outside_its_coset():
    # negative control: one symbol of one row moved by one lattice unit is
    # no longer zeta^D times the row-free sequence of the other rows
    block = build_block(3, (0, 2, 1), _offset_list(Modulation.QAM16), orbit_rows(3))
    units = polyphase_lattice(block.components)
    x = row_free(block.symbols, units[0])
    assert np.array_equal(block.symbols, units[0] * x[:, None, :])
    forged = block.symbols.copy()
    forged[3, 17, 5] += 1
    with pytest.raises(ValueError, match="not zeta\\^D times one row-free sequence"):
        row_free(forged, units[0])
