import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from oracles import autocorr, polyphase, primed
from qamseq.analysis import (
    CcdfCurve,
    EnvelopeConfig,
    ccdf,
    correlation_sums_batch,
    default_threshold_grid,
    envelope_power_batch,
    golay_defect_batch,
    pep_batch,
    pmepr,
    polyphase_lattice,
    random_baseline,
    star,
    star_batch,
)
from qamseq.constellation import ComplexSequence, Scale, qam16_map
from qamseq.constructions import (
    CodewordRecord,
    ConstructionParams,
    Modulation,
    Offset16,
    Offset64,
    OffsetKind,
    build,
    grid_records,
    iter_family_chunks,
)
from qamseq.gbf import PathQuadratic, psi

EX1_PARAMS = ConstructionParams(
    base=PathQuadratic(m=3, pi=(0, 1, 2), linear=(1, 1, 1), constant=0),
    offset=Offset16(0, 1, 1),
)


def ones(n, scale=Scale.UNIT):
    return ComplexSequence(np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), scale)


def pep(seq, oversample=16):
    """The library's peak envelope power of one sequence: a one-row pep_batch."""
    return pep_batch(seq.to_complex()[None, :], oversample)[0]


lattice_sequences = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: arrays(np.int64, n, elements=st.integers(0, 3)).map(
        lambda vals: ComplexSequence(*polyphase_lattice(vals), Scale.UNIT)
    )
)

lattice_pairs = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(0, 3)),
        arrays(np.int64, n, elements=st.integers(0, 3)),
    ).map(lambda ab: tuple(ComplexSequence(*polyphase_lattice(v), Scale.UNIT) for v in ab))
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
    record = build(EX1_PARAMS)
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
    assert pep(a) <= star(a, b) + 1e-9


def test_star_polyphase_golay_pair_is_2n():
    base = EX1_PARAMS.base
    a = polyphase(psi(base))
    b = polyphase(psi(primed(base)))
    assert star(a, b) == pytest.approx(16.0, abs=1e-12)


def test_star_all_ones_self():
    a = ones(4)
    assert star(a, a) == pytest.approx(32.0, abs=1e-12)


def test_star_reference_codeword_within_bound():
    record = build(EX1_PARAMS)
    value = star(record.sequence, record.primed_sequence)
    assert 16.0 - 1e-9 <= value <= 19.2 + 1e-9


def test_star_length_and_scale_mismatch():
    with pytest.raises(ValueError):
        star(ones(4), ones(5))
    with pytest.raises(ValueError):
        star(ones(4), ones(4, Scale.QAM16))


@given(lattice_pairs)
@settings(max_examples=60)
def test_star_two_code_paths_agree(pair):
    # the literal full-range sum against the batched conjugate-symmetric form
    a, b = pair
    one_row = star_batch(a.re[None, :], a.im[None, :], b.re[None, :], b.im[None, :], 1)
    assert oracles.star(a, b) == pytest.approx(one_row[0], rel=1e-12)
    assert star(a, b) == one_row[0]


def test_star_polyphase_identity_form():
    # for polyphase pairs: star = 2n + 2 * sum_{u>=1} |C_a(u) + C_b(u)|
    base = EX1_PARAMS.base
    a = polyphase(psi(base))
    b = polyphase(psi(primed(base)))
    ca, cb = autocorr(a), autocorr(b)
    n = len(a)
    tail = sum(abs(ca.value(u) + cb.value(u)) for u in range(1, n))
    assert star(a, b) == pytest.approx(2 * n + 2 * tail, abs=1e-12)


def test_pep_coherent_sum():
    for n in (4, 8):
        assert pep(ones(n)) == pytest.approx(n**2, rel=1e-12)


def test_pep_single_symbol_flat():
    seq = ComplexSequence(np.array([1, 0, 0, 0]), np.zeros(4, dtype=np.int64), Scale.UNIT)
    assert pep(seq) == pytest.approx(1.0, rel=1e-12)


def test_pep_monotone_in_oversampling():
    record = build(EX1_PARAMS)
    values = [pmepr(record.sequence, EnvelopeConfig(oversample=l)) for l in (1, 2, 4, 8, 16, 32)]
    assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))


def test_pmepr_all_ones():
    assert pmepr(ones(8)) == pytest.approx(8.0, rel=1e-12)


def test_pmepr_reference_values():
    rec1 = build(EX1_PARAMS)
    p = pmepr(rec1.sequence)
    assert p == pytest.approx(2.0587415658, abs=1e-6)
    assert abs(p - 2.1) <= 0.05


def test_pmepr_golay_polyphase_at_most_two():
    base = EX1_PARAMS.base
    assert pmepr(polyphase(psi(base))) <= 2.0 + 1e-9


def test_envelope_mean_power_parseval():
    record = build(EX1_PARAMS)
    energy = float(record.sequence.energy())
    z = record.sequence.to_complex()[None, :]
    for l in (1, 4, 16):
        power = envelope_power_batch(z, l)
        assert power.shape == (1, l * 8)
        assert np.mean(power) == pytest.approx(energy, rel=1e-12)
        assert np.max(power) == pep_batch(z, l)[0]


def star_bound_holds(record, bound):
    """pmepr <= star/n <= bound (within 1e-9), and star/n, for one codeword."""
    star_over_n = star(record.sequence, record.primed_sequence) / len(record.sequence)
    p = pmepr(record.sequence)
    return p <= star_over_n + 1e-9 and star_over_n <= bound + 1e-9, star_over_n


def test_star_bound_check_reference_pass():
    passed, _ = star_bound_holds(build(EX1_PARAMS), 2.4)
    assert passed


def test_star_bound_check_64qam_reference_pass():
    params = ConstructionParams(
        base=EX1_PARAMS.base,
        offset=Offset64(OffsetKind.TYPE1, Offset16(0, 1, 1), 0, 0, 0),
    )
    passed, star_over_n = star_bound_holds(build(params), 3.62)
    assert passed
    assert star_over_n == pytest.approx(76 / 21, abs=1e-9)


def test_star_bound_check_fake_record_fails():
    fake_seq = ones(8)  # unit-magnitude coherent sum: pmepr = n
    fake = CodewordRecord(params=EX1_PARAMS, sequence=fake_seq, primed_sequence=fake_seq)
    passed, star_over_n = star_bound_holds(fake, 2.4)
    assert not passed
    assert pmepr(fake_seq) == pytest.approx(8.0, rel=1e-9)
    assert star_over_n > 2.4


def test_ccdf_counting():
    curve = ccdf([1.0, 2.0, 3.0], [0.0, 2.5, 4.0])
    assert curve.probabilities.tolist() == [1.0, pytest.approx(1 / 3), 0.0]


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
    seqs = random_baseline(16, Modulation.QAM16, 50, seed=42)
    assert len(seqs) == 50
    grid = {qam16_map(u, v)[:2] for u in range(4) for v in range(4)}
    for seq in seqs[:5]:
        assert seq.scale is Scale.QAM16
        for r, i in zip(seq.re, seq.im):
            assert (int(r), int(i)) in grid
    again = random_baseline(16, Modulation.QAM16, 50, seed=42)
    assert all(a == b for a, b in zip(seqs, again))
    different = random_baseline(16, Modulation.QAM16, 50, seed=43)
    assert any(a != b for a, b in zip(seqs, different))


def test_random_baseline_count_validation():
    with pytest.raises(ValueError):
        random_baseline(8, Modulation.QAM16, 0, seed=1)


def test_batch_kernels_match_scalar_paths():
    record = build(EX1_PARAMS)
    seq, pr = record.sequence, record.primed_sequence
    stars = star_batch(
        seq.re[None, :], seq.im[None, :], pr.re[None, :], pr.im[None, :], Scale.QAM16.value
    )
    assert stars[0] == pytest.approx(oracles.star(seq, pr), rel=1e-12)
    peps = pep_batch(seq.to_complex()[None, :], 16)
    assert peps[0] == pytest.approx(oracles.pep(seq), rel=1e-12)


@pytest.mark.parametrize("modulation", [Modulation.QAM16, Modulation.QAM64])
def test_batch_kernels_equal_scalar_paths_bit_for_bit(modulation):
    # enumerate writes star_batch and pep_batch values where records used to
    # carry the literal star and pmepr; its output is byte-identical only
    # while they are equal (not merely close) on every record, batched as
    # enumerate batches
    n = 8
    for blocks in iter_family_chunks(3, modulation):
        sign = blocks[0].companion_sign
        stars = [
            star_batch(b.sym_re, b.sym_im, b.sym_re * sign, b.sym_im * sign, b.scale.value)
            for b in blocks
        ]
        pmeprs = [pep_batch(b.complex_symbols(), 16) / n for b in blocks]
        records = grid_records(blocks)
        for j in range(len(blocks[0])):
            for k in range(len(blocks)):
                record = next(records)
                assert stars[k][j] == oracles.star(record.sequence, record.primed_sequence)
                assert pmeprs[k][j] == oracles.pmepr(record.sequence)


def test_pep_batch_rejects_oversample_below_one():
    z = build(EX1_PARAMS).sequence.to_complex()[None, :]
    with pytest.raises(ValueError, match="oversample must be >= 1, got 0"):
        pep_batch(z, 0)


def test_golay_defect_batch_detects_non_pairs():
    base = EX1_PARAMS.base
    d_vals = psi(base)
    re_a, im_a = polyphase_lattice(d_vals[None, :])
    re_b, im_b = polyphase_lattice(psi(primed(base))[None, :])
    assert golay_defect_batch(re_a, im_a, re_b, im_b)[0] == 0
    # a sequence paired with itself is not a Golay pair
    assert golay_defect_batch(re_a, im_a, re_a, im_a)[0] > 0


def test_correlation_sums_batch_matches_autocorr():
    record = build(EX1_PARAMS)
    seq, pr = record.sequence, record.primed_sequence
    sum_re, sum_im = correlation_sums_batch(
        seq.re[None, :], seq.im[None, :], pr.re[None, :], pr.im[None, :]
    )
    ca, cb = autocorr(seq), autocorr(pr)
    n = len(seq)
    for u in range(n):
        k = u + n - 1
        assert sum_re[0, u] == ca.num_re[k] + cb.num_re[k]
        assert sum_im[0, u] == ca.num_im[k] + cb.num_im[k]
