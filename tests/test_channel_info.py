import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amrbeam import (
    DirectInfo,
    build_table,
    gauss_hermite,
    interpolate_mi,
    load_info_table,
    make_custom,
    make_psk,
    make_qam,
    mi_curve,
    mmse,
    mmse_curve,
    mutual_information,
    save_info_table,
)
from amrbeam.channel_info import _blocks

LN2 = math.log(2.0)


def mc_mutual_information(c, gamma, n, seed):
    """Monte Carlo oracle: sample the exact conditional-likelihood expression.

    I = log2(M) - E_n[ mean_m log2 sum_m' exp(|n|^2 - |n + sqrt(g)(x_m - x_m')|^2) ]
    with n ~ CN(0,1). Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    s = math.sqrt(gamma)
    chunks = []
    blocks = 10
    for _ in range(blocks):
        m = n // blocks
        noise = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2)
        vals = np.zeros(m)
        for i, x in enumerate(c.points):
            d = x - c.points
            e = -(2 * s * np.real(np.conj(noise)[:, None] * d[None, :]) + gamma * (np.abs(d) ** 2)[None, :])
            shift = e.max(axis=1, keepdims=True)
            vals += np.log(np.exp(e - shift).sum(axis=1)) + shift[:, 0]
        chunks.append(vals / c.order)
    vals = np.concatenate(chunks) / LN2
    return c.bits - vals.mean(), vals.std(ddof=1) / math.sqrt(n)


# Frozen from mc_mutual_information(make_psk(2), 1.0, 10**7, seed=12345).
BPSK_G1_MC_MEAN = 0.7211809174606095
BPSK_G1_MC_3SE = 3 * 1.5125128116006957e-4


def test_mi_zero_snr(qam4):
    assert mutual_information(qam4, 0.0, 40) == pytest.approx(0.0, abs=1e-10)


def test_mi_saturates(qam4):
    assert mutual_information(qam4, 1e6, 60) == pytest.approx(2.0, abs=1e-6)


def test_mi_bpsk_matches_mc_oracle(bpsk):
    assert abs(mutual_information(bpsk, 1.0, 60) - BPSK_G1_MC_MEAN) < BPSK_G1_MC_3SE


def test_mmse_zero_snr_is_inverse_ln2(qam4):
    assert mmse(qam4, 0.0, 40) == pytest.approx(1.0 / LN2, abs=1e-8)


def test_mmse_decays_super_exponentially(qam4):
    assert mmse(qam4, 1e6, 60) < 1e-20


def test_mmse_matches_finite_difference_at_unit_snr(bpsk):
    h = 1e-4
    fd = (mutual_information(bpsk, 1.0 + h, 60) - mutual_information(bpsk, 1.0 - h, 60)) / (2 * h)
    assert abs(fd - mmse(bpsk, 1.0, 60)) < 1e-5


def test_i_mmse_consistency_random_snrs(bpsk, qam4, rng):
    for c in (bpsk, qam4):
        gammas = 10.0 ** rng.uniform(math.log10(2e-4), 4.0, 60)
        for g in gammas:
            h = 1e-4 * max(g, 1.0)
            fd = (mutual_information(c, g + h, 40) - mutual_information(c, g - h, 40)) / (2 * h)
            m = mmse(c, float(g), 40)
            assert abs(fd - m) <= max(1e-5, 1e-3 * m)


def test_monotonicity_on_random_pairs(qam4, rng):
    gammas = np.sort(10.0 ** rng.uniform(-4, 4, 100))
    mi = mi_curve(qam4, gammas, 40)
    mm = mmse_curve(qam4, gammas, 40)
    assert np.all(np.diff(mi) >= -1e-12)
    assert np.all(np.diff(mm) <= 1e-12)
    assert np.all(mi >= 0.0) and np.all(mi <= qam4.bits)


def test_estimation_error_tail_decay(bpsk, qam4, qam16):
    # log mmse must fall at least linearly with slope -d_min^2/8 (5% slack)
    for c in (bpsk, qam4, qam16):
        m20 = mmse(c, 20.0, 40)
        m80 = mmse(c, 80.0, 40)
        slope = (math.log(m80) - math.log(m20)) / 60.0
        assert slope <= -(c.d_min**2 / 8.0) * 0.95


def test_first_moment_of_mmse_tail(bpsk, qam4):
    # convergence of int x mmse(x) dx: the bpsk tail beyond 100 is negligible
    # in absolute terms; wider alphabets decay slower, so check them relative
    xs = np.logspace(2, 3.4, 3000)
    tail_bpsk = np.trapezoid(xs * mmse_curve(bpsk, xs, 40), xs)
    assert tail_bpsk < 1e-12
    xs4 = np.logspace(2, 3.4, 3000)
    body = np.logspace(-6, 2, 3000)
    total4 = np.trapezoid(body * mmse_curve(qam4, body, 40), body)
    tail4 = np.trapezoid(xs4 * mmse_curve(qam4, xs4, 40), xs4)
    assert tail4 < 1e-6 * total4


def test_build_table_grid_and_monotonicity(qam4):
    t = build_table(qam4, -40.0, 40.0, 20, 40, band_order=120)
    assert len(t.snr_grid) == 161
    assert np.all(np.diff(t.snr_grid) > 0)
    assert np.all(np.diff(t.mi_values) >= 0)
    assert np.all(t.mmse_values > 0)
    assert np.all(np.diff(t.mmse_values) <= 0)
    assert t.mi_values[0] < 1e-3  # first grid SNR is 1e-4


def test_build_table_validation(qam4):
    with pytest.raises(ValueError):
        build_table(qam4, 10.0, -10.0, 20, 40)
    with pytest.raises(ValueError):
        build_table(qam4, -10.0, 10.0, 5, 40)


def test_table_lookup_identities(table_qam4, qam4):
    # stored grid nodes reproduce exactly; extremes follow the anchor rules
    idx = [0, 37, 160, 250]
    for i in idx:
        g = table_qam4.snr_grid[i]
        assert table_qam4.mi(g) == pytest.approx(table_qam4.mi_values[i], abs=5e-16)
    assert interpolate_mi(table_qam4, 0.0) == 0.0
    assert interpolate_mi(table_qam4, 10.0 * table_qam4.snr_grid[-1]) == pytest.approx(
        qam4.bits, abs=1e-9
    )


def test_table_interpolation_accuracy(table_qam4, qam4, rng):
    gammas = 10.0 ** rng.uniform(-3.9, 3.9, 100)
    direct = mi_curve(qam4, gammas, 40, band_order=200)
    interp = table_qam4.mi(gammas)
    assert np.max(np.abs(direct - interp)) < 1e-4


def test_direct_info_matches_pointwise(qam4):
    info = DirectInfo(qam4, 40)
    for g in (0.0, 0.3, 7.0, 2e3):
        assert info.mi(g) == pytest.approx(mutual_information(qam4, g, 40), abs=0.0)
        assert info.mmse(g) == pytest.approx(mmse(qam4, g, 40), abs=0.0)


def test_table_cache_round_trip(tmp_path, table_qam4):
    path = tmp_path / "table.json"
    save_info_table(table_qam4, path)
    loaded = load_info_table(path, expected_key=table_qam4.key())
    assert loaded is not None
    assert np.allclose(loaded.snr_grid, table_qam4.snr_grid)
    assert np.allclose(loaded.mi_values, table_qam4.mi_values)
    assert np.allclose(loaded.mmse_values, table_qam4.mmse_values)
    assert loaded.key() == table_qam4.key()
    # a lookup through the reloaded interpolant matches
    assert loaded.mi(3.7) == pytest.approx(table_qam4.mi(3.7), abs=1e-14)


def test_table_cache_invalidation(tmp_path, table_qam4):
    path = tmp_path / "table.json"
    save_info_table(table_qam4, path)
    wrong = dict(table_qam4.key(), hermite_order=60)
    assert load_info_table(path, expected_key=wrong) is None
    assert load_info_table(tmp_path / "missing.json") is None
    (tmp_path / "corrupt.json").write_text("{not json")
    assert load_info_table(tmp_path / "corrupt.json") is None


def test_argument_validation(qam4):
    with pytest.raises(ValueError):
        mutual_information(qam4, -1.0, 40)
    with pytest.raises(ValueError):
        mutual_information(qam4, 1.0, 8)
    with pytest.raises(ValueError):
        mmse(qam4, 1.0, 300)


def tensor_oracle(c, gamma, order):
    """MI and bit-MMSE as the full 2-D tensor Gauss-Hermite sum over all symbol pairs.

    Shifts the integration variable to the noise, n ~ CN(0, 1), and sums every
    transmitted symbol over the order^2 grid; one symbol at a time bounds memory.
    """
    rule = gauss_hermite(order)
    nr = np.repeat(rule.nodes, order)
    ni = np.tile(rule.nodes, order)
    w = np.outer(rule.weights, rule.weights).ravel() / math.pi
    s = math.sqrt(gamma)
    penalty = err = 0.0
    for x in c.points:
        d = x - c.points
        e = -2.0 * s * (np.outer(d.real, nr) + np.outer(d.imag, ni)) - gamma * (np.abs(d) ** 2)[:, None]
        shift = e.max(axis=0)
        p = np.exp(e - shift)
        total = p.sum(axis=0)
        penalty += np.dot(np.log(total) + shift, w)
        est_re = c.points.real @ p / total
        est_im = c.points.imag @ p / total
        err += np.dot((x.real - est_re) ** 2 + (x.imag - est_im) ** 2, w)
    return c.bits - penalty / c.order / LN2, err / c.order / LN2


def assert_matches_oracle(c, gammas, order):
    # band_order == order pins the rule, so kernel and oracle sum the same nodes
    mi = mi_curve(c, gammas, order, band_order=order)
    mm = mmse_curve(c, gammas, order, band_order=order)
    for g, a, b in zip(gammas, mi, mm):
        ref_mi, ref_mm = tensor_oracle(c, g, order)
        assert abs(a - ref_mi) < 1e-12, (c.label, g, order, a - ref_mi)
        assert abs(b - ref_mm) < 1e-12, (c.label, g, order, b - ref_mm)


NAMED = {
    "4-QAM": lambda: make_qam(4),
    "16-QAM": lambda: make_qam(16),
    "64-QAM": lambda: make_qam(64),
    "2-PSK": lambda: make_psk(2),
    "4-PSK": lambda: make_psk(4),
    "8-PSK": lambda: make_psk(8),
    "16-PSK": lambda: make_psk(16),
}


@pytest.mark.parametrize("order", [40, 120, 200])
@pytest.mark.parametrize("name", list(NAMED))
def test_kernel_matches_tensor_oracle_named(name, order):
    c = NAMED[name]()
    # one point inside the boundary-layer band; where the oracle's M^2 order^2
    # cost allows, also both ends of the SNR domain and the decades between
    gammas = [20.0 / c.d_min**2]
    if c.order**2 * order**2 <= 2e7:
        gammas += [1e-4, 1e-2, 1.0, 1e2, 1e4]
    assert_matches_oracle(c, np.array(gammas), order)


def test_structure_reductions():
    # square QAM and BPSK split into two 1-D axis blocks; PSK keeps one 2-D
    # block per orbit under the 8 grid symmetries; no symmetry, no reduction
    for c, dims, count in (
        (make_qam(64), 1, 2),
        (make_psk(2), 1, 2),
        (make_psk(4), 2, 1),
        (make_psk(8), 2, 2),
        (make_psk(16), 2, 3),
        (make_custom([0, 1, 3j, 2 + 1j]), 2, 4),
    ):
        blocks = _blocks(c.points.tobytes(), c.d_min)
        assert len(blocks) == count, c.label
        assert all(alphabet.shape[1] == dims for _, alphabet, _ in blocks)


# z -> j^k z and z -> j^k conj(z); a generator set closes into a subgroup
_SYMMETRY_GENERATORS = [
    [lambda z: 1j * z],
    [lambda z: -z],
    [np.conj],
    [lambda z: 1j * np.conj(z)],
    [lambda z: -z, np.conj],
    [lambda z: 1j * z, np.conj],
]


def _close_under(points, maps):
    pts = list(points)
    i = 0
    while i < len(pts):
        for f in maps:
            q = complex(f(pts[i]))
            if min(abs(q - p) for p in pts) > 1e-12:
                pts.append(q)
        i += 1
    return np.array(pts)


def _random_points(seed, size):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


_seed = st.integers(0, 2**32 - 1)
_snr = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
_order = st.sampled_from([40, 120, 200])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=_seed, size=st.integers(1, 3), generators=st.sampled_from(_SYMMETRY_GENERATORS), gamma=_snr, order=_order)
def test_kernel_matches_tensor_oracle_symmetric_custom(seed, size, generators, gamma, order):
    points = _close_under(_random_points(seed, size), generators)
    c = make_custom(points)
    assume(c.d_min > 0.05)
    assert len(_blocks(c.points.tobytes(), c.d_min)) < c.order
    assert_matches_oracle(c, np.array([gamma]), order)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=_seed, size=st.integers(2, 9), gamma=_snr, order=_order)
def test_kernel_matches_tensor_oracle_asymmetric_custom(seed, size, gamma, order):
    c = make_custom(_random_points(seed, size))
    assume(c.d_min > 0.05)
    assert_matches_oracle(c, np.array([gamma]), order)


def test_orbit_path_memory_is_one_symbol_at_a_time():
    # 64 points without symmetry at order 200: the full pairwise exponent
    # array would be 64^2 * 200^2 doubles (1.3 GB); one symbol's is 20 MB
    rng = np.random.default_rng(64)
    c = make_custom(rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert len(_blocks(c.points.tobytes(), c.d_min)) == 64
    gamma = 20.0 / c.d_min**2
    tracemalloc.start()
    try:
        mi_curve(c, gamma, 200)
        mmse_curve(c, gamma, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("m", [64, 256])
def test_large_qam_i_mmse_and_saturation(m, rng):
    c = make_qam(m)
    gammas = 10.0 ** rng.uniform(-3.0, 4.0, 30)
    for g in gammas:
        h = 1e-4 * max(g, 1.0)
        fd = (mutual_information(c, g + h, 40) - mutual_information(c, g - h, 40)) / (2 * h)
        mm = mmse(c, float(g), 40)
        assert abs(fd - mm) <= max(1e-5, 1e-3 * mm)
    assert mutual_information(c, 1e6, 40) == pytest.approx(c.bits, abs=1e-9)
    assert mmse(c, 1e6, 40) < 1e-20


def test_build_table_qam256_is_fast_and_saturates():
    start = time.perf_counter()
    t = build_table(make_qam(256), -10.0, 40.0, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert np.all(np.diff(t.mi_values) >= 0.0)
    assert t.mi_values[-1] == pytest.approx(8.0, abs=1e-6)
