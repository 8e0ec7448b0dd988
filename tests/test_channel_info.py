import itertools
import math
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amrbeam import (
    DirectInfo,
    build_table,
    InfoTable,
    make_custom,
    make_psk,
    make_qam,
    mi_curve,
    mmse_curve,
)
from amrbeam import amr, channel_info
from amrbeam.channel_info import _BAND, _WEIGHT_FLOOR, _block_rule, _blocks

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
    assert mi_curve(qam4, 0.0)[0] == pytest.approx(0.0, abs=1e-10)


def test_mi_saturates(qam4):
    assert mi_curve(qam4, 1e6)[0] == pytest.approx(2.0, abs=1e-6)


def test_mi_bpsk_matches_mc_oracle(bpsk):
    assert abs(mi_curve(bpsk, 1.0)[0] - BPSK_G1_MC_MEAN) < BPSK_G1_MC_3SE


def test_mmse_zero_snr_is_inverse_ln2(qam4):
    assert mmse_curve(qam4, 0.0)[0] == pytest.approx(1.0 / LN2, abs=1e-8)


def test_mmse_decays_super_exponentially(qam4):
    assert mmse_curve(qam4, 1e6)[0] < 1e-20


def test_mmse_matches_finite_difference_at_unit_snr(bpsk):
    h = 1e-4
    fd = (mi_curve(bpsk, 1.0 + h)[0] - mi_curve(bpsk, 1.0 - h)[0]) / (2 * h)
    assert abs(fd - mmse_curve(bpsk, 1.0)[0]) < 1e-5


def assert_i_mmse_consistent(c, gammas):
    """Central differences of mi_curve match mmse_curve at every SNR."""
    h = 1e-4 * np.maximum(gammas, 1.0)
    fd = (mi_curve(c, gammas + h) - mi_curve(c, gammas - h)) / (2 * h)
    m = mmse_curve(c, gammas)
    assert np.all(np.abs(fd - m) <= np.maximum(1e-5, 1e-3 * m))


def test_i_mmse_consistency_random_snrs(bpsk, qam4, rng):
    for c in (bpsk, qam4):
        assert_i_mmse_consistent(c, 10.0 ** rng.uniform(math.log10(2e-4), 4.0, 60))


def test_monotonicity_on_random_pairs(qam4, rng):
    gammas = np.sort(10.0 ** rng.uniform(-4, 4, 100))
    mi = mi_curve(qam4, gammas)
    mm = mmse_curve(qam4, gammas)
    assert np.all(np.diff(mi) >= -1e-12)
    assert np.all(np.diff(mm) <= 1e-12)
    assert np.all(mi >= 0.0) and np.all(mi <= qam4.bits)


def test_estimation_error_tail_decay(bpsk, qam4, qam16):
    # log mmse must fall at least linearly with slope -d_min^2/8 (5% slack)
    for c in (bpsk, qam4, qam16):
        m20, m80 = mmse_curve(c, [20.0, 80.0])
        slope = (math.log(m80) - math.log(m20)) / 60.0
        assert slope <= -(c.d_min**2 / 8.0) * 0.95


def test_first_moment_of_mmse_tail(bpsk, qam4):
    # convergence of int x mmse(x) dx: the bpsk tail beyond 100 is negligible
    # in absolute terms; wider alphabets decay slower, so check them relative
    xs = np.logspace(2, 3.4, 3000)
    tail_bpsk = np.trapezoid(xs * mmse_curve(bpsk, xs), xs)
    assert tail_bpsk < 1e-12
    xs4 = np.logspace(2, 3.4, 3000)
    body = np.logspace(-6, 2, 3000)
    total4 = np.trapezoid(body * mmse_curve(qam4, body), body)
    tail4 = np.trapezoid(xs4 * mmse_curve(qam4, xs4), xs4)
    assert tail4 < 1e-6 * total4


def test_build_table_grid_and_monotonicity(qam4):
    t = build_table(qam4, -40.0, 40.0, 20)
    assert len(t.snr_grid) == 161
    assert np.all(np.diff(t.snr_grid) > 0)
    assert np.all(np.diff(t.mi_values) >= 0)
    assert np.all(t.mmse_values > 0)
    assert np.all(np.diff(t.mmse_values) <= 0)
    assert t.mi_values[0] < 1e-3  # first grid SNR is 1e-4


def test_build_table_validation(qam4):
    with pytest.raises(ValueError):
        build_table(qam4, 10.0, -10.0, 20)
    with pytest.raises(ValueError):
        build_table(qam4, -10.0, 10.0, 5)


def test_table_lookup_identities(table_qam4, qam4):
    # stored grid nodes reproduce exactly; extremes follow the anchor rules
    idx = [0, 37, 160, 250]
    for i in idx:
        g = table_qam4.snr_grid[i]
        assert table_qam4.mi(g) == pytest.approx(table_qam4.mi_values[i], abs=5e-16)
    assert table_qam4.mi(0.0) == 0.0
    assert table_qam4.mi(10.0 * table_qam4.snr_grid[-1]) == pytest.approx(
        qam4.bits, abs=1e-9
    )


def _hermite_reference(table, gamma):
    """The clamped cubic Hermite interpolant, written with its basis functions."""
    u = np.log10(table.snr_grid)
    y = table.mi_values
    s = table.mmse_values * table.snr_grid * math.log(10.0)
    secant = np.diff(y) / np.diff(u)
    for i, d in enumerate(secant):  # Fritsch-Carlson clamp, one interval at a time
        if d == 0.0:
            s[i] = s[i + 1] = 0.0
        else:
            s[i] = min(s[i], 3.0 * d)
            s[i + 1] = min(s[i + 1], 3.0 * d)
    out = []
    for g in np.atleast_1d(gamma):
        if g < table.snr_grid[0]:
            out.append(g * y[0] / table.snr_grid[0])
            continue
        if g > table.snr_grid[-1]:
            out.append(table.constellation.bits)
            continue
        x = math.log10(g)
        i = min(int(np.searchsorted(u, x, side="right")) - 1, u.size - 2)
        h = u[i + 1] - u[i]
        tau = (x - u[i]) / h
        h00, h10 = 2 * tau**3 - 3 * tau**2 + 1, tau**3 - 2 * tau**2 + tau
        h01, h11 = -2 * tau**3 + 3 * tau**2, tau**3 - tau**2
        out.append(h00 * y[i] + h * h10 * s[i] + h01 * y[i + 1] + h * h11 * s[i + 1])
    return np.clip(out, 0.0, table.constellation.bits)


def test_table_mi_is_the_clamped_cubic_hermite(table_qam4, rng):
    u = np.log10(table_qam4.snr_grid)
    mids = 10.0 ** (0.5 * (u[1:] + u[:-1]))
    inside = 10.0 ** rng.uniform(u[0], u[-1], 500)
    below = table_qam4.snr_grid[0] * np.array([0.0, 1e-6, 0.3, 0.999])
    above = table_qam4.snr_grid[-1] * np.array([1.001, 10.0, 1e6])
    for g in (table_qam4.snr_grid, mids, inside, below, above):
        assert np.max(np.abs(table_qam4.mi(g) - _hermite_reference(table_qam4, g))) <= 1e-15
    assert np.array_equal(table_qam4.mi(table_qam4.snr_grid), table_qam4.mi_values)
    assert np.array_equal(table_qam4.mi(above), np.full(3, 2.0))
    assert table_qam4.mi(below[1]) == below[1] * table_qam4.mi_values[0] / table_qam4.snr_grid[0]
    value = table_qam4.mi(float(mids[7]))
    assert type(value) is float
    assert value == pytest.approx(_hermite_reference(table_qam4, mids[7])[0], abs=1e-15)
    assert type(table_qam4.mi(np.float64(0.5))) is float


def test_table_mi_clamps_both_knot_slopes(qam4):
    # slopes far above 3x the secants, and a flat interval, make every clamp bind
    grid = 10.0 ** (np.arange(6) / 10.0)
    table = InfoTable(constellation=qam4, snr_grid=grid,
                      mi_values=np.array([0.1, 0.1, 0.5, 1.9, 1.95, 2.0]),
                      mmse_values=np.full(6, 5.0))
    g = 10.0 ** np.linspace(0.0, 0.5, 201)
    # the terms reach ~4 here, so the two forms round apart by a few ulps of 4
    assert np.max(np.abs(table.mi(g) - _hermite_reference(table, g))) <= 4e-15
    assert np.all(np.diff(table.mi(g)) >= 0.0)


def test_table_refuses_a_grid_not_uniform_in_log10(table_qam4):
    fields = dict(constellation=table_qam4.constellation)
    grid = 10.0 ** (np.array([-10.0, -9.0, -7.5, -7.0]) / 10.0)
    values = dict(mi_values=np.linspace(0.1, 0.4, 4), mmse_values=np.full(4, 1.0))
    with pytest.raises(ValueError):
        InfoTable(snr_grid=grid, **values, **fields)
    with pytest.raises(ValueError):
        InfoTable(snr_grid=grid[:1], mi_values=values["mi_values"][:1],
                  mmse_values=values["mmse_values"][:1], **fields)
    uniform = 10.0 ** (np.array([-10.0, -9.0, -8.0, -7.0]) / 10.0)
    assert InfoTable(snr_grid=uniform, **values, **fields).mi(uniform[1]) == pytest.approx(0.2)


def _clipped_lookup(table, gamma):
    """InfoTable.mi as it was first written: the SNR clipped to the grid before the log."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    lo, hi = table.snr_grid[0], table.snr_grid[-1]
    u = np.log10(np.minimum(np.maximum(g, lo), hi))
    knots = table._knots
    i = ((u - knots[0]) * table._per_step).astype(np.intp)
    np.maximum(i, 0, out=i)
    np.minimum(i, knots.size - 2, out=i)
    s = u - knots[i]
    c3, c2, c1, c0 = table._cubics
    out = ((c3[i] * s + c2[i]) * s + c1[i]) * s + c0[i]
    np.maximum(out, 0.0, out=out)
    np.minimum(out, table.constellation.bits, out=out)
    out = np.where(g < lo, g * (table.mi_values[0] / lo), out)
    out[g > hi] = table.constellation.bits
    return float(out[0]) if scalar else out


# inputs the lookup takes that are not positive or not finite: 0, a subnormal, +inf
_SPECIAL_SNRS = [0.0, 5e-324, math.inf]


@st.composite
def _table_and_snrs(draw):
    """A table on a uniform log10 grid, and SNRs below, on, between and above its knots."""
    n = draw(st.integers(2, 40))
    u0 = draw(st.floats(-5.0, 3.0))
    step = draw(st.floats(0.01, 1.0))
    rng = np.random.default_rng(draw(_seed))
    grid = 10.0 ** (u0 + step * np.arange(n))
    mi = np.cumsum(rng.uniform(0.0, 1.0, n))
    table = InfoTable(constellation=make_qam(4), snr_grid=grid,
                      mi_values=2.0 * mi / (mi[-1] + rng.uniform(0.0, 1.0)),
                      mmse_values=rng.uniform(1e-6, 2.0, n))
    edge = st.sampled_from([grid[0], grid[-1]])
    factor = st.sampled_from([1e-300, 0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 2.0, 1e300])
    snrs = draw(st.lists(st.one_of(
        st.builds(lambda e, f: float(e) * f, edge, factor),  # a Python float overflows to inf quietly
        st.sampled_from(grid.tolist()),
        st.floats(u0 - 3.0, u0 + step * (n - 1) + 3.0).map(lambda x: 10.0**x),
        st.sampled_from(_SPECIAL_SNRS),
    ), min_size=1, max_size=30))
    return table, np.array(snrs)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_table_and_snrs())
def test_table_mi_is_the_clipped_lookup_bitwise(case):
    # the lookup takes the log of the raw SNR, since the branches off the
    # grid overwrite every value there, and warns about none of the inputs
    table, snrs = case
    with np.errstate(invalid="ignore"):  # the clipped form's cast warns on inf
        expected = _clipped_lookup(table, snrs)
        expected_scalars = [_clipped_lookup(table, g) for g in snrs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table.mi(snrs)
        got_scalars = [table.mi(g) for g in snrs]
        got_specials = table.mi(np.array(_SPECIAL_SNRS))
    assert np.array_equal(_bits(got), _bits(expected))
    assert all(type(v) is float for v in got_scalars)
    assert np.array_equal(_bits(got_scalars), _bits(expected_scalars))
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(got_specials), _bits(_clipped_lookup(table, _SPECIAL_SNRS)))


def test_table_interpolation_accuracy(table_qam4, qam4, rng):
    gammas = 10.0 ** rng.uniform(-3.9, 3.9, 100)
    direct = mi_curve(qam4, gammas, band_order=200)
    interp = table_qam4.mi(gammas)
    assert np.max(np.abs(direct - interp)) < 1e-4


def test_direct_info_matches_pointwise(qam4):
    info = DirectInfo(qam4)
    for g in (0.0, 0.3, 7.0, 2e3):
        assert info.mi(g) == pytest.approx(mi_curve(qam4, g)[0], abs=0.0)


def test_argument_validation(qam4):
    with pytest.raises(ValueError):
        mi_curve(qam4, -1.0)
    # the Hermite order is a constant of the kernel, not an argument
    with pytest.raises(TypeError):
        mi_curve(qam4, 1.0, 8)
    with pytest.raises(TypeError):
        mmse_curve(qam4, 1.0, 300)


def test_refuses_an_snr_array_of_more_than_one_dimension(qam4):
    for curve in (mi_curve, mmse_curve):
        with pytest.raises(ValueError, match="1-D"):
            curve(qam4, np.ones((2, 2)))


@pytest.mark.parametrize("bad", [-1.0, -5e-324, -math.inf, math.nan],
                         ids=["negative", "negative-subnormal", "-inf", "nan"])
@pytest.mark.parametrize("shape", ["scalar", "array"])
def test_table_refuses_a_negative_or_nan_snr(bad, shape, table_qam4):
    # as mi_curve does; +inf stays the saturated log2 M
    snrs = bad if shape == "scalar" else np.array([1.0, bad, table_qam4.snr_grid[-1] * 10.0])
    with pytest.raises(ValueError, match="finite and >= 0"):
        table_qam4.mi(snrs)
    assert table_qam4.mi(math.inf) == table_qam4.constellation.bits


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_refuses_a_nan_or_infinite_snr(bad, qam4):
    for c in (qam4, make_psk(8)):
        for curve in (mi_curve, mmse_curve):
            with pytest.raises(ValueError, match="finite"):
                curve(c, np.array([1.0, bad]))


def tensor_oracle(c, gamma, order):
    """MI and bit-MMSE as the full 2-D tensor Gauss-Hermite sum over all symbol pairs.

    Shifts the integration variable to the noise, n ~ CN(0, 1), and sums every
    transmitted symbol over the order^2 grid; one symbol at a time bounds memory.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nr = np.repeat(nodes, order)
    ni = np.tile(nodes, order)
    w = np.outer(weights, weights).ravel() / math.pi
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
    mi, mm = channel_info._kernel_pass(c, gammas, order, order)
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
    # the origin is fixed by all 8 grid symmetries, so its block folds 8 ways
    "origin+4": lambda: make_custom([0, 1, 1j, -1, -1j]),
    "origin+8-PSK": lambda: make_custom(np.concatenate([[0], make_psk(8).points])),
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
    # square QAM and BPSK split into two 1-D axis blocks, which for square QAM
    # are one block of 2 copies; PSK keeps one 2-D block per orbit under the 8
    # grid symmetries; no symmetry, no reduction.
    # Each 2-D block sums one node of the order-200 grid per orbit of its
    # stabilizer, and in band only the orbits of tensor weight >= 1e-40:
    # (stabilizer order, nodes, floored nodes) per block, None for a 1-D block
    for c, folds in (
        (make_qam(64), [(None, 200, 200)] * 2),
        (make_psk(2), [(None, 200, 200)] * 2),
        (make_psk(4), [(2, 20_000, 5_266)]),
        (make_psk(8), [(2, 20_000, 5_266), (2, 20_100, 5_307)]),
        (make_psk(16), [(2, 20_000, 5_266), (1, 40_000, 10_532), (2, 20_100, 5_307)]),
        (make_custom([0, 1, 1j, -1, -1j]), [(8, 5_050, 1_337), (2, 20_000, 5_266)]),
        (make_custom([0, 1, 3j, 2 + 1j]), [(1, 40_000, 10_532)] * 4),
    ):
        blocks = _blocks(c.points.tobytes(), c.d_min)
        assert len(blocks) == (1 if c.label.endswith("QAM") else len(folds)), c.label
        found = []
        for _, alphabet, _, stabilizer, copies in blocks:
            assert alphabet.shape[1] == (1 if stabilizer is None else 2), c.label
            sizes = []
            for floor in (0.0, _WEIGHT_FLOOR):
                nodes, weights = _block_rule(200, floor, stabilizer)
                assert nodes.shape == (alphabet.shape[1], weights.size)
                assert abs(weights.sum() - 1.0) <= 1e-15, (c.label, stabilizer, floor)
                sizes.append(weights.size)
            found += [(None if stabilizer is None else len(stabilizer), *sizes)] * copies
        assert found == folds, c.label


def _tensor_folded_rule(order, stabilizer, floor):
    """_folded_rule as it was first written: n^2-long index arrays over the float tensor grid."""
    (x,), w = channel_info._noise_rule(order)
    n = order
    weights = np.outer(w, w).ravel()
    i, j = np.divmod(np.arange(n * n), n)
    label = np.arange(n * n)
    for s in stabilizer:
        a, b = (i, n - 1 - j) if s >= 4 else (i, j)
        for _ in range(s % 4):
            a, b = n - 1 - b, a
        np.minimum(label, a * n + b, out=label)
    size = np.bincount(label, minlength=n * n)
    keep = (size > 0) & (weights >= floor)
    return np.stack((x[i[keep]], x[j[keep]])), weights[keep] * size[keep]


def _stabilizers(*alphabets):
    return sorted({block[3] for c in alphabets for block in _blocks(c.points.tobytes(), c.d_min)
                   if block[3] is not None})


_PSK8_AND_ORIGIN = make_custom(np.concatenate(([0.0], np.exp(2j * np.pi * np.arange(8) / 8))))


@pytest.mark.parametrize("order", [40, 120, 200])
@pytest.mark.parametrize("floor", [0.0, _WEIGHT_FLOOR])
def test_folded_rule_is_the_tensor_construction_bitwise(order, floor):
    # BPSK takes the 1-D axis blocks, so it adds no stabilizer of its own; the
    # PSK points are fixed by one reflection or none, the origin by all 8
    stabilizers = _stabilizers(make_psk(2), make_psk(8), make_psk(16), _PSK8_AND_ORIGIN)
    assert stabilizers == [(0,), tuple(range(8)), (0, 4), (0, 5)]
    for stabilizer in stabilizers:
        nodes, weights = channel_info._folded_rule.__wrapped__(order, stabilizer, floor)
        ref_nodes, ref_weights = _tensor_folded_rule(order, stabilizer, floor)
        assert np.array_equal(nodes, ref_nodes), stabilizer
        assert np.array_equal(weights, ref_weights), stabilizer


@pytest.mark.parametrize("floor, bound_mb", [(0.0, 1.7), (_WEIGHT_FLOOR, 1.1)])
def test_folded_rule_memory_at_order_200(floor, bound_mb):
    # 8-PSK's two rules at order 200 peak at 1.46 MB (floor 0) and 0.92 MB
    # (floor 1e-40, the in-band rules of a table) measured, results included;
    # the bounds add about 0.2 MB. The tensor construction peaks at 2.7 and
    # 2.1 MB.
    for stabilizer in _stabilizers(make_psk(8)):
        tracemalloc.start()
        try:
            channel_info._folded_rule.__wrapped__(200, stabilizer, floor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, stabilizer


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
        # in band the rule is the band order's
        mi_curve(c, gamma, band_order=200)
        mmse_curve(c, gamma, band_order=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("m", [64, 256])
def test_large_qam_i_mmse_and_saturation(m, rng):
    c = make_qam(m)
    assert_i_mmse_consistent(c, 10.0 ** rng.uniform(-3.0, 4.0, 30))
    assert mi_curve(c, 1e6)[0] == pytest.approx(c.bits, abs=1e-9)
    assert mmse_curve(c, 1e6)[0] < 1e-20


def test_build_table_qam256_is_fast_and_saturates():
    start = time.perf_counter()
    t = build_table(make_qam(256), -10.0, 40.0, 10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert np.all(np.diff(t.mi_values) >= 0.0)
    assert t.mi_values[-1] == pytest.approx(8.0, abs=1e-6)


# The two terms and the reduction the kernel ran before the fused pass, kept
# here as the reference the fused pass must reproduce bit for bit.
def _exponents_ref(sent, alphabet, gamma, nodes):
    d = sent[:, None, :] - alphabet[None, :, :]
    e = (-2.0 * math.sqrt(gamma) * d) @ nodes
    e -= (gamma * (d * d).sum(axis=2))[:, :, None]
    return e


def _node_sums_ref(values, nodes, weights):
    # BLAS dot products on a 1-D rule; on a 2-D rule, whose long dot products
    # BLAS may split across threads, numpy's pairwise sums
    return values @ weights if nodes.shape[0] == 1 else (values * weights).sum(axis=-1)


def _log_partition_sums_ref(sent, alphabet, gamma, nodes, weights):
    e = _exponents_ref(sent, alphabet, gamma, nodes)
    shift = e.max(axis=1)
    e -= shift[:, None, :]
    np.exp(e, out=e)
    return _node_sums_ref(np.log(e.sum(axis=1)) + shift, nodes, weights)


def _error_sums_ref(sent, alphabet, gamma, nodes, weights):
    post = _exponents_ref(sent, alphabet, gamma, nodes)
    post -= post.max(axis=1, keepdims=True)
    np.exp(post, out=post)
    post /= post.sum(axis=1, keepdims=True)
    err = sent[:, :, None] - alphabet.T @ post
    return _node_sums_ref((err * err).sum(axis=1), nodes, weights)


def _effective_rule_ref(requested, gamma, d_min, band_order):
    """(order, floor) of one SNR's rules, decided one SNR at a time as the kernel once did."""
    lo, hi = _BAND
    if lo < gamma * d_min * d_min < hi:
        return max(requested, band_order), _WEIGHT_FLOOR
    return requested, 0.0


def _blocks_ref(c):
    """The blocks as the kernel once split them: a Cartesian alphabet gives one per axis."""
    blocks = _blocks(c.points.tobytes(), c.d_min)
    if blocks[0][3] is not None:
        return [block[:4] for block in blocks]
    tol = channel_info._STRUCTURE_TOL * c.d_min
    axes = [channel_info._levels(v, tol)[0] for v in (c.points.real, c.points.imag)]
    return [(v[:, None], v[:, None], np.full(v.size, 1.0 / v.size), None) for v in axes]


def _quadrature_sum_ref(c, gammas, hermite_order, band_order, term):
    # each SNR takes the rule the kernel takes: in band the band order, floored
    out = np.zeros(gammas.shape)
    for i, g in enumerate(gammas.tolist()):
        order, floor = _effective_rule_ref(hermite_order, g, c.d_min, band_order)
        for sent, alphabet, share, stabilizer in _blocks_ref(c):
            nodes, weights = _block_rule(order, floor, stabilizer)
            out[i] += share @ term(sent, alphabet, g, nodes, weights)
    return out


@pytest.mark.parametrize("band_order", [120, 200])
@pytest.mark.parametrize("make", [
    lambda: make_psk(2), lambda: make_qam(4), lambda: make_qam(16), lambda: make_qam(64),
    lambda: make_qam(256), lambda: make_psk(8), lambda: make_psk(16),
    lambda: make_custom([0, 1, 3j, 2 + 1j, -1 - 0.5j]),
], ids=["2-PSK", "4-QAM", "16-QAM", "64-QAM", "256-QAM", "8-PSK", "16-PSK", "custom"])
def test_fused_pass_is_bitwise_the_two_term_sums(make, band_order):
    c = make()
    # out of band below and above (g d_min^2 <= 1.5 or >= 130), and in band
    gammas = np.array([0.0, 1e-3, 1.0 / c.d_min**2, 2.0 / c.d_min**2, 20.0 / c.d_min**2,
                       120.0 / c.d_min**2, 200.0 / c.d_min**2, 1e4])
    mi, mm = channel_info._kernel_pass(c, gammas, 40, band_order)
    penalty = _quadrature_sum_ref(c, gammas, 40, band_order, _log_partition_sums_ref)
    error = _quadrature_sum_ref(c, gammas, 40, band_order, _error_sums_ref)
    assert np.array_equal(mi, np.clip(c.bits - penalty / LN2, 0.0, c.bits))
    assert np.array_equal(mm, error / LN2)


def _snr_at(c, x):
    """An SNR g with g * d_min * d_min == x exactly, within a few ulps of x / d_min^2."""
    g = x / c.d_min**2
    exact = [h for h in g + np.arange(-4, 5) * np.spacing(g) if h * c.d_min * c.d_min == x]
    assert exact, (c.label, x)
    return exact[0]


@pytest.mark.parametrize("make", [
    lambda: make_qam(4), lambda: make_qam(16), lambda: make_psk(8),
    lambda: make_custom([0, 1, 3j, 2 + 1j, -1 - 0.5j]),
], ids=["4-QAM", "16-QAM", "8-PSK", "custom"])
def test_batched_pass_is_bitwise_the_per_snr_sums_across_orders_and_chunks(monkeypatch, make):
    c = make()
    rng = np.random.default_rng(17)
    d2 = c.d_min**2
    # the band is open, so both edges take the requested order
    below = np.concatenate([[0.0, _snr_at(c, 1.5)], np.geomspace(1e-4, 1.4, 24) / d2])
    band = np.geomspace(1.6, 120.0, 16) / d2
    above = np.concatenate([[_snr_at(c, 130.0)], np.geomspace(131.0, 1e6, 24) / d2])
    # runs of one order, each unsorted and with repeats, most longer than a chunk
    gammas = np.concatenate([rng.permutation(np.concatenate([r, r[:4]]))
                             for r in (below, band, above, band[:3], below[:3])])
    chunks = []
    term = channel_info._fused_terms

    def recording(sent, alphabet, g, nodes, *rest):
        chunks.append(nodes.shape[1])
        return term(sent, alphabet, g, nodes, *rest)

    production = channel_info._kernel_pass(c, gammas, 40, 200)
    # a 4-QAM chunk of the production size spans a whole run; at 4096 doubles
    # the chunk boundaries fall inside the runs of every alphabet here
    monkeypatch.setattr(channel_info, "_CHUNK_DOUBLES", 4096)
    monkeypatch.setattr(channel_info, "_fused_terms", recording)
    mi, mm = channel_info._kernel_pass(c, gammas, 40, 200)
    assert np.array_equal(production[0], mi) and np.array_equal(production[1], mm)
    # a chunk boundary falls inside a run of each order, on every block
    blocks = _blocks(c.points.tobytes(), c.d_min)
    runs = Counter(key for key, _ in itertools.groupby(
        _effective_rule_ref(40, g, c.d_min, 200) for g in gammas.tolist()))
    assert set(runs) == {(40, 0.0), (200, _WEIGHT_FLOOR)}
    for key, count in runs.items():
        sizes = {_block_rule(*key, block[3])[1].size for block in blocks}
        assert sum(chunks.count(size) for size in sizes) > count * len(blocks)
    penalty = _quadrature_sum_ref(c, gammas, 40, 200, _log_partition_sums_ref)
    error = _quadrature_sum_ref(c, gammas, 40, 200, _error_sums_ref)
    assert np.array_equal(mi, np.clip(c.bits - penalty / LN2, 0.0, c.bits))
    assert np.array_equal(mm, error / LN2)


@pytest.mark.parametrize("name", list(NAMED))
def test_weight_floor_moves_in_band_values_by_rounding_only(monkeypatch, name):
    # the floored pass against the same pass on the full 2-D rules; a 1-D
    # alphabet is never floored, and outside the band no rule is, so there
    # the two passes must agree bit for bit
    c = NAMED[name]()
    d2 = c.d_min**2
    gammas = np.concatenate([np.geomspace(1e-4, 1e6, 61), np.array([1.4, 1.6, 20.0, 129.0, 131.0, 300.0]) / d2])
    x = gammas * c.d_min * c.d_min
    in_band = (1.5 < x) & (x < 130.0)
    mi, mm = channel_info._kernel_pass(c, gammas, 40, 200)
    monkeypatch.setattr(channel_info, "_WEIGHT_FLOOR", 0.0)
    full_mi, full_mm = channel_info._kernel_pass(c, gammas, 40, 200)
    one_d = all(block[3] is None for block in _blocks(c.points.tobytes(), c.d_min))
    exact = ~in_band | one_d
    assert np.array_equal(mi[exact], full_mi[exact]), name
    assert np.array_equal(mm[exact], full_mm[exact]), name
    # the tail beyond the band is what a floor there would lose
    assert np.any(~in_band & (full_mm > 0.0) & (full_mm < 1e-20))
    assert np.all(np.abs(mi - full_mi)[in_band] <= 1e-15), name
    assert np.all(np.abs(mm - full_mm)[in_band] <= 1e-14 * full_mm[in_band]), name


@pytest.fixture()
def kernel_terms(monkeypatch):
    """Empty the kernel memo and count the SNR-block evaluations of the fused term."""
    monkeypatch.setattr(channel_info, "_LAST_PASS", {})
    calls = []
    term = channel_info._fused_terms

    def counting(*args):
        calls.extend(args[2].tolist())
        return term(*args)

    monkeypatch.setattr(channel_info, "_fused_terms", counting)
    return calls


def test_both_curves_on_one_grid_make_one_kernel_pass(kernel_terms):
    c = make_psk(8)
    gammas = np.logspace(-2, 2, 9)
    one_pass = gammas.size * len(_blocks(c.points.tobytes(), c.d_min))
    mi = mi_curve(c, gammas)
    assert len(kernel_terms) == one_pass
    mm = mmse_curve(c, gammas)
    assert len(kernel_terms) == one_pass
    # another grid, band order or alphabet is a new pass
    mmse_curve(c, gammas, band_order=200)
    mmse_curve(make_qam(4), gammas)
    assert len(kernel_terms) > 2 * one_pass
    assert np.array_equal(mi, mi_curve(c, gammas[::-1])[::-1])
    assert np.array_equal(mm, mmse_curve(c, gammas[::-1])[::-1])


def test_writing_into_a_returned_curve_leaves_the_next_call_unchanged(kernel_terms, qam4):
    gammas = np.logspace(-1, 1, 5)
    mi, mm = mi_curve(qam4, gammas), mmse_curve(qam4, gammas)
    expect_mi, expect_mm = mi.copy(), mm.copy()
    mi[:] = -1.0
    mm *= 3.0
    assert np.array_equal(mi_curve(qam4, gammas), expect_mi)
    assert np.array_equal(mmse_curve(qam4, gammas), expect_mm)
    # one term call per SNR and distinct block: 4-QAM's two axes are one block
    assert len(kernel_terms) == 5


def test_kernel_memo_keeps_only_the_last_pass(kernel_terms, qam4):
    grids = [np.array([g]) for g in (0.1, 0.2, 0.3, 0.4)]
    for g in grids:
        mi_curve(qam4, g)
        assert len(channel_info._LAST_PASS) == 1
    # one term call per SNR and distinct block: 4-QAM's two axes are one block
    assert len(kernel_terms) == 4
    mmse_curve(qam4, grids[-1])
    assert len(kernel_terms) == 4
    # the first grid was dropped, so it runs the kernel again
    mmse_curve(qam4, grids[0])
    assert len(kernel_terms) == 5


def test_node_set_pass_is_batched_and_bounded_in_memory(monkeypatch, qam4):
    # capture the kernel pass of the 4-QAM Mellin node set (1378 SNRs)
    monkeypatch.setattr(channel_info, "_LAST_PASS", {})
    monkeypatch.setattr(amr, "_MELLIN_NODES", {})
    passes = []
    kernel_pass = channel_info._kernel_pass

    def capturing(*args):
        passes.append(args)
        return kernel_pass(*args)

    monkeypatch.setattr(channel_info, "_kernel_pass", capturing)
    amr._mellin_nodes(qam4)
    (args,) = passes
    calls = []
    term = channel_info._fused_terms

    def counting(*a):
        calls.append(a[2].size)
        return term(*a)

    monkeypatch.setattr(channel_info, "_fused_terms", counting)
    tracemalloc.start()
    try:
        kernel_pass(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one call per SNR and distinct block (4-QAM's two axes are one block)
    # would be 1378; chunks make 40
    assert sum(calls) == args[1].size
    assert len(calls) <= 200
    # the work buffer, the chunk's error terms and the (1378,) results
    assert peak < 6 * 8 * channel_info._CHUNK_DOUBLES
