import tracemalloc

import numpy as np
import pytest
from scipy.stats import expon, kstest

from amrbeam import (
    ChannelEnsemble,
    McEstimate,
    PhaseVector,
    amr_coop,
    amr_noncoop,
    make_ensemble,
    mc_amr,
    min_snr_law,
    mrc_law,
    quadratic_forms,
)
from amrbeam import mc_sim

NONCOOP = ("non_cooperative",)
GRID_DB = np.arange(-30.0, 31.0, 3.0)  # 21 SNRs


def _gamma_bars(snr_db):
    return [10.0 ** (s / 10.0) for s in snr_db]


def _gains(e, p, n, seed, gamma_bar=1.0):
    """n x K per-user SNRs of the draws mc_amr reduces, at average SNR gamma_bar."""
    return gamma_bar * np.concatenate(list(mc_sim._gain_chunks(e, p, n, seed)))


def test_gain_marginals(rng):
    e = make_ensemble(4, 5, seed=31)
    p = PhaseVector.random(5, rng)
    gs = 0.01 * quadratic_forms(e, p)
    gains = _gains(e, p, 10**6, seed=55, gamma_bar=0.01)
    assert gains.shape == (10**6, 4)
    assert np.max(np.abs(gains.mean(axis=0) / gs - 1.0)) < 0.01
    for k in range(4):
        assert kstest(gains[:, k], expon(scale=gs[k]).cdf).statistic < 0.002


def test_degenerate_rank_one_correlation(rng):
    # zero-padded rank-1: only the first antenna carries signal
    r = np.zeros((4, 4), dtype=complex)
    r[0, 0] = 1.0
    e = ChannelEnsemble(r[None, :, :])
    p = PhaseVector.random(4, rng)
    gains = _gains(e, p, 10**5, seed=3)
    mean = abs(p.f[0]) ** 2  # = gamma_bar / N at gamma_bar 1
    assert kstest(gains[:, 0], expon(scale=mean).cdf).statistic < 0.006


def test_mc_amr_validation(table_qam4, rng):
    e = make_ensemble(2, 3, seed=1)
    p = PhaseVector.random(3, rng)
    with pytest.raises(ValueError):
        mc_amr(e, p, table_qam4, [1.0], 100, seed=1)
    with pytest.raises(ValueError):
        mc_amr(e, p, table_qam4, [1.0], 10**4, seed=1, scenarios=("weird",))
    with pytest.raises(ValueError):
        McEstimate(mean=0.0, std_error=0.0, n_samples=10, seed=0)


def test_mc_amr_vanishes_at_tiny_snr(table_qam4, rng):
    e = make_ensemble(3, 4, seed=5)
    p = PhaseVector.random(4, rng)
    est = mc_amr(e, p, table_qam4, _gamma_bars([-120.0]), 10**4, seed=9, scenarios=NONCOOP)
    assert est["non_cooperative"][0].mean < 1e-6


def test_mc_amr_deterministic_and_dominant(table_qam4, rng):
    e = make_ensemble(4, 5, seed=6)
    p = PhaseVector.random(5, rng)
    a1 = mc_amr(e, p, table_qam4, [0.1], 10**5, seed=13)
    a2 = mc_amr(e, p, table_qam4, [0.1], 10**5, seed=13)
    assert a1 == a2
    # shared draws; min <= sum pathwise, so the means order
    assert a1["non_cooperative"][0].mean <= a1["cooperative"][0].mean
    # pathwise check on the raw gains with the identical seed
    gains = _gains(e, p, 10**4, seed=13, gamma_bar=0.1)
    assert np.all(
        table_qam4.mi(gains.min(axis=1)) <= table_qam4.mi(gains.sum(axis=1)) + 1e-15
    )


def test_mc_agrees_with_analytic(table_qam4, rng):
    e = make_ensemble(4, 5, seed=31)
    p = PhaseVector.random(5, rng)
    gs = 0.01 * quadratic_forms(e, p)
    est = mc_amr(e, p, table_qam4, [0.01], 10**6, seed=77)
    analytic = {
        "non_cooperative": amr_noncoop(table_qam4, min_snr_law(gs)),
        "cooperative": amr_coop(table_qam4, mrc_law(gs, 1e-10)),
    }
    for scenario, rate in analytic.items():
        mc = est[scenario][0]
        assert abs(rate - mc.mean) <= 3.0 * mc.std_error


def test_draws_do_not_depend_on_chunk_size(rng, monkeypatch):
    e = make_ensemble(3, 16, seed=8)
    p = PhaseVector.random(16, rng)
    whole = _gains(e, p, 3000, seed=21)
    # 7 samples per draw chunk, and a last chunk of 4
    monkeypatch.setattr(mc_sim, "_DRAW_NORMALS", 2 * 3 * 16 * 7 + 5)
    assert np.array_equal(_gains(e, p, 3000, seed=21), whole)


def test_estimates_do_not_depend_on_block_or_draw_buffer_size(table_qam4, rng, monkeypatch):
    # two reduction chunks, the second a partial one
    n = mc_sim._CHUNK + 20_000
    e = make_ensemble(3, 4, seed=8)
    p = PhaseVector.random(4, rng)
    gamma_bars = _gamma_bars([-10.0, 0.0, 10.0])
    whole = mc_amr(e, p, table_qam4, gamma_bars, n, seed=29)
    # interpolation blocks of 1001 samples; 7 samples per draw chunk
    monkeypatch.setattr(mc_sim, "_BLOCK", 1001)
    monkeypatch.setattr(mc_sim, "_DRAW_NORMALS", 2 * 3 * 4 * 7 + 5)
    assert mc_amr(e, p, table_qam4, gamma_bars, n, seed=29) == whole


def test_estimate_same_alone_or_in_grid(table_qam4, rng):
    e = make_ensemble(4, 5, seed=6)
    p = PhaseVector.random(5, rng)
    grid = mc_amr(e, p, table_qam4, _gamma_bars(GRID_DB), 10**4, seed=17)
    for i in (0, 10, 20):
        for scenario in ("non_cooperative", "cooperative"):
            alone = mc_amr(e, p, table_qam4, _gamma_bars(GRID_DB[i:i + 1]), 10**4, seed=17,
                           scenarios=(scenario,))
            assert alone[scenario][0] == grid[scenario][i]


def test_grid_means_monotone_and_coop_dominates(table_qam4, rng):
    # shared draws make both orderings hold sample by sample, hence exactly
    e = make_ensemble(4, 5, seed=11)
    p = PhaseVector.random(5, rng)
    grid = mc_amr(e, p, table_qam4, _gamma_bars(GRID_DB), 10**4, seed=23)
    non = [est.mean for est in grid["non_cooperative"]]
    coop = [est.mean for est in grid["cooperative"]]
    assert all(a <= b for a, b in zip(non, non[1:]))
    assert all(a <= b for a, b in zip(coop, coop[1:]))
    assert all(a <= b for a, b in zip(non, coop))
    assert non[0] < non[-1] and coop[0] < coop[-1]


@pytest.mark.parametrize("k", [1, 2, 7, 8, 32])
def test_user_reductions_are_numpys_bitwise(k, rng):
    # The minimum is exact in any order, so its column chain is np.min's
    # result for every K. The sum stays np.sum: numpy adds a row of 8 or more
    # users in interleaved partial sums, and a chain of column additions
    # matched it bitwise only up to K = 7.
    e = make_ensemble(k, 4, seed=k)
    p = PhaseVector.random(4, rng)
    chunks = 0
    for gains in mc_sim._gain_chunks(e, p, 20_000, seed=3):
        out = np.empty(len(gains))
        mc_sim._REDUCE["non_cooperative"](gains, out=out)
        assert np.array_equal(out, np.min(gains, axis=1))
        mc_sim._REDUCE["cooperative"](gains, out=out)
        assert np.array_equal(out, np.sum(gains, axis=1))
        chunks += 1
    assert chunks > 1


def test_mc_amr_memory_independent_of_grid(table_qam4, rng):
    # 2 doubles per sample (1.6 MB), the value buffer of 1e5 doubles (0.8 MB)
    # and the interpolation temporaries of 64 KB each: 2.68 MB measured. The
    # bound adds 0.32 MB, five more such temporaries. The draw buffer (512 KB)
    # is gone by then. A second value buffer (the former 2 x 1e5 work array)
    # would read 3.4 MB, keeping a 1e5-sample array per SNR of one scenario
    # would add 21 x 0.8 MB, and an 8 MB draw chunk would break the bound on
    # its own.
    e = make_ensemble(32, 128, model="local_scattering", seed=3)
    p = PhaseVector.random(128, rng)
    e.sqrt_correlations()  # cached on the ensemble; not part of the MC cost
    tracemalloc.start()
    try:
        grid = mc_amr(e, p, table_qam4, _gamma_bars(GRID_DB), 10**5, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(ests) == len(GRID_DB) for ests in grid.values())
    assert peak < 3.0 * 2**20
