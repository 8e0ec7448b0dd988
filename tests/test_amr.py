import math

import numpy as np
import pytest
from scipy.stats import gamma as sgamma

from amrbeam import (
    DirectInfo,
    PhaseVector,
    SaturationGap,
    amr_coop,
    amr_noncoop,
    asymptote_coop,
    asymptote_noncoop,
    effective_snrs,
    fit_gap_slope,
    make_ensemble,
    mellin_mmse,
    min_snr_law,
    mmse_curve,
    mrc_law,
    report_coop,
    report_noncoop,
)

# Frozen Monte Carlo oracle for E{mi(g)} with g ~ Exp(mean 1), 4-QAM:
# table-interpolated mi over 1e6 exponential draws, seed 424242.
AMR1_MC_MEAN = 0.7977939306399031
AMR1_MC_3SE = 3 * 0.0005081571465968221


def _random_configs(rng, count, k=4, n=5, snr_lo=-30.0, snr_hi=10.0):
    out = []
    for i in range(count):
        e = make_ensemble(k, n, float(rng.uniform(snr_lo, snr_hi)), seed=1000 + i)
        p = PhaseVector.random(n, rng)
        out.append(effective_snrs(e, p))
    return out


def test_amr_noncoop_limits(table_qam4, rule50):
    assert amr_noncoop(table_qam4, 1e-12, rule50) < 1e-6
    assert amr_noncoop(table_qam4, 1e6, rule50) == pytest.approx(2.0, abs=1e-3)


def test_amr_noncoop_against_mc_oracle(table_qam4, rule50):
    assert abs(amr_noncoop(table_qam4, 1.0, rule50) - AMR1_MC_MEAN) < AMR1_MC_3SE


def test_amr_noncoop_validation(table_qam4, rule50):
    with pytest.raises(ValueError):
        amr_noncoop(table_qam4, 0.0, rule50)
    from amrbeam import gauss_hermite

    with pytest.raises(ValueError):
        amr_noncoop(table_qam4, 1.0, gauss_hermite(40))


def test_amr_coop_k1_degeneracy(table_qam4, rule50):
    law = mrc_law([1.3], 1e-10)
    assert abs(amr_coop(table_qam4, law, rule50) - amr_noncoop(table_qam4, 1.3, rule50)) < 1e-9


def test_amr_coop_equal_gammas_erlang_oracle(table_qam4, rule50):
    # independent oracle: piecewise Gauss-Legendre between the table knots
    k, gbar = 4, 0.7
    law = mrc_law([gbar] * k, 1e-10)
    xg, wg = np.polynomial.legendre.leggauss(12)
    knots = table_qam4.snr_grid[table_qam4.snr_grid < 150.0]
    edges = np.concatenate(([0.0], knots, [150.0]))
    oracle = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (b - a) * xg + 0.5 * (a + b)
        oracle += 0.5 * (b - a) * float(np.dot(wg, table_qam4.mi(xs) * sgamma.pdf(xs, a=k, scale=gbar)))
    assert abs(amr_coop(table_qam4, law, rule50) - oracle) < 1e-8


def test_amr_coop_random_ensemble_against_mc(table_qam4, rule50, rng):
    e = make_ensemble(4, 5, 0.0, seed=11)
    p = PhaseVector.random(5, rng)
    gs = effective_snrs(e, p)
    analytic = amr_coop(table_qam4, mrc_law(gs, 1e-10), rule50)
    draws = rng.exponential(gs, size=(10**6, 4)).sum(axis=1)
    vals = table_qam4.mi(draws)
    se = vals.std(ddof=1) / 1000
    assert abs(analytic - vals.mean()) < 3 * se


def test_cooperation_dominance(table_qam4, rule50, rng):
    for gs in _random_configs(rng, 50):
        coop = amr_coop(table_qam4, mrc_law(gs, 1e-10), rule50)
        non = amr_noncoop(table_qam4, min_snr_law(gs).gamma_non, rule50)
        assert coop >= non - 1e-9


def test_amr_monotone_in_average_snr(table_qam4, rule50, rng):
    e0 = make_ensemble(4, 5, 0.0, seed=77)
    p = PhaseVector.random(5, rng)
    coop_prev = non_prev = -1.0
    for snr_db in np.arange(-30.0, 31.0, 3.0):
        gs = effective_snrs(e0.with_snr_db(snr_db), p)
        non = amr_noncoop(table_qam4, min_snr_law(gs).gamma_non, rule50)
        coop = amr_coop(table_qam4, mrc_law(gs, 1e-10), rule50)
        assert non >= non_prev - 1e-12 and coop >= coop_prev - 1e-12
        non_prev, coop_prev = non, coop


def test_quadrature_order_self_consistency(table_qam4, rule50, rule100, rng):
    for gs in _random_configs(rng, 8):
        gn = min_snr_law(gs).gamma_non
        assert abs(amr_noncoop(table_qam4, gn, rule50) - amr_noncoop(table_qam4, gn, rule100)) < 1e-8
        law = mrc_law(gs, 1e-10)
        assert abs(amr_coop(table_qam4, law, rule50) - amr_coop(table_qam4, law, rule100)) < 1e-8


def test_saturation_ceiling(table_qam4, rule50, rng):
    for gs in _random_configs(rng, 10, snr_lo=30.0, snr_hi=60.0):
        assert amr_noncoop(table_qam4, min_snr_law(gs).gamma_non, rule50) <= 2.0
        assert amr_coop(table_qam4, mrc_law(gs, 1e-10), rule50) <= 2.0


def test_mellin_against_trapezoid_oracle(qam4):
    val = mellin_mmse(qam4, 2)
    xs = np.logspace(-6, math.log10(200), 10**4)
    oracle = np.trapezoid(xs * mmse_curve(qam4, xs, 40), xs)
    assert val > 0.0 and math.isfinite(val)
    assert abs(val - oracle) < 1e-6 * oracle


def test_mellin_ordering_and_finiteness(bpsk, qam4):
    m2_b = mellin_mmse(bpsk, 2)
    m2_q = mellin_mmse(qam4, 2)
    assert m2_b < m2_q  # the larger minimum distance forces faster decay
    m3_q = mellin_mmse(qam4, 3)
    assert math.isfinite(m3_q) and m3_q > 0.0
    with pytest.raises(ValueError):
        mellin_mmse(qam4, 0.0)


def test_asymptote_noncoop_identity_ensembles(qam4, rng):
    m2 = mellin_mmse(qam4, 2)
    k = 4
    e = make_ensemble(k, 5, 0.0, seed=1)
    e_id = e.with_snr_db(0.0)
    e_id.correlations = np.stack([np.eye(5, dtype=complex)] * k)
    p = PhaseVector.random(5, rng)
    d, asym = asymptote_noncoop(e_id, p, m2, qam4.bits)
    assert d == pytest.approx(1.0 / (m2 * k), rel=1e-12)
    assert asym(10.0) == pytest.approx(qam4.bits - 1.0 / (d * 10.0), abs=1e-15)
    # doubling every correlation doubles the gain
    e2 = e.with_snr_db(0.0)
    d1, _ = asymptote_noncoop(e2, p, m2, qam4.bits)
    e2. correlations = 2.0 * e2.correlations
    d2, _ = asymptote_noncoop(e2, p, m2, qam4.bits)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_asymptote_noncoop_gap_prediction(qam4, rng):
    # evaluated saturation gap at 40 dB within 10% of 1/(d gbar)
    m2 = mellin_mmse(qam4, 2)
    gap_eval = SaturationGap(qam4, 40)
    e = make_ensemble(4, 5, 40.0, seed=5)
    p = PhaseVector.random(5, rng)
    gap = gap_eval.noncoop(min_snr_law(effective_snrs(e, p)).gamma_non)
    d, asym = asymptote_noncoop(e, p, m2, qam4.bits)
    predicted = qam4.bits - float(asym(e.gamma_bar))
    assert abs(gap / predicted - 1.0) < 0.10


def test_saturation_gap_complements_rate_at_low_snr(qam4, rule50, rng):
    # rate + gap = log2 M; at low SNR the Laguerre rate resolves the SNR
    # density at any scale, so it checks the gap where that density is far
    # narrower than 1
    gap_eval = SaturationGap(qam4, 40)
    info = DirectInfo(qam4, 40)
    e = make_ensemble(4, 5, 0.0, seed=9)
    p = PhaseVector.random(5, rng)
    for snr_db in np.arange(-40.0, -9.0, 5.0):
        gs = effective_snrs(e.with_snr_db(snr_db), p)
        gn = min_snr_law(gs).gamma_non
        assert abs(gap_eval.noncoop(gn) + amr_noncoop(info, gn, rule50) - qam4.bits) < 1e-9
        law = mrc_law(gs, 1e-12)
        assert abs(gap_eval.coop(law) + amr_coop(info, law, rule50) - qam4.bits) < 1e-9


def test_asymptote_coop_k1_matches_noncoop(qam4, rng):
    m2 = mellin_mmse(qam4, 2)
    e = make_ensemble(1, 5, 0.0, seed=2)
    p = PhaseVector.random(5, rng)
    d_non, _ = asymptote_noncoop(e, p, m2, qam4.bits)
    d_coop, _ = asymptote_coop(e, p, m2, qam4.bits)
    assert d_coop == pytest.approx(d_non, rel=1e-12)


def test_asymptote_coop_equal_unit_forms(qam4):
    m3 = mellin_mmse(qam4, 3)
    e = make_ensemble(2, 4, 0.0, seed=3)
    e.correlations = np.stack([np.eye(4, dtype=complex)] * 2)
    p = PhaseVector(np.zeros(4))
    d, _ = asymptote_coop(e, p, m3, qam4.bits)
    assert d == pytest.approx(math.sqrt(2.0 / m3), rel=1e-12)


def test_asymptote_coop_slope(qam4, rng):
    # log-log decay of the cooperative gap approaches -K
    k = 4
    gap_eval = SaturationGap(qam4, 40)
    e = make_ensemble(k, 5, 0.0, seed=9)
    p = PhaseVector.random(5, rng)
    gbars, gaps = [], []
    for snr_db in np.arange(6.0, 32.0, 2.0):
        ens = e.with_snr_db(snr_db)
        gaps.append(gap_eval.coop(mrc_law(effective_snrs(ens, p), 1e-12)))
        gbars.append(ens.gamma_bar)
    slope, used = fit_gap_slope(gbars, gaps, (1e-9, 1e-4))
    assert used >= 3
    assert slope == pytest.approx(-k, abs=0.2)


def test_fit_gap_slope_recovers_power_law():
    g = np.logspace(0, 4, 40)
    gaps = 0.37 * g**-2.0
    slope, used = fit_gap_slope(g, gaps, (1e-7, 1e-1))
    assert slope == pytest.approx(-2.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit_gap_slope([1.0], [1.0], (1e-4, 1e-1))


def test_reports(table_qam4, rule50, rng):
    e = make_ensemble(4, 5, 0.0, seed=4)
    p = PhaseVector.random(5, rng)
    m2 = mellin_mmse(table_qam4.constellation, 2)
    m5 = mellin_mmse(table_qam4.constellation, 5)
    rn = report_noncoop(table_qam4, e, p, rule50, m2)
    rc = report_coop(table_qam4, e, p, rule50, m5)
    assert rn.scenario == "non_cooperative" and rc.scenario == "cooperative"
    assert 0.0 <= rn.amr_bits <= 2.0 and 0.0 <= rc.amr_bits <= 2.0
    assert rn.diversity_order == 1.0 and rc.diversity_order == 4.0
    assert rn.array_gain > 0.0 and rc.array_gain > 0.0
    assert rc.series_truncation is not None and rc.series_truncation >= 0
    assert rc.metadata["array_gain_uses_normalized_forms"] is True
    row = rc.to_row()
    assert row["scenario"] == "cooperative" and "series_tail_bound" in row
