import json
import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import gamma as sgamma

from amrbeam import amr as amr_module
from amrbeam import channel_info
from amrbeam import (
    DirectInfo,
    PhaseVector,
    SaturationGap,
    amr_coop,
    amr_noncoop,
    array_gain_coop,
    array_gain_noncoop,
    effective_snrs,
    fit_gap_slope,
    gauss_laguerre,
    make_ensemble,
    make_psk,
    make_qam,
    mellin_mmse,
    min_snr_law,
    mmse_curve,
    mrc_law,
)
from amrbeam.channel_model import log_gamma_range
from amrbeam.cli import run

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


def test_amr_noncoop_limits(table_qam4):
    assert amr_noncoop(table_qam4, 1e-12) < 1e-6
    assert amr_noncoop(table_qam4, 1e6) == pytest.approx(2.0, abs=1e-3)


def test_amr_noncoop_against_mc_oracle(table_qam4):
    assert abs(amr_noncoop(table_qam4, 1.0) - AMR1_MC_MEAN) < AMR1_MC_3SE


def test_amr_noncoop_validation(table_qam4):
    with pytest.raises(ValueError):
        amr_noncoop(table_qam4, 0.0)


def test_amr_coop_k1_degeneracy(table_qam4):
    law = mrc_law([1.3], 1e-10)
    assert abs(amr_coop(table_qam4, law) - amr_noncoop(table_qam4, 1.3)) < 1e-9


def test_amr_coop_equal_gammas_erlang_oracle(table_qam4):
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
    assert abs(amr_coop(table_qam4, law) - oracle) < 1e-8


def _amr_coop_direct(info, law):
    """amr_coop with its Erlang-Laguerre rows built afresh for this law."""
    rule = gauss_laguerre(50)
    mi = info.mi(law.gamma_min * rule.nodes)
    shape = law.K + np.arange(law.L + 1)
    log_terms = (
        np.log(rule.weights)[None, :]
        + (shape[:, None] - 1.0) * np.log(rule.nodes)[None, :]
        - log_gamma_range(law.K, law.K + law.L + 1)[:, None]
    )
    val = float(law.coeffs @ (np.exp(log_terms) @ mi))
    return min(max(val, 0.0), info.constellation.bits)


def test_amr_coop_kept_rows_match_rows_built_per_law(monkeypatch, table_qam4):
    # the series grows, then shrinks, alternating between two K: each call
    # reads a slice of rows that earlier calls built or grew
    monkeypatch.setattr(amr_module, "_ERLANG_ROWS", {})
    longest = {}
    for spread in (1.5, 4.0, 5.0, 20.0, 60.0, 8.0, 2.0, 1.1):
        for k in (3, 6):
            law = mrc_law(0.3 * spread ** np.linspace(0.0, 1.0, k), 1e-12)
            assert amr_coop(table_qam4, law) == _amr_coop_direct(table_qam4, law)
            longest[k] = max(longest.get(k, 0), law.L + 1)
            assert amr_module._ERLANG_ROWS[k].shape[0] == longest[k]
    assert longest[3] > 100 and longest[6] > 100


def test_amr_coop_random_ensemble_against_mc(table_qam4, rng):
    e = make_ensemble(4, 5, 0.0, seed=11)
    p = PhaseVector.random(5, rng)
    gs = effective_snrs(e, p)
    analytic = amr_coop(table_qam4, mrc_law(gs, 1e-10))
    draws = rng.exponential(gs, size=(10**6, 4)).sum(axis=1)
    vals = table_qam4.mi(draws)
    se = vals.std(ddof=1) / 1000
    assert abs(analytic - vals.mean()) < 3 * se


def test_cooperation_dominance(table_qam4, rng):
    for gs in _random_configs(rng, 50):
        coop = amr_coop(table_qam4, mrc_law(gs, 1e-10))
        non = amr_noncoop(table_qam4, min_snr_law(gs))
        assert coop >= non - 1e-9


def test_amr_monotone_in_average_snr(table_qam4, rng):
    e0 = make_ensemble(4, 5, 0.0, seed=77)
    p = PhaseVector.random(5, rng)
    coop_prev = non_prev = -1.0
    for snr_db in np.arange(-30.0, 31.0, 3.0):
        gs = effective_snrs(e0.with_snr_db(snr_db), p)
        non = amr_noncoop(table_qam4, min_snr_law(gs))
        coop = amr_coop(table_qam4, mrc_law(gs, 1e-10))
        assert non >= non_prev - 1e-12 and coop >= coop_prev - 1e-12
        non_prev, coop_prev = non, coop


def test_quadrature_order_self_consistency(table_qam4, rng):
    # reference: both averages on an order-100 Laguerre rule; component l of
    # the gamma series weighs node v by c_l v^(K+l-1) / Gamma(K+l)
    rule = gauss_laguerre(100)
    for gs in _random_configs(rng, 8):
        gn = min_snr_law(gs)
        ref = float(np.dot(rule.weights, table_qam4.mi(gn * rule.nodes)))
        assert abs(amr_noncoop(table_qam4, gn) - ref) < 1e-8
        law = mrc_law(gs, 1e-10)
        shape = law.K + np.arange(law.L + 1)
        mix = np.exp(np.log(rule.weights) + (shape[:, None] - 1.0) * np.log(rule.nodes)
                     - gammaln(shape)[:, None])
        ref = float(law.coeffs @ (mix @ table_qam4.mi(law.gamma_min * rule.nodes)))
        assert abs(amr_coop(table_qam4, law) - ref) < 1e-8


def test_saturation_ceiling(table_qam4, rng):
    for gs in _random_configs(rng, 10, snr_lo=30.0, snr_hi=60.0):
        assert amr_noncoop(table_qam4, min_snr_law(gs)) <= 2.0
        assert amr_coop(table_qam4, mrc_law(gs, 1e-10)) <= 2.0


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
    with pytest.raises(ValueError):
        mellin_mmse(qam4, 0.5)  # t < 1 is refused: x^(t-1) is singular at 0


@pytest.mark.parametrize("kind,order", [("psk", 2), ("qam", 4), ("qam", 16), ("psk", 8)])
def test_mellin_matches_panels_four_times_as_dense(kind, order):
    c = make_psk(order) if kind == "psk" else make_qam(order)
    edges = amr_module._mellin_panels(c.d_min)
    edges = np.append(np.concatenate(
        [np.linspace(a, b, 5)[:-1] for a, b in zip(edges[:-1], edges[1:])]), edges[-1])
    xg, wg = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * xg
    m = mmse_curve(c, x.ravel(), 40).reshape(x.shape)
    for t in (2, 3, 5):
        # beyond the last edge lies less than 1e-24 of the moment for t <= 5
        ref = float(np.sum(half * wg * x ** (t - 1.0) * m))
        assert abs(mellin_mmse(c, t) - ref) <= 1e-10 * ref


def test_mellin_tabulates_once_per_alphabet(monkeypatch, qam4):
    mellin_mmse(qam4, 2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mmse_curve(*args, **kwargs)

    monkeypatch.setattr(amr_module, "mmse_curve", counting)
    for t in (2, 3, 5, 9, 17):
        assert math.isfinite(mellin_mmse(qam4, t))
    assert calls == []
    monkeypatch.setattr(amr_module, "_MELLIN_NODES", {})
    mellin_mmse(qam4, 33)
    assert len(calls) == 1


def test_mellin_self_check_rejects_a_coarse_node_set(monkeypatch, qam4, bpsk):
    monkeypatch.setattr(amr_module, "_MELLIN_NODES", {})
    monkeypatch.setattr(amr_module, "_PANELS_PER_DECADE", 1)
    for c in (qam4, bpsk):
        with pytest.raises(RuntimeError, match="not converged"):
            mellin_mmse(c, 2)


def test_asymptote_noncoop_identity_ensembles(qam4, rng):
    m2 = mellin_mmse(qam4, 2)
    k = 4
    e = make_ensemble(k, 5, 0.0, seed=1)
    e_id = e.with_snr_db(0.0)
    e_id.correlations = np.stack([np.eye(5, dtype=complex)] * k)
    p = PhaseVector.random(5, rng)
    d = array_gain_noncoop(e_id, p, m2)
    assert d == pytest.approx(1.0 / (m2 * k), rel=1e-12)
    # the gain does not depend on the SNR
    assert array_gain_noncoop(e_id.with_snr_db(30.0), p, m2) == d
    # doubling every correlation doubles the gain
    e2 = e.with_snr_db(0.0)
    d1 = array_gain_noncoop(e2, p, m2)
    e2.correlations = 2.0 * e2.correlations
    d2 = array_gain_noncoop(e2, p, m2)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


def test_asymptote_noncoop_gap_prediction(qam4, rng):
    # evaluated saturation gap at 40 dB within 10% of 1/(d gbar)
    m2 = mellin_mmse(qam4, 2)
    gap_eval = SaturationGap(qam4, 40)
    e = make_ensemble(4, 5, 40.0, seed=5)
    p = PhaseVector.random(5, rng)
    gap = gap_eval.noncoop(min_snr_law(effective_snrs(e, p)))
    predicted = 1.0 / (array_gain_noncoop(e, p, m2) * e.gamma_bar)
    assert abs(gap / predicted - 1.0) < 0.10


def test_saturation_gap_complements_rate_at_low_snr(qam4, rng):
    # rate + gap = log2 M; at low SNR the Laguerre rate resolves the SNR
    # density at any scale, so it checks the gap where that density is far
    # narrower than 1
    gap_eval = SaturationGap(qam4, 40)
    info = DirectInfo(qam4, 40)
    e = make_ensemble(4, 5, 0.0, seed=9)
    p = PhaseVector.random(5, rng)
    for snr_db in np.arange(-40.0, -9.0, 5.0):
        gs = effective_snrs(e.with_snr_db(snr_db), p)
        gn = min_snr_law(gs)
        assert abs(gap_eval.noncoop(gn) + amr_noncoop(info, gn) - qam4.bits) < 1e-9
        law = mrc_law(gs, 1e-12)
        assert abs(gap_eval.coop(law) + amr_coop(info, law) - qam4.bits) < 1e-9


def test_saturation_gap_refuses_a_density_narrower_than_half_its_first_panel(qam4):
    # at that scale the gap still follows the linear low-SNR law
    # log2 M - E[x] / ln 2, which holds to within rounding there; at a tenth
    # of the panel's edge it is off by 1.6e-8 relative
    gap_eval = SaturationGap(qam4, 40)
    g = gap_eval.min_scale
    assert g == 0.5 * amr_module._mellin_panels(qam4.d_min)[1]
    assert abs(gap_eval.noncoop(g) - (qam4.bits - g / math.log(2.0))) <= 1e-12 * qam4.bits
    for k in (1, 4, 32):
        gs = g * np.linspace(1.0, 3.0, k)
        gap = gap_eval.coop(mrc_law(gs, 1e-13))
        assert abs(gap - (qam4.bits - gs.sum() / math.log(2.0))) <= 1e-12 * qam4.bits, k
    below = np.nextafter(g, 0.0)
    with pytest.raises(ValueError, match="first saturation-gap panel"):
        gap_eval.noncoop(below)
    with pytest.raises(ValueError, match="first saturation-gap panel"):
        gap_eval.coop(mrc_law([below, 2.0 * below]))


def test_saturation_gap_matches_panels_four_times_as_dense():
    # reference: g = log2 M - mi on the node set's panels split 4x; beyond
    # x_hi, g < 1e-30 and both leave it out. The 128 x 16 log panels that
    # SaturationGap used before it read the node set (edges straddling the
    # kernel's order switches) were off by 2.3e-10 here on 8-PSK, K = 32,
    # -10 dB, cooperative; the node set is within 5.1e-12.
    xg, wg = np.polynomial.legendre.leggauss(8)
    worst = 0.0
    for c in (make_qam(4), make_qam(16), make_psk(8)):
        edges = amr_module._mellin_panels(c.d_min)
        edges = np.append(np.concatenate(
            [np.linspace(a, b, 5)[:-1] for a, b in zip(edges[:-1], edges[1:])]), edges[-1])
        half = 0.5 * np.diff(edges)[:, None]
        x = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * xg).ravel()
        w = (half * wg).ravel()
        g = np.maximum(c.bits - DirectInfo(c, 40).mi(x), 0.0)
        gap_eval = SaturationGap(c, 40)
        for k in (4, 16, 32):
            e = make_ensemble(k, 8, 0.0, seed=k)
            p = PhaseVector.random(8, np.random.default_rng(k))
            for snr_db in np.arange(-40.0, 41.0, 5.0):
                gs = effective_snrs(e.with_snr_db(snr_db), p)
                gn = min_snr_law(gs)
                law = mrc_law(gs, 1e-12)
                for val, ref in ((gap_eval.noncoop(gn), w @ (g * np.exp(-x / gn) / gn)),
                                 (gap_eval.coop(law), w @ (g * law.pdf(x)))):
                    if ref >= 1e-9:
                        worst = max(worst, abs(val - ref) / ref)
    assert worst <= 1e-10


def test_one_tabulation_per_alphabet(monkeypatch, tmp_path, qam4):
    monkeypatch.setattr(amr_module, "_MELLIN_NODES", {})
    monkeypatch.setattr(channel_info, "_LAST_PASS", {})
    passes = []
    kernel_pass = channel_info._kernel_pass

    def counting(*args):
        passes.append(args)
        return kernel_pass(*args)

    monkeypatch.setattr(channel_info, "_kernel_pass", counting)
    # the node set's MMSE and gap come from one pass; asymptotics builds no table
    assert run(["asymptotics", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert len(passes) == 1
    SaturationGap(qam4, 40)
    mellin_mmse(qam4, 7)
    assert len(passes) == 1
    # evaluate: one pass for the table, one for the rebuilt node set; the
    # array gains read the node set first, so the kernel memo is cleared too,
    # or the rebuild would reuse the pass asymptotics left in it
    monkeypatch.setattr(amr_module, "_MELLIN_NODES", {})
    monkeypatch.setattr(channel_info, "_LAST_PASS", {})
    assert run(["evaluate", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert len(passes) == 3


def test_asymptote_coop_k1_matches_noncoop(qam4, rng):
    m2 = mellin_mmse(qam4, 2)
    e = make_ensemble(1, 5, 0.0, seed=2)
    p = PhaseVector.random(5, rng)
    d_non = array_gain_noncoop(e, p, m2)
    d_coop = array_gain_coop(e, p, m2)
    assert d_coop == pytest.approx(d_non, rel=1e-12)


def test_asymptote_coop_equal_unit_forms(qam4):
    m3 = mellin_mmse(qam4, 3)
    e = make_ensemble(2, 4, 0.0, seed=3)
    e.correlations = np.stack([np.eye(4, dtype=complex)] * 2)
    p = PhaseVector(np.zeros(4))
    d = array_gain_coop(e, p, m3)
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


def test_reports(tmp_path):
    # the CLI's evaluate rows are the report path: one row per scenario
    config = {"K": 4, "N": 5, "correlation": {"seed": 4}, "snr_db": [0.0, 10.0],
              "optimizers": ["random"]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run(["evaluate", "--config", str(tmp_path / "config.json"), "--seed", "1",
                "--out", str(tmp_path), "--format", "json"]) == 0
    rows = {(row["scenario"], row["snr_db"]): row
            for row in json.loads((tmp_path / "amr_table.json").read_text())["rows"]}
    rn, rc = rows["non_cooperative", 0.0], rows["cooperative", 0.0]
    assert 0.0 <= rn["amr_bits"] <= 2.0 and 0.0 <= rc["amr_bits"] <= 2.0
    assert rn["diversity_order"] == 1.0 and rc["diversity_order"] == 4.0
    assert rn["array_gain"] > 0.0 and rc["array_gain"] > 0.0
    # the asymptote is log2 M - (d * gamma_bar)^-G, with d the same at every SNR
    for gamma_bar, snr_db in ((1.0, 0.0), (10.0, 10.0)):
        dn = rows["non_cooperative", snr_db]["array_gain"]
        dc = rows["cooperative", snr_db]["array_gain"]
        assert (dn, dc) == (rn["array_gain"], rc["array_gain"])
        assert rows["non_cooperative", snr_db]["asymptote_bits"] == pytest.approx(
            2.0 - 1.0 / (dn * gamma_bar), rel=1e-15)
        assert rows["cooperative", snr_db]["asymptote_bits"] == pytest.approx(
            2.0 - (dc * gamma_bar) ** -4.0, rel=1e-15)
    assert rn["series_truncation"] is None and rn["gamma_non"] > 0.0
    assert isinstance(rc["series_truncation"], int) and rc["series_truncation"] >= 0
    assert rc["gamma_non"] is None
