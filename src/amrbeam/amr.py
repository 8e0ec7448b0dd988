"""Average multicast rate: quadrature evaluation, Mellin constants, asymptotes.

Non-cooperative transmission is limited by the weakest user, so the rate
averages the scalar mutual information against the exponential law of the
minimum SNR; a Gauss-Laguerre rule turns that into sum_t w_t mi(gamma_non v_t).
Cooperative reception sums the per-user SNRs, and the rate averages against
the gamma-series law, giving a double sum over series terms and quadrature
nodes with all gamma-function factors kept in log space.

At high SNR both rates approach log2(M) like A - (d * snr)^(-G): diversity
order G = 1 (non-cooperative) or K (cooperative), with the array gain d built
from a Mellin moment of the MMSE curve and the beamforming gains f^H R_k f.
Inside the cooperative gain the product of per-user SNRs is read as the
SNR-normalized quadratic forms so that the average SNR appears only in the
explicit (d * snr)^(-K) factor; AmrReport records that convention.

All functions are pure over immutable inputs and safe for parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .channel_info import mmse_curve
from .channel_model import ChannelEnsemble, MrcLaw, PhaseVector, min_snr_law, mrc_law, quadratic_forms
from .constellation import Constellation
from .quadrature import QuadratureRule, gauss_laguerre

__all__ = [
    "amr_noncoop",
    "amr_coop",
    "mellin_mmse",
    "asymptote_noncoop",
    "asymptote_coop",
    "AmrReport",
    "SaturationGap",
    "report_noncoop",
    "report_coop",
    "fit_gap_slope",
]


def _check_rule(rule: QuadratureRule) -> None:
    if rule.kind != "laguerre":
        raise ValueError(f"expected a laguerre rule, got {rule.kind!r}")
    if rule.order < 10:
        raise ValueError(f"rule order must be >= 10, got {rule.order}")


def amr_noncoop(info, gamma_non: float, rule: QuadratureRule) -> float:
    """Average multicast rate in bits for weakest-user decoding.

    ``info`` is anything exposing mi(gamma) (InfoTable or DirectInfo);
    ``gamma_non`` is the harmonic-composite mean of the minimum SNR.
    """
    _check_rule(rule)
    if gamma_non <= 0.0:
        raise ValueError(f"gamma_non must be positive, got {gamma_non}")
    val = float(np.dot(rule.weights, info.mi(gamma_non * rule.nodes)))
    return min(max(val, 0.0), info.constellation.bits)


def amr_coop(info, law: MrcLaw, rule: QuadratureRule) -> float:
    """Average multicast rate in bits for joint (summed-SNR) decoding.

    Evaluates the gamma-series mixture term by term: component l contributes
    c_l / Gamma(K+l) * sum_t w_t v_t^(K+l-1) mi(gamma_min v_t).
    """
    _check_rule(rule)
    mi = info.mi(law.gamma_min * rule.nodes)
    shape = law.K + np.arange(law.L + 1)
    log_terms = (
        np.log(rule.weights)[None, :]
        + (shape[:, None] - 1.0) * np.log(rule.nodes)[None, :]
        - gammaln(shape)[:, None]
    )
    val = float(law.coeffs @ (np.exp(log_terms) @ mi))
    return min(max(val, 0.0), info.constellation.bits)


_MELLIN_CACHE: dict = {}


def mellin_mmse(
    c: Constellation,
    t: float,
    hermite_order: int = 40,
    tail_order: int = 150,
) -> float:
    """Mellin moment int_0^inf x^(t-1) mmse(x) dx of the bit-convention MMSE.

    Adaptive quadrature handles (0, 1] (integrand is O(x^(t-1))) and
    [1, 1 + 34/alpha] where alpha = d_min^2 / 8 sets the exponential decay
    rate of the MMSE; the integrand there has x^(-1/2)-type structure that a
    fixed rule resolves poorly. Beyond that the remaining mass is below 1e-13
    of the total and a Gauss-Laguerre rule under the substitution
    x = x_hi + u / alpha (absorbing the decay into the e^{-u} weight) finishes
    the tail. Raises RuntimeError when the pieces disagree with their error
    estimates at the 1e-8 relative target. Results are memoized.
    """
    if t <= 0.0:
        raise ValueError(f"mellin order must be positive, got {t}")
    cache_key = (c.points.tobytes(), float(t), hermite_order, tail_order)
    if cache_key in _MELLIN_CACHE:
        return _MELLIN_CACHE[cache_key]

    def integrand(x: float) -> float:
        return x ** (t - 1.0) * mmse_curve(c, x, hermite_order)[0]

    head, head_err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-10, limit=200)

    alpha = c.d_min**2 / 8.0
    x_hi = 1.0 + 34.0 / alpha
    mid, mid_err = quad(integrand, 1.0, x_hi, epsabs=1e-14, epsrel=1e-10, limit=400)

    def far_tail_at(order: int) -> float:
        rule = gauss_laguerre(order)
        x = x_hi + rule.nodes / alpha
        vals = mmse_curve(c, x, hermite_order)
        with np.errstate(divide="ignore"):
            log_terms = (
                np.log(rule.weights)
                + rule.nodes
                + (t - 1.0) * np.log(x)
                + np.where(vals > 0.0, np.log(vals), -np.inf)
            )
        finite = log_terms[np.isfinite(log_terms)]
        if finite.size == 0:
            return 0.0
        shift = finite.max()
        return math.exp(shift) * float(np.exp(finite - shift).sum()) / alpha

    far = far_tail_at(tail_order)
    far_check = far_tail_at(max(10, int(tail_order * 2 / 3)))
    total = head + mid + far
    budget = 1e-8 * max(abs(total), 1e-300)
    if abs(far - far_check) > budget + 1e-13 or head_err + mid_err > 10.0 * budget + 1e-12:
        raise RuntimeError(
            f"mellin quadrature not converged: far tail {far!r} vs {far_check!r}, "
            f"adaptive error estimates {head_err!r} + {mid_err!r}"
        )
    _MELLIN_CACHE[cache_key] = total
    return total


def asymptote_noncoop(
    ensemble: ChannelEnsemble,
    phases: PhaseVector,
    mellin2: float,
    log2_m: float,
):
    """High-SNR law of the weakest-user rate: log2(M) - 1 / (d * gamma_bar).

    Returns (d, asymptote) with d = 1 / (mellin2 * sum_k 1 / q_k) built from
    the beamforming gains q_k = f^H R_k f; the callable maps a linear average
    SNR to the asymptotic rate.
    """
    q = quadratic_forms(ensemble, phases)
    d = 1.0 / (mellin2 * float(np.sum(1.0 / q)))

    def asymptote(gamma_bar):
        return log2_m - 1.0 / (d * np.asarray(gamma_bar, dtype=float))

    return d, asymptote


def asymptote_coop(
    ensemble: ChannelEnsemble,
    phases: PhaseVector,
    mellin_k1: float,
    log2_m: float,
):
    """High-SNR law of the joint-decoding rate: log2(M) - (d * gamma_bar)^(-K).

    d = (K! * prod_k q_k / mellin_k1)^(1/K) with the SNR-normalized gains
    q_k = f^H R_k f, evaluated in log space to stay finite for large K.
    """
    q = quadratic_forms(ensemble, phases)
    k = q.size
    log_d = (gammaln(k + 1.0) + float(np.sum(np.log(q))) - math.log(mellin_k1)) / k
    d = math.exp(log_d)

    def asymptote(gamma_bar):
        return log2_m - (d * np.asarray(gamma_bar, dtype=float)) ** (-float(k))

    return d, asymptote


@dataclass
class AmrReport:
    """One evaluated operating point with its high-SNR constants."""

    scenario: str
    amr_bits: float
    asymptote_bits: float
    array_gain: float
    diversity_order: float
    mellin_const: float
    quadrature_order: int
    series_truncation: int | None = None
    gamma_non: float | None = None
    gammas: list | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.amr_bits:
            raise ValueError(f"amr_bits must be >= 0, got {self.amr_bits}")
        if not (self.array_gain > 0.0 and math.isfinite(self.array_gain)):
            raise ValueError(f"array gain must be positive finite, got {self.array_gain}")

    def to_row(self) -> dict:
        row = {
            "scenario": self.scenario,
            "amr_bits": self.amr_bits,
            "asymptote_bits": self.asymptote_bits,
            "array_gain": self.array_gain,
            "diversity_order": self.diversity_order,
            "mellin_const": self.mellin_const,
            "quadrature_order": self.quadrature_order,
            "series_truncation": self.series_truncation,
            "gamma_non": self.gamma_non,
        }
        row.update(self.metadata)
        return row


def report_noncoop(
    info,
    ensemble: ChannelEnsemble,
    phases: PhaseVector,
    rule: QuadratureRule,
    mellin2: float,
) -> AmrReport:
    """Evaluate the weakest-user rate at the ensemble's SNR with provenance."""
    gammas = ensemble.gamma_bar * quadratic_forms(ensemble, phases)
    law = min_snr_law(gammas)
    amr = amr_noncoop(info, law.gamma_non, rule)
    bits = info.constellation.bits
    d, asym = asymptote_noncoop(ensemble, phases, mellin2, bits)
    return AmrReport(
        scenario="non_cooperative",
        amr_bits=amr,
        asymptote_bits=float(asym(ensemble.gamma_bar)),
        array_gain=d,
        diversity_order=1.0,
        mellin_const=mellin2,
        quadrature_order=rule.order,
        gamma_non=law.gamma_non,
        gammas=[float(g) for g in gammas],
    )


def report_coop(
    info,
    ensemble: ChannelEnsemble,
    phases: PhaseVector,
    rule: QuadratureRule,
    mellin_k1: float,
    tol: float = 1e-10,
) -> AmrReport:
    """Evaluate the joint-decoding rate at the ensemble's SNR with provenance."""
    gammas = ensemble.gamma_bar * quadratic_forms(ensemble, phases)
    law = mrc_law(gammas, tol)
    amr = amr_coop(info, law, rule)
    bits = info.constellation.bits
    d, asym = asymptote_coop(ensemble, phases, mellin_k1, bits)
    return AmrReport(
        scenario="cooperative",
        amr_bits=amr,
        asymptote_bits=float(asym(ensemble.gamma_bar)),
        array_gain=d,
        diversity_order=float(ensemble.K),
        mellin_const=mellin_k1,
        quadrature_order=rule.order,
        series_truncation=law.L,
        gammas=[float(g) for g in gammas],
        metadata={"array_gain_uses_normalized_forms": True, "series_tail_bound": law.tail_bound},
    )


class SaturationGap:
    """High-accuracy saturation gap log2(M) - AMR for both scenarios.

    The fixed-order Laguerre rule loses the gap once the unsaturated SNR
    region shrinks below its smallest node, so direct evaluation of
    log2(M) - AMR collapses at high SNR. This evaluator instead tabulates
    g(x) = log2(M) - mi(x) once on composite Gauss-Legendre panels covering
    the region where g is nonzero in double precision, log-spaced from 1e-8 of
    its upper end so that SNR densities far narrower than 1 (operating points
    down to -40 dB) are resolved too, then integrates g against the exact SNR
    density for each operating point; the only moving part per point is the
    density. Reliable down to gaps ~1e-11 (series truncation and panel error
    floors).
    """

    _PANEL_NODES = 16

    def __init__(self, constellation: Constellation, hermite_order: int = 40):
        from .channel_info import DirectInfo

        self.constellation = constellation
        self.bits = constellation.bits
        info = DirectInfo(constellation, hermite_order)
        # panels from 0 out to where g(x) ~ e^{-x d^2/8} is below 1e-24, 16 per
        # decade from 1e-8 * upper so that SNR densities far below 1 are resolved
        upper = 8.0 / constellation.d_min**2 * 56.0
        edges = np.concatenate(([0.0], np.geomspace(1e-8 * upper, upper, 129)))
        xg, wg = np.polynomial.legendre.leggauss(self._PANEL_NODES)
        nodes = []
        weights = []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * wg)
        self.nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights)
        self.gap_values = np.maximum(self.bits - info.mi(self.nodes), 0.0)

    def noncoop(self, gamma_non: float) -> float:
        """Gap of the weakest-user rate: int g(x) e^{-x/gn} / gn dx."""
        if gamma_non <= 0.0:
            raise ValueError(f"gamma_non must be positive, got {gamma_non}")
        dens = np.exp(-self.nodes / gamma_non) / gamma_non
        return float(np.dot(self.weights, self.gap_values * dens))

    def coop(self, law: MrcLaw) -> float:
        """Gap of the joint-decoding rate: int g(x) f_mrc(x) dx."""
        return float(np.dot(self.weights, self.gap_values * law.pdf(self.nodes)))


def fit_gap_slope(gamma_bars, gaps, window=(1e-4, 1e-1)):
    """Log-log slope of the saturation gap over its final reliable decade.

    Keeps points whose gap lies inside ``window``, restricts to the last
    decade of SNR among those, and least-squares fits ln(gap) against
    ln(gamma_bar). Returns (slope, n_points_used).
    """
    g = np.asarray(gamma_bars, dtype=float)
    gap = np.asarray(gaps, dtype=float)
    keep = (gap >= window[0]) & (gap <= window[1]) & (g > 0.0)
    if keep.sum() < 2:
        raise ValueError("fewer than two gap points inside the fit window")
    g, gap = g[keep], gap[keep]
    decade = g >= g.max() / 10.0
    g, gap = g[decade], gap[decade]
    if g.size < 2:
        raise ValueError("fewer than two gap points in the final decade")
    slope = np.polyfit(np.log(g), np.log(gap), 1)[0]
    return float(slope), int(g.size)
