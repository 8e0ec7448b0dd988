"""Average multicast rate: quadrature evaluation, Mellin constants, asymptotes.

Non-cooperative transmission is limited by the weakest user, so the rate
averages the scalar mutual information against the exponential law of the
minimum SNR; the module's one 50-node Gauss-Laguerre rule turns that into
sum_t w_t mi(gamma_non v_t). Cooperative reception sums the per-user SNRs,
and the rate averages against the gamma-series law on the same nodes, giving
a double sum over series terms and quadrature nodes with all gamma-function
factors kept in log space. Those factors do not depend on the law, only on K
and the term, so their rows are built once per K (_erlang_rows) and grown to
the longest series seen.

At high SNR both rates approach log2(M) - (d * snr)^(-G), with diversity
order G = 1 (non-cooperative) or K (cooperative). The beamformer enters only
through the array gain d, a plain number built from a Mellin moment of the
MMSE curve and the beamforming gains f^H R_k f (array_gain_*).
The Mellin moments and the saturation gap share the package's one node set
per alphabet (_mellin_nodes): composite Gauss-Legendre panels plus a
Gauss-Laguerre far tail. One kernel pass over all of it gives the MMSE
(through mmse_curve) and the MI (through mi_curve on the same array, which
reuses that pass), so each moment order t and each gap is a weighted sum
over the same values (see mellin_mmse and SaturationGap).

All functions are pure over immutable inputs and safe for parallel sweeps.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .channel_info import _BAND, _shipped_rule, mi_curve, mmse_curve
from .channel_model import (
    ChannelEnsemble,
    MrcLaw,
    PhaseVector,
    log_gamma_range,
    quadratic_forms,
)
from .constellation import Constellation

__all__ = [
    "amr_noncoop",
    "amr_coop",
    "mellin_mmse",
    "array_gain_noncoop",
    "array_gain_coop",
    "SaturationGap",
    "fit_gap_slope",
]


# Gauss-Laguerre orders of the rate averages, the Mellin far tail and its
# self-check
_RATE_ORDER = 50
_TAIL_ORDER = 150
_TAIL_CHECK_ORDER = 100
# the Laguerre orders shipped in amrbeam/rules
_SHIPPED_LAGUERRE = (_RATE_ORDER, _TAIL_ORDER, _TAIL_CHECK_ORDER)


@lru_cache(maxsize=None)
def _laguerre_rule(order: int):
    """Gauss-Laguerre rule (nodes, weights) for int_0^inf f(x) e^{-x} dx, read-only.

    It is numpy's laggauss at that order: loaded from its shipped file for
    the orders in _SHIPPED_LAGUERRE (see channel_info._shipped_rule),
    computed for any other.
    """
    if order in _SHIPPED_LAGUERRE:
        nodes, weights = _shipped_rule(f"laguerre_{order}")
    else:
        from numpy.polynomial.laguerre import laggauss

        nodes, weights = laggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# the rate averages' Gauss-Laguerre rule, with the logs amr_coop sums in
_RATE_NODES, _RATE_WEIGHTS = _laguerre_rule(_RATE_ORDER)
_LOG_NODES = np.log(_RATE_NODES)
_LOG_WEIGHTS = np.log(_RATE_WEIGHTS)
# K -> amr_coop's rows for the terms l = 0, 1, ..., see _erlang_rows
_ERLANG_ROWS: dict = {}


def amr_noncoop(info, gamma_non: float) -> float:
    """Average multicast rate in bits for weakest-user decoding.

    ``info`` is anything exposing mi(gamma) (InfoTable or DirectInfo);
    ``gamma_non`` is the harmonic-composite mean of the minimum SNR.
    """
    if gamma_non <= 0.0:
        raise ValueError(f"gamma_non must be positive, got {gamma_non}")
    val = float(np.dot(_RATE_WEIGHTS, info.mi(gamma_non * _RATE_NODES)))
    return min(max(val, 0.0), info.constellation.bits)


def _erlang_rows(k: int, n: int) -> np.ndarray:
    """Rows l < n of w_t v_t^(k+l-1) / Gamma(k+l) on the rate rule, read-only.

    The rows of each k are kept and grown to the largest n asked for, only by
    the rows missing. Each entry is exp of the same elementwise log-space sum
    whichever call builds it, so a row does not depend on when it was built.
    """
    rows = _ERLANG_ROWS.get(k, np.empty((0, _LOG_NODES.size)))
    have = rows.shape[0]
    if n > have:
        shape = k + np.arange(have, n)
        log_terms = (
            _LOG_WEIGHTS[None, :]
            + (shape[:, None] - 1.0) * _LOG_NODES[None, :]
            - log_gamma_range(k + have, k + n)[:, None]
        )
        rows = np.concatenate((rows, np.exp(log_terms)))
        rows.flags.writeable = False
        _ERLANG_ROWS[k] = rows
    return rows[:n]


def amr_coop(info, law: MrcLaw) -> float:
    """Average multicast rate in bits for joint (summed-SNR) decoding.

    Evaluates the gamma-series mixture term by term: component l contributes
    c_l / Gamma(K+l) * sum_t w_t v_t^(K+l-1) mi(gamma_min v_t).
    """
    return _coop_rate(law, info.mi(law.gamma_min * _RATE_NODES), info.constellation.bits)


def _coop_rate(law: MrcLaw, mi: np.ndarray, bits: float) -> float:
    """amr_coop's sum from ``mi`` at law.gamma_min * _RATE_NODES, clipped to [0, bits]."""
    val = float(law.coeffs @ (_erlang_rows(law.K, law.L + 1) @ mi))
    return min(max(val, 0.0), bits)


# Panels per decade of the node set; it also sets the widest panel,
# 4 / (_PANELS_PER_DECADE * alpha). See mellin_mmse.
_PANELS_PER_DECADE = 8
_PANEL_NODES = 8
# numpy's leggauss(8) as rows 0 and 1, then legvander(nodes, 7), row i holding
# P_0..P_7 at node i
_GL_FILE = _shipped_rule(f"legendre_{_PANEL_NODES}")
_GL_NODES, _GL_WEIGHTS = _GL_FILE[:2]
# Legendre coefficients a_k of the degree-7 interpolant from its values at the
# Gauss nodes: a_k = (2k + 1) / 2 * sum_i w_i f(x_i) P_k(x_i)
_GL_TO_LEGENDRE = _GL_FILE[2:] * _GL_WEIGHTS[:, None] * (np.arange(_PANEL_NODES) + 0.5)
_MELLIN_RTOL = 1e-8
# ln of the largest double: math.exp of anything larger overflows
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
# alphabet -> the node set, see _mellin_nodes
_MELLIN_NODES: dict = {}


def _mellin_panels(d_min: float) -> np.ndarray:
    """Panel edges on [0, x_hi], x_hi = 1 + 34 / alpha, alpha = d_min^2 / 8.

    Edges also sit at the ends of the kernel's band, g * d_min^2 = 1.5 and
    130, where it switches its Hermite order and weight floor, so no panel
    straddles a switch.
    """
    d2 = d_min * d_min
    x_hi = 1.0 + 272.0 / d2  # 1 + 34 / alpha
    cuts = (1e-10 * x_hi, _BAND[0] / d2, _BAND[1] / d2, x_hi)
    width = 32.0 / (_PANELS_PER_DECADE * d2)  # 4 / (_PANELS_PER_DECADE * alpha)
    edges = [0.0]
    for a, b in zip(cuts[:-1], cuts[1:]):
        logs = np.geomspace(a, b, max(1, math.ceil(_PANELS_PER_DECADE * math.log10(b / a))) + 1)
        for u, v in zip(logs[:-1], logs[1:]):
            edges.extend(np.linspace(u, v, math.ceil((v - u) / width) + 1)[:-1].tolist())
    edges.append(x_hi)
    return np.asarray(edges)


def _mellin_nodes(c: Constellation) -> SimpleNamespace:
    """The package's one node set per alphabet, built once.

    Holds the (panels, 8) Gauss-Legendre nodes ``x`` of _mellin_panels, the
    panel half-widths ``half``, the same rule flat (``nodes``, ``weights``),
    the MMSE at x, per far-tail rule (ln x, ln(w e^u mmse(x) / alpha)) at
    x = x_hi + u / alpha, and ``gap``, log2(M) - mi at ``nodes``. The MMSE
    comes from one mmse_curve call over all the points; mi_curve on the same
    array then reads the MI from that kernel pass.
    """
    key = c.points.tobytes()
    if key not in _MELLIN_NODES:
        edges = _mellin_panels(c.d_min)
        half = 0.5 * np.diff(edges)
        x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * _GL_NODES
        alpha = c.d_min**2 / 8.0
        rules = [_laguerre_rule(n) for n in (_TAIL_ORDER, _TAIL_CHECK_ORDER)]
        far = [edges[-1] + u / alpha for u, _ in rules]
        points = np.concatenate([x.ravel(), *far])
        vals = np.split(mmse_curve(c, points), np.cumsum([x.size, far[0].size]))
        gap = np.maximum(c.bits - mi_curve(c, points)[: x.size], 0.0)
        with np.errstate(divide="ignore"):  # an underflowed mmse gives -inf, a zero term
            tails = tuple((np.log(xf), np.log(w) + u + np.log(v) - math.log(alpha))
                          for (u, w), xf, v in zip(rules, far, vals[1:]))
        _MELLIN_NODES[key] = SimpleNamespace(
            x=x, half=half, nodes=x.ravel(), weights=(half[:, None] * _GL_WEIGHTS).ravel(),
            mmse=vals[0].reshape(x.shape), tails=tails, gap=gap)
    return _MELLIN_NODES[key]


def _far_tail(t: float, log_x: np.ndarray, log_rest: np.ndarray) -> float:
    """int_{x_hi}^inf x^(t-1) mmse(x) dx, summed in log space; inf past the double range."""
    log_terms = log_rest + (t - 1.0) * log_x
    finite = log_terms[np.isfinite(log_terms)]
    if finite.size == 0:
        return 0.0
    shift = finite.max()
    if shift > _LOG_DOUBLE_MAX:
        return math.inf
    return math.exp(shift) * float(np.exp(finite - shift).sum())


def mellin_mmse(c: Constellation, t: float) -> float:
    """Mellin moment int_0^inf x^(t-1) mmse(x) dx of the bit-convention MMSE, t >= 1.

    With alpha = d_min^2 / 8 (the MMSE decays like e^{-2 alpha x}), the head
    [0, x_hi], x_hi = 1 + 34 / alpha, is covered by 8-node Gauss-Legendre
    panels: one on [0, 1e-10 x_hi], then log-spaced at 8 per decade, with
    edges at the kernel's order switches g d_min^2 = 1.5 and 130, and none
    wider than 0.5 / alpha. Beyond x_hi a Gauss-Laguerre rule under
    x = x_hi + u / alpha integrates the tail. That is 140-141 panels
    (1120-1128 nodes) and 250 tail nodes for any QAM or PSK, tabulated in
    one kernel pass per alphabet and cached, so each t is one weighted sum.
    Against panels 4x as dense the head agrees to 1.8e-13 relative for t
    from 1 to 41 on BPSK, 4-, 16-, 64- and 256-QAM, 8- and 16-PSK.

    Two self-checks cost no kernel calls. Per panel, the integrand's top
    Legendre coefficients, extrapolated along their decay, estimate the
    panel error; this is an estimate, not a bound: it stays below 1.5e-9 of
    the moment on the alphabets above, and with panels 8x coarser the check
    rejects every t from 1 to 41 there but t = 16 on 16-PSK. The tail is
    recomputed with the order-100 rule.
    Raises RuntimeError when either misses the 1e-8 relative target or the
    moment or its far tail leaves the double range (64-QAM from t = 91,
    256-QAM from t = 77, 4-QAM from t = 146), and ValueError for t < 1,
    where x^(t-1) is singular at 0.
    """
    if not t >= 1.0:
        raise ValueError(f"mellin order must be >= 1, got {t}")
    nodes = _mellin_nodes(c)
    half = nodes.half
    # past the double range x^(t-1) overflows, and inf * 0 is nan: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        f = nodes.x ** (t - 1.0) * nodes.mmse
        head = float(half @ (f @ _GL_WEIGHTS))
    far, far_check = (_far_tail(t, *tail) for tail in nodes.tails)
    total = head + far
    if not (math.isfinite(total) and math.isfinite(far_check)):
        raise RuntimeError(
            f"mellin moment at t={t} of {c.label} leaves the double range: head {head!r}, "
            f"far tail {far!r} vs {far_check!r}"
        )
    coef = np.abs(f @ _GL_TO_LEGENDRE)
    top = coef[:, 6] + coef[:, 7]
    # a_k ~ rho^-k: a_2, a_3 -> a_6, a_7 is rho^-4, and a_7 -> a_16, which
    # limits an 8-node rule, is rho^-9
    decay = np.minimum(top / np.maximum(coef[:, 2] + coef[:, 3], np.finfo(float).tiny), 1.0)
    head_err = float(half @ (top * decay**2.25))

    budget = _MELLIN_RTOL * max(abs(total), 1e-300)
    # written to fail on nan
    if not (abs(far - far_check) <= budget + 1e-13 and head_err <= budget):
        raise RuntimeError(
            f"mellin quadrature not converged at t={t}: far tail {far!r} vs {far_check!r}, "
            f"panel error estimate {head_err!r} against total {total!r}"
        )
    return total


def array_gain_noncoop(ensemble: ChannelEnsemble, phases: PhaseVector, mellin2: float) -> float:
    """Array gain d of the weakest-user rate, log2(M) - 1 / (d * gamma_bar).

    d = 1 / (mellin2 * sum_k 1 / q_k), built from the beamforming gains
    q_k = f^H R_k f; it does not depend on the SNR.
    """
    q = quadratic_forms(ensemble, phases)
    return 1.0 / (mellin2 * float(np.sum(1.0 / q)))


def array_gain_coop(ensemble: ChannelEnsemble, phases: PhaseVector, mellin_k1: float) -> float:
    """Array gain d of the joint-decoding rate, log2(M) - (d * gamma_bar)^(-K).

    d = (K! * prod_k q_k / mellin_k1)^(1/K), evaluated in log space to stay
    finite for large K. The product of per-user SNRs is read through the
    SNR-normalized gains q_k = f^H R_k f, not gamma_bar * q_k, so d does not
    depend on the SNR.
    """
    q = quadratic_forms(ensemble, phases)
    k = q.size
    return math.exp((math.lgamma(k + 1.0) + float(np.sum(np.log(q))) - math.log(mellin_k1)) / k)


class SaturationGap:
    """High-accuracy saturation gap log2(M) - AMR for both scenarios.

    The fixed-order Laguerre rule loses the gap once the unsaturated SNR
    region shrinks below its smallest node, so direct evaluation of
    log2(M) - AMR collapses at high SNR. This evaluator instead integrates
    g(x) = log2(M) - mi(x) on the node set's panels (_mellin_nodes, from the
    same kernel pass as the Mellin MMSE) against the exact SNR density of
    each operating point. The panels' log spacing down to 1e-10 x_hi resolves
    densities far narrower than 1 (operating points down to -40 dB). Beyond
    x_hi, g is the far-tail Mellin moment at t = 1, below 1.1e-30 bits on
    BPSK, 4- to 256-QAM, 8- and 16-PSK; the density integrates to at most 1,
    so leaving that region out costs less than that. Against the panels split
    4x the gap agrees to 5.1e-12 relative wherever it is >= 1e-9 (4-/16-QAM
    and 8-PSK, K = 4, 16, 32, -40 to 40 dB, both scenarios).

    A density much narrower than the first panel, [0, 1e-10 x_hi], falls
    between its nodes, so both methods raise ValueError where the law's scale
    (gamma_non, or gamma_min of the sum) is below ``min_scale``, half that
    panel. Calibrated against the linear low-SNR law log2(M) - E[x] / ln 2
    with the scale r times the panel's edge, the error relative to log2(M)
    depends on r, not on the alphabet (BPSK, 4-, 16- and 256-QAM, 8-PSK;
    both scenarios, K from 1 to 32): 0.30 at r = 0.01, 1.6e-8 at 0.1,
    2.5e-11 at 0.2 and 8.3e-12 at 0.3. On 4-QAM from r = 0.5 to 1 it is at
    most 5.1e-13, the size of the sum's series truncation.
    """

    def __init__(self, constellation: Constellation):
        nodes = _mellin_nodes(constellation)
        self.nodes, self.weights, self.gap_values = nodes.nodes, nodes.weights, nodes.gap
        # the first panel is [0, 2 half[0]]
        self.min_scale = float(nodes.half[0])

    def _check_scale(self, scale: float) -> None:
        if scale < self.min_scale:
            raise ValueError(
                f"SNR law scale {scale!r} is below {self.min_scale!r}, half the first "
                f"saturation-gap panel, which does not resolve so narrow a density"
            )

    def noncoop(self, gamma_non: float) -> float:
        """Gap of the weakest-user rate: int g(x) e^{-x/gn} / gn dx."""
        if gamma_non <= 0.0:
            raise ValueError(f"gamma_non must be positive, got {gamma_non}")
        self._check_scale(gamma_non)
        dens = np.exp(-self.nodes / gamma_non) / gamma_non
        return float(np.dot(self.weights, self.gap_values * dens))

    def coop(self, law: MrcLaw) -> float:
        """Gap of the joint-decoding rate: int g(x) f_mrc(x) dx."""
        self._check_scale(law.gamma_min)
        return float(np.dot(self.weights, self.gap_values * law.pdf(self.nodes)))


def fit_gap_slope(gamma_bars, gaps, window):
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
