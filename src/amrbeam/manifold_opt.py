"""Conjugate-gradient ascent on the torus of unit-modulus phase vectors.

The feasible set {phi : |phi_n| = 1} is a product of circles. Tangent vectors
at phi are exactly those with Re(t_n conj(phi_n)) = 0 per entry; projection
(riemannian_grad) drops the radial component elementwise, the same projection
at the new point transports a tangent vector there, and the retraction
renormalizes each entry to unit modulus.

Gradients follow the Wirtinger convention g = df/d(conj(phi)), so the
directional derivative of a real objective along a tangent direction d is
2 Re<g, d>. An objective is any object with value(phi) and euclid_grad(phi);
two classes provide them: CompositeSnrObjective, the harmonic-composite SNR
(weakest-user surrogate), and LogGainSumObjective, the sum of log beamforming
gains (joint-decoding surrogate, what the cooperative array gain maximizes).
Both share channel_model's nulled-user check. The search direction
mixes the new gradient with the transported previous direction using a
nonnegative Polak-Ribiere coefficient, restarting to steepest ascent whenever
the mixed direction ascends slower than half the gradient itself; with the
Armijo test on the directional derivative this guarantees every accepted step
increases the objective by at least ARMIJO_C1 * alpha * ||grad||^2. Steps
start at ARMIJO_STEP0 and grow or shrink by the factor ARMIJO_RATIO at most
MAX_BACKTRACKS times; a run stops once the tangent gradient norm is below
GRAD_TOL. These are module constants; only the iteration limit is settable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel_model import ChannelEnsemble, PhaseVector, _checked_forms

__all__ = [
    "RmCgdResult",
    "CompositeSnrObjective",
    "LogGainSumObjective",
    "riemannian_grad",
    "retract",
    "rm_cgd",
]


GRAD_TOL = 1e-6
ARMIJO_C1 = 1e-4
ARMIJO_RATIO = 0.5
ARMIJO_STEP0 = 1.0
MAX_BACKTRACKS = 50


class CompositeSnrObjective:
    """Harmonic-composite SNR (sum_k (N / gamma_bar) / (phi^H R_k phi))^-1.

    Maximizing this maximizes the weakest-user average multicast rate.
    """

    def __init__(self, ensemble: ChannelEnsemble):
        self.ensemble = ensemble

    def value(self, phi: np.ndarray) -> float:
        q = _checked_forms(self.ensemble, phi, self.ensemble.N)
        return 1.0 / float(np.sum((self.ensemble.N / self.ensemble.gamma_bar) / q))

    def euclid_grad(self, phi: np.ndarray) -> np.ndarray:
        """Wirtinger gradient: value^2 * sum_k (N/gbar) R_k phi / q_k^2."""
        ens = self.ensemble
        q = _checked_forms(ens, phi, ens.N)
        scale = ens.N / ens.gamma_bar
        total = float(np.sum(scale / q))
        try:
            value_sq = total**-2
        except OverflowError as ex:
            raise ValueError(
                f"the composite-SNR surrogate's gradient overflows at {ens.snr_db} dB"
            ) from ex
        rphi = np.einsum("kij,j->ki", ens.correlations, phi)
        return value_sq * np.einsum("k,ki->i", scale / q**2, rphi)


class LogGainSumObjective:
    """Sum of log beamforming gains sum_k log(phi^H R_k phi).

    Maximizing this maximizes the cooperative high-SNR array gain.
    """

    def __init__(self, ensemble: ChannelEnsemble):
        self.ensemble = ensemble

    def value(self, phi: np.ndarray) -> float:
        return float(np.sum(np.log(_checked_forms(self.ensemble, phi, self.ensemble.N))))

    def euclid_grad(self, phi: np.ndarray) -> np.ndarray:
        """Wirtinger gradient: sum_k R_k phi / (phi^H R_k phi)."""
        q = _checked_forms(self.ensemble, phi, self.ensemble.N)
        rphi = np.einsum("kij,j->ki", self.ensemble.correlations, phi)
        return np.einsum("k,ki->i", 1.0 / q, rphi)


def riemannian_grad(euclid: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at phi."""
    return euclid - np.real(euclid * np.conj(phi)) * phi


def retract(phi: np.ndarray, direction: np.ndarray, step: float) -> np.ndarray:
    """Move along a direction and renormalize each entry to unit modulus.

    A zero entry (impossible for tangent directions, possible for arbitrary
    ones) halves the step up to 30 times before failing.
    """
    for _ in range(31):
        cand = phi + step * direction
        mags = np.abs(cand)
        if np.all(mags > 0.0):
            return cand / mags
        step *= 0.5
    raise RuntimeError("retraction hit a zero entry even after 30 step halvings")


def _inner(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.real(np.vdot(u, v)))


@dataclass
class RmCgdResult:
    phases: PhaseVector
    objective_trace: np.ndarray
    grad_norms: np.ndarray
    step_sizes: np.ndarray
    converged: bool
    line_search_failed: bool
    iterations: int


def rm_cgd(objective, start: PhaseVector, *, max_iters: int = 200) -> RmCgdResult:
    """Conjugate-gradient ascent from ``start`` until the tangent gradient
    norm falls below GRAD_TOL or ``max_iters`` iterations are done.

    The objective trace is non-decreasing; on a line-search failure the best
    point so far is returned with the flag set.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    phi = start.phi.astype(complex)
    f_val = objective.value(phi)
    g = riemannian_grad(objective.euclid_grad(phi), phi)
    eta = g.copy()

    trace = [f_val]
    grad_norms = [float(np.linalg.norm(g))]
    steps = []
    converged = grad_norms[0] < GRAD_TOL
    failed = False

    it = 0
    while not converged and it < max_iters:
        g_norm_sq = _inner(g, g)
        dirderiv = 2.0 * _inner(g, eta)
        if dirderiv < g_norm_sq:
            eta = g.copy()
            dirderiv = 2.0 * g_norm_sq

        alpha = ARMIJO_STEP0
        accepted = False
        cand = retract(phi, eta, alpha)
        f_cand = objective.value(cand)
        if f_cand >= f_val + ARMIJO_C1 * alpha * dirderiv:
            accepted = True
            # expand while the sufficient-increase test keeps holding, so the
            # step is not pinned to the unit initial guess far from optimum
            for _ in range(MAX_BACKTRACKS):
                alpha_try = alpha / ARMIJO_RATIO
                cand_try = retract(phi, eta, alpha_try)
                f_try = objective.value(cand_try)
                if f_try >= f_val + ARMIJO_C1 * alpha_try * dirderiv and f_try >= f_cand:
                    alpha, cand, f_cand = alpha_try, cand_try, f_try
                else:
                    break
        else:
            for _ in range(MAX_BACKTRACKS):
                alpha *= ARMIJO_RATIO
                cand = retract(phi, eta, alpha)
                f_cand = objective.value(cand)
                if f_cand >= f_val + ARMIJO_C1 * alpha * dirderiv:
                    accepted = True
                    break
        if not accepted:
            failed = True
            break

        g_new = riemannian_grad(objective.euclid_grad(cand), cand)
        # transport the old gradient and direction to cand by projection
        zeta = max(_inner(g_new, g_new - riemannian_grad(g, cand)) / g_norm_sq, 0.0)
        eta = g_new + zeta * riemannian_grad(eta, cand)

        phi, f_val, g = cand, f_cand, g_new
        it += 1
        trace.append(f_val)
        grad_norms.append(float(np.linalg.norm(g)))
        steps.append(alpha)
        converged = grad_norms[-1] < GRAD_TOL

    return RmCgdResult(
        phases=PhaseVector.from_phi(phi),
        objective_trace=np.asarray(trace),
        grad_norms=np.asarray(grad_norms),
        step_sizes=np.asarray(steps),
        converged=converged,
        line_search_failed=failed,
        iterations=it,
    )
