"""Statistical channel state: correlation matrices, effective SNRs, SNR laws.

The transmitter only knows second-order statistics (one Hermitian PSD
correlation matrix per user) plus the average SNR. Beamforming with a
unit-modulus phase vector phi (f = phi / sqrt(N)) turns each user's channel
into a scalar Rayleigh link whose instantaneous SNR is exponential with mean

    gamma_k = gamma_bar * phi^H R_k phi / N.

Two composite laws matter downstream: the minimum over users (exponential with
the harmonic-composite mean) and the sum over users (maximal-ratio combining).
The sum's density is a single gamma series (Moschopoulos 1985, Ann. Inst.
Stat. Math. 37:541) whose mixture masses are the power-series coefficients of
prod_k (1 - beta_k) / (1 - beta_k z); a cascade of K first-order recursions
computes them in O(K L) for L terms, adding only nonnegative numbers. The
cascade runs over blocks of _CASCADE_BLOCK terms, one user at a time, which
does the same multiply and add for every mass as a term-by-term sweep over
the users, in the same order, so the masses do not depend on the block. All
objects here are immutable after construction; Monte Carlo sampling lives in
mc_sim and takes explicit seeded generators.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from bisect import bisect_left
from itertools import accumulate, repeat
from operator import add, mul

import numpy as np
import numpy.random  # loaded lazily by numpy 2; every CLI command draws from it

from .channel_info import _noise_rule

__all__ = [
    "NulledUserError",
    "TruncationError",
    "PhaseVector",
    "ChannelEnsemble",
    "MrcLaw",
    "wrap_phase",
    "make_correlation",
    "make_ensemble",
    "effective_snrs",
    "min_snr_law",
    "mrc_law",
]

# Quadratic forms at or below this fraction of trace(R_k) count as a nulled user.
_NULL_EPS = 1e-12
_MAX_SERIES_TERMS = 10_000
# Masses per block of mrc_law's cascade: long enough to spread each user's
# per-block cost, short enough that the terms computed past the stop stay few.
_CASCADE_BLOCK = 32


def log_gamma_range(start: int, stop: int) -> np.ndarray:
    """ln Gamma(n) for the integers 1 <= start <= n < stop, from math.lgamma."""
    return np.array([math.lgamma(n) for n in range(start, stop)])


class NulledUserError(ValueError):
    """A beamformer placed a user inside the null space of its correlation."""


class TruncationError(RuntimeError):
    """The gamma-series failed to reach the requested tail mass."""


def wrap_phase(theta):
    """Wrap angles to (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    wrapped = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


@dataclass(frozen=True)
class PhaseVector:
    """N phase shifts theta_n in (-pi, pi].

    The induced unit-modulus vector is phi_n = exp(-j theta_n) and the
    beamformer is f = phi / sqrt(N), so ||f|| = 1 by construction.
    """

    thetas: np.ndarray

    def __post_init__(self):
        t = wrap_phase(np.asarray(self.thetas, dtype=float).ravel())
        if t.size == 0:
            raise ValueError("empty phase vector")
        object.__setattr__(self, "thetas", t)

    @property
    def n(self) -> int:
        return self.thetas.size

    @property
    def phi(self) -> np.ndarray:
        return np.exp(-1j * self.thetas)

    @property
    def f(self) -> np.ndarray:
        return self.phi / math.sqrt(self.n)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "PhaseVector":
        return cls(rng.uniform(-np.pi, np.pi, n))

    @classmethod
    def from_phi(cls, phi: np.ndarray) -> "PhaseVector":
        return cls(-np.angle(np.asarray(phi, dtype=complex)))


def make_correlation(
    model: str,
    n: int,
    *,
    rho: float | None = None,
    mu: float = 0.0,
    angle: float | None = None,
    spread: float | None = None,
) -> np.ndarray:
    """One Hermitian PSD correlation matrix with unit diagonal.

    ``exponential``: R[i, j] = rho^|i-j| exp(j (i-j) mu) with 0 <= rho < 1.
    ``local_scattering``: half-wavelength ULA facing a scatterer cluster at
    ``angle`` (radians) with Gaussian angular offsets of std ``spread``;
    R[i, j] = E_delta exp(j pi (i-j) sin(angle + delta)), evaluated by
    numpy's order-200 Gauss-Hermite rule and clipped onto the PSD cone.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 antennas, got {n}")
    idx = np.arange(n)
    lag = idx[:, None] - idx[None, :]

    if model == "exponential":
        if rho is None or not 0.0 <= rho < 1.0:
            raise ValueError(f"exponential model needs 0 <= rho < 1, got {rho}")
        return (rho ** np.abs(lag)) * np.exp(1j * lag * mu)

    if model == "local_scattering":
        if angle is None or spread is None or spread <= 0.0:
            raise ValueError("local_scattering model needs angle and spread > 0")
        # delta = sqrt(2) spread x with x ~ N(0, 1/2), the kernel's noise rule
        (x,), w = _noise_rule(200)
        deltas = math.sqrt(2.0) * spread * x
        sines = np.sin(angle + deltas)
        lags = np.exp(1j * np.pi * np.arange(n)[:, None] * sines[None, :]) @ w
        r = lags[np.abs(lag)]
        r = np.where(lag < 0, np.conj(r), r)
        # roundoff can leave eigenvalues barely negative; clip onto the PSD cone
        vals, vecs = np.linalg.eigh(r)
        r = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        return 0.5 * (r + r.conj().T)

    raise ValueError(f"unknown correlation model {model!r}")


@dataclass(eq=False)
class ChannelEnsemble:
    """Per-user correlation matrices plus the average SNR (the statistical CSI)."""

    correlations: np.ndarray
    snr_db: float

    def __post_init__(self):
        r = np.asarray(self.correlations, dtype=complex)
        if r.ndim != 3 or r.shape[1] != r.shape[2]:
            raise ValueError(f"correlations must be (K, N, N), got {r.shape}")
        herm_err = np.max(np.abs(r - np.conj(np.transpose(r, (0, 2, 1)))))
        if herm_err > 1e-12:
            raise ValueError(f"correlation matrices not Hermitian (residual {herm_err:.2e})")
        cleaned = np.empty_like(r)
        for k in range(r.shape[0]):
            vals, vecs = np.linalg.eigh(r[k])
            if vals.min() < -1e-10:
                raise ValueError(f"correlation {k} has eigenvalue {vals.min():.2e} < -1e-10")
            vals = np.clip(vals, 0.0, None)
            if vals.sum() <= 0.0:
                raise ValueError(f"correlation {k} has non-positive trace")
            m = (vecs * vals) @ vecs.conj().T
            cleaned[k] = 0.5 * (m + m.conj().T)
        self.correlations = cleaned
        self._sqrt = None

    @property
    def K(self) -> int:
        return self.correlations.shape[0]

    @property
    def N(self) -> int:
        return self.correlations.shape[1]

    @property
    def gamma_bar(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    def with_snr_db(self, snr_db: float) -> "ChannelEnsemble":
        """The same ensemble at another average SNR.

        The copy shares the already cleaned correlations and the square-root
        cache instead of cleaning them again.
        """
        out = copy.copy(self)
        out.snr_db = float(snr_db)
        return out

    def sqrt_correlations(self) -> np.ndarray:
        """Hermitian PSD square roots R_k^{1/2} (cached)."""
        if self._sqrt is None:
            out = np.empty_like(self.correlations)
            for k in range(self.K):
                vals, vecs = np.linalg.eigh(self.correlations[k])
                out[k] = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
            self._sqrt = out
        return self._sqrt


def make_ensemble(
    k: int,
    n: int,
    snr_db: float,
    *,
    model: str = "exponential",
    seed: int = 0,
    rho: float = 0.7,
    spread: float = 0.1745,
) -> ChannelEnsemble:
    """Draw K per-user correlation matrices from one model family.

    ``exponential`` draws a per-user phase progression mu_k uniform on
    (-pi, pi]; ``local_scattering`` draws a per-user nominal angle uniform on
    (-pi/2, pi/2). Generation is deterministic in (model, seed).
    """
    rng = np.random.default_rng(seed)
    if model == "exponential":
        mats = [make_correlation("exponential", n, rho=rho, mu=float(m))
                for m in rng.uniform(-np.pi, np.pi, k)]
    elif model == "local_scattering":
        mats = [make_correlation("local_scattering", n, angle=float(a), spread=spread)
                for a in rng.uniform(-np.pi / 2, np.pi / 2, k)]
    else:
        raise ValueError(f"unknown correlation model {model!r}")
    return ChannelEnsemble(np.stack(mats), float(snr_db))


def _forms(ensemble: ChannelEnsemble, v: np.ndarray) -> np.ndarray:
    """The K quadratic forms v^H R_k v of one vector, unchecked."""
    return np.real(np.einsum("i,kij,j->k", np.conj(v), ensemble.correlations, v))


def _nulled(ensemble: ChannelEnsemble, q: np.ndarray, norm_sq: float) -> np.ndarray:
    """Which forms q[..., k] of vectors of squared norm ``norm_sq`` null user k.

    A form nulls its user when it is at or below 1e-12 * trace(R_k) * norm_sq / N.
    _checked_forms and the GA's scorer share this one test.
    """
    traces = np.real(np.trace(ensemble.correlations, axis1=1, axis2=2))
    return q <= _NULL_EPS * traces / (ensemble.N / norm_sq)


def _checked_forms(ensemble: ChannelEnsemble, v: np.ndarray, norm_sq: float) -> np.ndarray:
    """Quadratic forms v^H R_k v of a vector whose squared norm is ``norm_sq``.

    Raises NulledUserError when _nulled flags any form: the multicast rate
    is then zero and optimizers must treat the configuration as worst-case.
    quadratic_forms passes f (norm_sq 1), the surrogate objectives pass phi
    (norm_sq N).
    """
    if v.size != ensemble.N:
        raise ValueError(f"phase vector has {v.size} entries, ensemble has N={ensemble.N}")
    q = _forms(ensemble, v)
    nulled = _nulled(ensemble, q, norm_sq)
    if np.any(nulled):
        raise NulledUserError(f"users {np.nonzero(nulled)[0].tolist()} are nulled by the beamformer")
    return q


def quadratic_forms(ensemble: ChannelEnsemble, phases: PhaseVector) -> np.ndarray:
    """Per-user beamforming gains q_k = f^H R_k f (>= 0, SNR-normalized)."""
    return _checked_forms(ensemble, phases.f, 1.0)


def effective_snrs(ensemble: ChannelEnsemble, phases: PhaseVector) -> np.ndarray:
    """Per-user average SNRs gamma_k = gamma_bar * f^H R_k f."""
    return ensemble.gamma_bar * quadratic_forms(ensemble, phases)


def min_snr_law(gammas) -> float:
    """Mean gamma_non of min_k gamma_k for independent exponentials with means gammas.

    The minimum is exponential with the harmonic composite mean
    gamma_non = (sum_k 1/gamma_k)^{-1}, which fixes its law.
    """
    g = np.asarray(gammas, dtype=float)
    if g.size == 0 or np.any(g <= 0.0):
        raise ValueError("per-user SNRs must be positive")
    return float(1.0 / np.sum(1.0 / g))


@dataclass(eq=False)
class MrcLaw:
    """Gamma-series law of the summed SNR gamma_mrc = sum_k gamma_k.

    The density is a mixture of Erlang/gamma components with common scale
    gamma_min: sum_l c_l * Gamma(K + l, gamma_min) for l = 0..L (Moschopoulos
    1985, Ann. Inst. Stat. Math. 37:541). With beta_k = 1 - gamma_min/gamma_k
    in [0, 1), the mixture masses coeffs[l] = c_l are the coefficients of z^l
    in prod_k (1 - beta_k) / (1 - beta_k z), so they lie in [0, 1] and the
    full series sums to 1. tail_bound is the exact mass left out by the
    truncation, 1 - sum(coeffs), in [0, tol).
    """

    gammas: np.ndarray
    gamma_min: float
    L: int
    tail_bound: float
    coeffs: np.ndarray

    @property
    def K(self) -> int:
        return self.gammas.size

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x).astype(float)
        out = np.zeros_like(x)
        pos = x > 0.0
        if pos.any():
            xl = x[pos]
            l = np.arange(self.L + 1)
            shape = self.K + l
            with np.errstate(divide="ignore"):
                logc = np.where(self.coeffs > 0.0, np.log(self.coeffs), -np.inf)
            # one (L+1, x) array, built in place: each element gets the same
            # terms in the same order as logc + (shape - 1) ln x - x / gamma_min
            # - shape ln gamma_min - ln Gamma(shape), as addition commutes
            logt = np.multiply.outer(shape - 1.0, np.log(xl))
            logt += logc[:, None]
            logt -= xl / self.gamma_min
            logt -= (shape * math.log(self.gamma_min))[:, None]
            logt -= log_gamma_range(self.K, self.K + self.L + 1)[:, None]
            out[pos] = np.exp(logt, out=logt).sum(axis=0)
        if self.K == 1 and np.any(x == 0.0):
            out[x == 0.0] = self.coeffs[0] / self.gamma_min
        return float(out[0]) if scalar else out


def mrc_law(gammas, tol: float = 1e-10) -> MrcLaw:
    """Build the summed-SNR law, truncating once the left-out mass is < tol.

    The masses c_l are the coefficients of c_0 prod_k 1 / (1 - beta_k z),
    c_0 = prod_k (1 - beta_k), so a cascade of first-order recursions gives
    them: y_0[l] = c_0 delta[l], y_k[l] = y_{k-1}[l] + beta_k y_k[l-1], and
    c_l = y_K[l]. The cascade advances _CASCADE_BLOCK terms at a time: each
    user in turn runs its recursion over the block, from the value it ended
    the last block with, on the block its predecessor just produced. That is
    O(K L) in all, and every y_k[l] is the same product and sum as in a sweep
    that advances all K recursions one term at a time, so the masses are
    bitwise those of that sweep. A user with beta_k = 0 leaves the cascade
    unchanged and is skipped. Every term is a sum of nonnegative numbers, so
    nothing cancels and each c_l keeps its relative accuracy however small it
    is. The masses are then summed in order, and the series stops at the
    first one after which 1 minus the sum is below tol; the terms of the
    block past it are dropped. The truncation bound is exact: the full masses
    sum to one, so the remainder is 1 minus the accumulated mass. At most
    _MAX_SERIES_TERMS + 1 masses are computed; a law that needs more raises
    TruncationError.
    """
    g = np.asarray(gammas, dtype=float)
    if g.size == 0 or (g <= 0.0).any():
        raise ValueError("per-user SNRs must be positive")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    gmin = float(g.min())
    ratios = gmin / g
    beta = [b for b in (1.0 - ratios).tolist() if b > 0.0]  # each in (0, 1)

    c0 = float(np.exp(np.log(ratios).sum()))
    coeffs = [c0]
    ends = [c0] * len(beta)  # y_k at the last term computed
    acc = c0
    while 1.0 - acc >= tol:
        if len(coeffs) > _MAX_SERIES_TERMS:
            raise TruncationError(
                f"gamma series needs more than {_MAX_SERIES_TERMS} terms to reach "
                f"tail mass {tol} (extreme SNR disparity)"
            )
        n = min(_CASCADE_BLOCK, _MAX_SERIES_TERMS + 1 - len(coeffs))
        # the first user has no input past l = 0: y_0[l] = beta_0 y_0[l-1]
        y = list(accumulate(repeat(beta[0], n), mul, initial=ends[0]))[1:]
        ends[0] = y[-1]
        for k in range(1, len(beta)):
            # y_k[l] = y_{k-1}[l] + beta_k y_k[l-1], with y_k[l-1] read back from
            # out: extend appends each sum before map reads the next item of out,
            # and map stops with y, before it would read past the end of out
            out = [ends[k]]
            out.extend(map(add, y, map(mul, repeat(beta[k]), out)))
            y = out[1:]
            ends[k] = y[-1]
        sums = list(accumulate(y, initial=acc))
        # 1 - sum only falls as masses are added, so a bisection finds the first
        # mass that ends the series; it returns n + 1 when no mass of the block does
        stop = min(bisect_left(sums, True, 1, key=lambda a: 1.0 - a < tol), n)
        coeffs += y[:stop]
        acc = sums[stop]

    return MrcLaw(
        gammas=g.copy(),
        gamma_min=gmin,
        L=len(coeffs) - 1,
        tail_bound=max(1.0 - acc, 0.0),
        coeffs=np.asarray(coeffs),
    )
