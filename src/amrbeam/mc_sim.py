"""Monte Carlo oracle for the analytic rate machinery.

Samples correlated Rayleigh channels h_k = R_k^(1/2) g_k with standard complex
Gaussian g_k and forms the unit-SNR gains |h_k^H f|^2. The instantaneous SNR
at average SNR gamma_bar is gamma_bar times that gain, so one draw set serves
a whole SNR grid: ``mc_amr`` draws the channels once per (phase vector, seed)
and keeps, per sample, only the minimum (non-cooperative) and the sum
(cooperative) of the gains over users, 2 doubles per sample whatever K is and
however many SNRs are asked for. Each (SNR, scenario) estimate is then the
average interpolated mutual information of gamma_bar times one of those
columns, reduced over fixed chunks of samples whose sums are combined with
math.fsum.

Each sample's normals are consecutive in the generator's stream and draw
chunks are bounded in bytes, not samples, so the draws do not depend on the
chunk size. Estimates are therefore bitwise reproducible for a given
(seed, n), and an estimate does not depend on which other SNRs or scenarios
share its draws. Estimates that share draws have correlated errors.

The working set is fixed, whatever ran before in the process. While drawing
it is one reused buffer of _DRAW_NORMALS doubles (512 KB) and the n-long
minimum and sum columns; while reducing, the columns and one reused value
buffer of min(n, _CHUNK) doubles (up to 1 MB). From 2^16 samples on the
value buffer is the larger, so the draws do not set the peak. Each draw chunk's gains go straight into the columns: the minimum as
K - 1 elementwise minima of its user columns, the sum as numpy's row sum. A
reduction chunk's values fill the value buffer through interpolant calls on
blocks of _BLOCK samples, whose temporaries (64 KB each) stay below glibc's
default mmap threshold; once the values are summed, their squares overwrite
them. Fresh multi-megabyte chunks instead land in the heap or in new
mappings depending on the threshold that earlier frees have set, and a
process could then hold two draw chunks at once. The interpolant is
elementwise and the reduction chunks are unchanged, so the block size does
not change any sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel_model import ChannelEnsemble, PhaseVector

__all__ = ["McEstimate", "mc_amr"]

# samples per reduction chunk; fixed, because it sets the partial sums fsum adds
_CHUNK = 1 << 17
# samples per interpolation call: its temporaries (64 KB each) stay below
# glibc's mmap threshold, so they reuse heap instead of faulting in new pages
_BLOCK = 1 << 13
# real normals per draw chunk (512 KB), whatever K and N are; the draws do not
# depend on it
_DRAW_NORMALS = 1 << 16

_SCENARIOS = ("non_cooperative", "cooperative")


def _min_over_users(gains: np.ndarray, *, out: np.ndarray) -> None:
    """np.min(gains, axis=1) into ``out``, as K - 1 column minima.

    A minimum is exact in any order, so this is bitwise numpy's reduction, at
    about a tenth of its cost on the short rows of a draw chunk.
    """
    out[:] = gains[:, 0]
    for k in range(1, gains.shape[1]):
        np.minimum(out, gains[:, k], out=out)


# The sum stays numpy's row sum, not a chain of column additions: numpy adds a
# row of 8 or more users in interleaved partial sums, so a chain matched it
# bitwise for K <= 7 but not for K = 8, 9, 16 or 32.
_REDUCE = {"non_cooperative": _min_over_users, "cooperative": partial(np.sum, axis=1)}


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 10_000:
            raise ValueError(f"need at least 1e4 samples, got {self.n_samples}")


def _gain_chunks(ensemble: ChannelEnsemble, phases: PhaseVector, n: int, seed: int):
    """Yield (chunk, K) arrays of unit-SNR gains |h_k^H f|^2."""
    # f^H h_k = f^H R_k^(1/2) g_k = <a_k, g_k> with a_k = R_k^(1/2) f
    a_conj = np.conj(np.einsum("kij,j->ki", ensemble.sqrt_correlations(), phases.f))
    rng = np.random.default_rng(seed)
    k, nn = ensemble.K, ensemble.N
    rows = max(1, min(n, _DRAW_NORMALS // (2 * k * nn)))
    # one buffer for every chunk: the draws fill it in stream order
    buf = np.empty((rows, k, nn, 2))
    for start in range(0, n, rows):
        m = min(rows, n - start)
        g = rng.standard_normal(out=buf[:m]).view(np.complex128)[..., 0]
        z = np.einsum("mki,ki->mk", g, a_conj)
        # unit-variance real and imaginary parts make E|z|^2 twice the mean gain
        yield 0.5 * (z.real**2 + z.imag**2)


def _estimate(info, gamma_bar: float, snr: np.ndarray, seed: int, work: np.ndarray) -> McEstimate:
    """Mean MI at gamma_bar * snr; ``work`` holds min(n, _CHUNK) doubles."""
    n = len(snr)
    sums = []
    sq_sums = []
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        vals = work[: stop - start]
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            vals[lo - start : hi - start] = info.mi(gamma_bar * snr[lo:hi])
        sums.append(float(vals.sum()))
        # the values are summed, so their squares may replace them
        sq_sums.append(float(np.square(vals, out=vals).sum()))
    mean = math.fsum(sums) / n
    var = max(math.fsum(sq_sums) - n * mean * mean, 0.0) / (n - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(var / n), n_samples=n, seed=seed)


def mc_amr(
    ensemble: ChannelEnsemble,
    phases: PhaseVector,
    info,
    gamma_bars,
    n: int,
    seed: int,
    scenarios=_SCENARIOS,
) -> dict:
    """Empirical average multicast rates with standard errors on an SNR grid.

    Draws n channels once, at unit SNR, and evaluates them at every linear
    average SNR in ``gamma_bars``. Each scenario selects the per-sample SNR
    reduction: the minimum over users (each decodes alone) or the sum (joint
    maximal-ratio detection). Returns {scenario: (McEstimate per entry of
    gamma_bars)}. All estimates share the draws, so min <= sum and the SNR
    ordering hold pathwise and their errors are correlated; each equals the
    estimate computed alone with the same seed and n.
    """
    unknown = [s for s in scenarios if s not in _SCENARIOS]
    if unknown:
        raise ValueError(f"scenario must be one of {_SCENARIOS}, got {unknown[0]!r}")
    if n < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {n}")
    reduced = {s: np.empty(n) for s in scenarios}
    start = 0
    for gains in _gain_chunks(ensemble, phases, n, seed):
        stop = start + len(gains)
        for s, col in reduced.items():
            _REDUCE[s](gains, out=col[start:stop])
        start = stop
    work = np.empty(min(n, _CHUNK))
    return {
        s: tuple(_estimate(info, float(gb), col, seed, work) for gb in gamma_bars)
        for s, col in reduced.items()
    }
