"""Mutual information and MMSE of a finite alphabet on the scalar Gaussian channel.

The channel is Y = sqrt(g) X + N with N ~ CN(0, 1) and X equiprobable over a
unit-energy alphabet. Mutual information is measured in bits. The mmse returned
here is the derivative of that bit-measured information, i.e. the conditional
estimation error E{|X - E[X|Y]|^2} divided by ln 2, so

    d/dg mi(g) == mmse(g)

holds without unit bookkeeping downstream. (In natural units the zero-SNR limit
of the raw error is E|X|^2 = 1; in this bit convention it is 1/ln 2.)

The complex-plane integrals are Gauss-Hermite sums after shifting the
integration variable to the noise, u = sqrt(g) x_m + n, which leaves a smooth
log-sum-exp of likelihood ratios against the standard complex Gaussian measure.
The reference sum is the tensor product of two rules, one per real dimension,
over every pair of symbols: M^2 * order^2 terms per SNR. The evaluators compute
exactly that sum, up to rounding, from the structure of the alphabet:

- A Cartesian product of real and imaginary levels (square QAM; BPSK, whose
  imaginary parts are rounding) splits each exponent into a real-axis and an
  imaginary-axis part. The log-sum-exp and the posterior then factor, and the
  tensor sum is the sum of two 1-D Gauss-Hermite sums, one per axis with noise
  N(0, 1/2): 2 * M * order terms. A square QAM is two PAM channels.
- Every other alphabet keeps the tensor grid. The 8 symmetries z -> j^k z and
  z -> j^k conj(z) map the grid and its weights onto themselves, so a symbol's
  term is the same for every point of its orbit under the symmetries that also
  map the alphabet onto itself. One representative per orbit, weighted by the
  orbit size, gives the sum: 8-PSK evaluates 2 symbols, an alphabet without
  symmetry all M. The representatives are evaluated one at a time, so memory
  stays at M * order^2 doubles.

Grid points of an InfoTable are mutually independent, so table construction
parallelizes trivially; tables are immutable once built.

For g * d_min^2 roughly in (1.5, 130) the integrand develops decision-boundary
layers of width ~ 1/(sqrt(g) d_min) that a fixed-order rule under-resolves, so
the evaluators silently raise the effective order there (never lowering the
requested one, capped at 200). Outside the band the boundary contributions are
below double precision and the requested order is used as-is.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from .constellation import Constellation, constellation_from_json, constellation_to_json
from .quadrature import gauss_hermite

__all__ = [
    "mutual_information",
    "mmse",
    "mi_curve",
    "mmse_curve",
    "InfoTable",
    "DirectInfo",
    "build_table",
    "interpolate_mi",
    "save_info_table",
    "load_info_table",
]

_LN2 = math.log(2.0)
# Floor keeping tabulated mmse strictly positive after underflow at extreme SNR.
_MMSE_FLOOR = 1e-300

_TABLE_FORMAT_VERSION = 1

# Structure detection treats points closer than this multiple of d_min as equal.
_STRUCTURE_TOL = 1e-9


@lru_cache(maxsize=32)
def _noise_rule(hermite_order: int, dims: int):
    """Gauss-Hermite rule for CN(0, 1) noise on ``dims`` real dimensions.

    Each dimension is N(0, 1/2), whose density is exp(-x^2) / sqrt(pi). Returns
    (nodes, weights): nodes as a (dims, order^dims) array of coordinates (real
    part first), weights summing to 1. Two dimensions take the tensor product.
    """
    rule = gauss_hermite(hermite_order)
    x, w = rule.nodes, rule.weights / math.sqrt(math.pi)
    if dims == 1:
        return x[None, :], w
    return np.stack((np.repeat(x, x.size), np.tile(x, x.size))), np.outer(w, w).ravel()


def _effective_order(requested: int, gamma: float, d_min: float, band_order: int) -> int:
    """Order used at this SNR: flat maximum inside the boundary-layer band.

    A single in-band order (rather than one graded with SNR) keeps the rule
    locally constant in gamma, so finite differences of the computed mutual
    information never straddle a quadrature switch.
    """
    x = gamma * d_min * d_min
    if 1.5 < x < 130.0:
        return max(requested, band_order)
    return requested


def _levels(values: np.ndarray, tol: float):
    """Distinct values, merged when closer than tol, and the level index of each value."""
    order = np.argsort(values, kind="stable")
    first = np.concatenate(([True], np.diff(values[order]) > tol))
    index = np.empty(values.size, dtype=int)
    index[order] = np.cumsum(first) - 1
    return values[order][first], index


@lru_cache(maxsize=32)
def _blocks(points_bytes: bytes, d_min: float):
    """Split the alphabet average into independent quadrature blocks.

    Each block is (sent, alphabet, share): real coordinates of the transmitted
    symbols and of the alphabet as (rows, dims) arrays, and the weight of each
    transmitted symbol in the total. A Cartesian product of real and imaginary
    levels gives two 1-D blocks, one per axis. Any other alphabet gives one 2-D
    block per orbit under those of the 8 grid symmetries that map it onto
    itself, weighted by the orbit size; without symmetry every point is its
    own orbit. Points closer than _STRUCTURE_TOL * d_min count as equal, which
    absorbs rounding such as the ~1e-16 imaginary parts of BPSK.
    """
    points = np.frombuffer(points_bytes, dtype=np.complex128)
    size = points.size
    tol = _STRUCTURE_TOL * d_min
    re, re_index = _levels(points.real, tol)
    im, im_index = _levels(points.imag, tol)
    if re.size * im.size == size and np.unique(re_index * im.size + im_index).size == size:
        return tuple((v[:, None], v[:, None], np.full(v.size, 1.0 / v.size)) for v in (re, im))

    perms = []
    # images under the 8 symmetries of the square grid: j^k z and j^k conj(z)
    for image in (w * 1j**k for w in (points, points.conj()) for k in range(4)):
        dist = np.abs(image[:, None] - points[None, :])
        perm = dist.argmin(axis=1)
        if dist[np.arange(size), perm].max() <= tol:
            perms.append(perm)
    coords = np.stack((points.real, points.imag), axis=1)
    blocks = []
    seen = np.zeros(size, dtype=bool)
    for m in range(size):
        if not seen[m]:
            # the symmetries found form a group, so the images of m are its orbit
            orbit = np.unique([perm[m] for perm in perms])
            seen[orbit] = True
            blocks.append((coords[m : m + 1], coords, np.array([orbit.size / size])))
    return tuple(blocks)


def _exponents(sent: np.ndarray, alphabet: np.ndarray, gamma: float, nodes: np.ndarray) -> np.ndarray:
    """E[t, m', i] = |n_i|^2 - |n_i + sqrt(g)(x_t - x_m')|^2 in real coordinates."""
    d = sent[:, None, :] - alphabet[None, :, :]
    e = (-2.0 * math.sqrt(gamma) * d) @ nodes
    e -= (gamma * (d * d).sum(axis=2))[:, :, None]
    return e


def _log_partition_sums(sent, alphabet, gamma, nodes, weights) -> np.ndarray:
    """sum_i w_i log sum_m' exp(E[t, m', i]) for each transmitted symbol."""
    e = _exponents(sent, alphabet, gamma, nodes)
    # the m' == m term is 0, so the shift is >= 0 and keeps the sum exact
    shift = e.max(axis=1)
    e -= shift[:, None, :]
    np.exp(e, out=e)
    return (np.log(e.sum(axis=1)) + shift) @ weights


def _error_sums(sent, alphabet, gamma, nodes, weights) -> np.ndarray:
    """sum_i w_i |x_t - E[X | n_i]|^2 for each transmitted symbol."""
    post = _exponents(sent, alphabet, gamma, nodes)
    post -= post.max(axis=1, keepdims=True)
    np.exp(post, out=post)
    post /= post.sum(axis=1, keepdims=True)
    err = sent[:, :, None] - alphabet.T @ post
    return (err * err).sum(axis=1) @ weights


def _quadrature_sum(c: Constellation, gammas: np.ndarray, hermite_order: int, band_order: int, term) -> np.ndarray:
    """Alphabet average of ``term`` at each SNR, block by block.

    Memory per step is one block's exponent array: (levels^2 * order) on an
    axis, (M * order^2) for one orbit representative.
    """
    blocks = _blocks(c.points.tobytes(), c.d_min)
    out = np.zeros(gammas.shape)
    for i, g in enumerate(gammas.tolist()):
        order = _effective_order(hermite_order, g, c.d_min, band_order)
        for sent, alphabet, share in blocks:
            nodes, weights = _noise_rule(order, alphabet.shape[1])
            out[i] += share @ term(sent, alphabet, g, nodes, weights)
    return out


def _check_args(gamma: float, hermite_order: int) -> None:
    if gamma < 0.0:
        raise ValueError(f"snr must be >= 0, got {gamma}")
    if not 10 <= hermite_order <= 200:
        raise ValueError(f"hermite_order must be in [10, 200], got {hermite_order}")


def mutual_information(c: Constellation, gamma: float, hermite_order: int = 40) -> float:
    """Mutual information in bits at linear SNR ``gamma``."""
    _check_args(gamma, hermite_order)
    return float(_mi_at(c, np.asarray([gamma]), hermite_order)[0])


def mmse(c: Constellation, gamma: float, hermite_order: int = 40) -> float:
    """Bit-convention MMSE (conditional error / ln 2) at linear SNR ``gamma``.

    Underflows to 0.0 once the error drops below double precision.
    """
    _check_args(gamma, hermite_order)
    return float(_mmse_at(c, np.asarray([gamma]), hermite_order)[0])


def _mi_at(c: Constellation, gammas: np.ndarray, hermite_order: int, band_order: int = 120) -> np.ndarray:
    penalty = _quadrature_sum(c, gammas, hermite_order, band_order, _log_partition_sums)
    return np.clip(c.bits - penalty / _LN2, 0.0, c.bits)


def _mmse_at(c: Constellation, gammas: np.ndarray, hermite_order: int, band_order: int = 120) -> np.ndarray:
    return _quadrature_sum(c, gammas, hermite_order, band_order, _error_sums) / _LN2


def mi_curve(c: Constellation, gammas, hermite_order: int = 40, *, band_order: int = 120) -> np.ndarray:
    """Vectorized mutual_information over an array of SNRs.

    ``band_order`` sets the boundary-layer escalation target; raise it when
    downstream consumers integrate the values to below ~1e-7 absolute.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    if np.any(gammas < 0.0):
        raise ValueError("snr values must be >= 0")
    _check_args(0.0, hermite_order)
    return _mi_at(c, gammas, hermite_order, band_order)


def mmse_curve(c: Constellation, gammas, hermite_order: int = 40, *, band_order: int = 120) -> np.ndarray:
    """Vectorized mmse over an array of SNRs."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    if np.any(gammas < 0.0):
        raise ValueError("snr values must be >= 0")
    _check_args(0.0, hermite_order)
    return _mmse_at(c, gammas, hermite_order, band_order)


@dataclass(eq=False)
class InfoTable:
    """Tabulated MI/MMSE curves on a log-SNR grid with monotone interpolation.

    The MI interpolant is a shape-preserving cubic Hermite on the log10-SNR
    axis whose knot slopes come from the tabulated mmse (the exact derivative
    of MI), clamped Fritsch-Carlson style so monotonicity is guaranteed; the
    exact slopes shrink the inter-knot error to O(h^4). Lookups below the grid
    extrapolate linearly through the origin with the smallest-grid slope;
    lookups above the grid saturate at log2(M). Both match the exact anchors
    mi(0) = 0 and mi(inf) = log2(M).
    """

    constellation: Constellation
    snr_grid: np.ndarray
    mi_values: np.ndarray
    mmse_values: np.ndarray
    hermite_order: int
    db_min: float
    db_max: float
    points_per_decade: int
    _mi_spline: CubicHermiteSpline | None = field(default=None, repr=False)
    _mmse_pchip: PchipInterpolator | None = field(default=None, repr=False)

    def key(self) -> dict:
        return {
            "constellation_label": self.constellation.label,
            "db_min": self.db_min,
            "db_max": self.db_max,
            "points_per_decade": self.points_per_decade,
            "hermite_order": self.hermite_order,
        }

    def _interp_mi(self):
        if self._mi_spline is None:
            u = np.log10(self.snr_grid)
            y = self.mi_values
            # d(mi)/d(log10 g) = mmse(g) * g * ln(10), clamped for monotonicity
            s = self.mmse_values * self.snr_grid * math.log(10.0)
            d = np.diff(y) / np.diff(u)
            for i in range(d.size):
                if d[i] == 0.0:
                    s[i] = s[i + 1] = 0.0
                else:
                    s[i] = min(s[i], 3.0 * d[i])
                    s[i + 1] = min(s[i + 1], 3.0 * d[i])
            self._mi_spline = CubicHermiteSpline(u, y, s)
        return self._mi_spline

    def _interp_mmse(self):
        if self._mmse_pchip is None:
            self._mmse_pchip = PchipInterpolator(np.log10(self.snr_grid), self.mmse_values)
        return self._mmse_pchip

    def mi(self, gamma):
        """Interpolated mutual information in bits (scalar in, scalar out)."""
        g = np.asarray(gamma, dtype=float)
        scalar = g.ndim == 0
        g = np.atleast_1d(g)
        out = np.empty(g.shape)
        lo, hi = self.snr_grid[0], self.snr_grid[-1]
        below = g < lo
        above = g > hi
        mid = ~(below | above)
        out[below] = g[below] * (self.mi_values[0] / lo)
        out[above] = self.constellation.bits
        if mid.any():
            out[mid] = np.clip(self._interp_mi()(np.log10(g[mid])), 0.0, self.constellation.bits)
        return float(out[0]) if scalar else out

    def mmse(self, gamma):
        """Interpolated bit-convention MMSE, clamped to the grid endpoints."""
        g = np.asarray(gamma, dtype=float)
        scalar = g.ndim == 0
        g = np.clip(np.atleast_1d(g), self.snr_grid[0], self.snr_grid[-1])
        out = np.maximum(self._interp_mmse()(np.log10(g)), _MMSE_FLOOR)
        return float(out[0]) if scalar else out


def build_table(
    c: Constellation,
    db_min: float,
    db_max: float,
    points_per_decade: int,
    hermite_order: int = 40,
    *,
    band_order: int = 200,
) -> InfoTable:
    """Tabulate both curves on a log-spaced SNR grid.

    The grid spans [db_min, db_max] with points_per_decade points per 10 dB.
    Tabulated values default to the highest boundary-layer order because
    averaging quadratures downstream resolve the stored curves to ~1e-9.
    """
    if db_min >= db_max:
        raise ValueError(f"need db_min < db_max, got {db_min} >= {db_max}")
    if points_per_decade < 10:
        raise ValueError(f"points_per_decade must be >= 10, got {points_per_decade}")
    n_points = int(round((db_max - db_min) / 10.0 * points_per_decade)) + 1
    grid_db = np.linspace(db_min, db_max, n_points)
    snr = 10.0 ** (grid_db / 10.0)

    mi = mi_curve(c, snr, hermite_order, band_order=band_order)
    mm = mmse_curve(c, snr, hermite_order, band_order=band_order)
    # guard fp wiggle so the stored curves satisfy the monotonicity contract
    mi = np.maximum.accumulate(np.clip(mi, 0.0, c.bits))
    mm = np.minimum.accumulate(np.maximum(mm, _MMSE_FLOOR))

    return InfoTable(
        constellation=c,
        snr_grid=snr,
        mi_values=mi,
        mmse_values=mm,
        hermite_order=hermite_order,
        db_min=float(db_min),
        db_max=float(db_max),
        points_per_decade=int(points_per_decade),
    )


def interpolate_mi(table: InfoTable, gamma):
    """Free-function alias of InfoTable.mi."""
    return table.mi(gamma)


class DirectInfo:
    """Uninterpolated MI evaluator sharing the InfoTable lookup interface.

    Trades speed for exactness; use where interpolation error would contaminate
    small high-SNR gaps.
    """

    def __init__(self, constellation: Constellation, hermite_order: int = 40):
        self.constellation = constellation
        self.hermite_order = hermite_order

    def mi(self, gamma):
        g = np.asarray(gamma, dtype=float)
        scalar = g.ndim == 0
        vals = _mi_at(self.constellation, np.atleast_1d(g), self.hermite_order)
        return float(vals[0]) if scalar else vals

    def mmse(self, gamma):
        g = np.asarray(gamma, dtype=float)
        scalar = g.ndim == 0
        vals = _mmse_at(self.constellation, np.atleast_1d(g), self.hermite_order)
        return float(vals[0]) if scalar else vals


def save_info_table(table: InfoTable, path) -> None:
    """Write a versioned JSON cache file for the table."""
    payload = {
        "format_version": _TABLE_FORMAT_VERSION,
        "key": table.key(),
        "constellation": {
            "label": table.constellation.label,
            "points": constellation_to_json(table.constellation),
        },
        "snr_grid": table.snr_grid.tolist(),
        "mi_values": table.mi_values.tolist(),
        "mmse_values": table.mmse_values.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_info_table(path, expected_key: dict | None = None) -> InfoTable | None:
    """Load a cached table; returns None on a missing file or any key mismatch."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, OSError):
        return None
    if payload.get("format_version") != _TABLE_FORMAT_VERSION:
        return None
    key = payload.get("key", {})
    if expected_key is not None and key != expected_key:
        return None
    c = constellation_from_json(
        payload["constellation"]["points"], label=payload["constellation"]["label"]
    )
    return InfoTable(
        constellation=c,
        snr_grid=np.asarray(payload["snr_grid"]),
        mi_values=np.asarray(payload["mi_values"]),
        mmse_values=np.asarray(payload["mmse_values"]),
        hermite_order=int(key["hermite_order"]),
        db_min=float(key["db_min"]),
        db_max=float(key["db_max"]),
        points_per_decade=int(key["points_per_decade"]),
    )
