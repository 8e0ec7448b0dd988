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
  symmetry all M. The representatives are evaluated one at a time.
- The same argument folds each representative's grid. Its stabilizer, the
  symmetries above that also fix it, leaves its term unchanged, so the grid
  sum is a sum over one node per stabilizer orbit, weighted by the orbit
  size. At order 200, 8-PSK sums 20 000 + 20 100 nodes instead of 2 * 40 000,
  16-PSK 20 000 + 40 000 + 20 100 instead of 3 * 40 000, and a point at the
  origin, fixed by all 8 symmetries, 5 050. The sums are those of the full
  grid up to rounding.
- Inside the boundary-layer band (below) the 2-D rules keep only the nodes
  of tensor weight >= _WEIGHT_FLOOR (1e-40), whole orbits at a time. At
  order 200 that leaves 10 532 of the 40 000 tensor nodes, 8-PSK 5 266 +
  5 307 and 16-PSK 5 266 + 10 532 + 5 307; at order 120 6 104 of 14 400.
  The dropped weights sum to < 1.1e-38 and their sum of w |n|^2 to < 1e-36,
  while a node's log-partition term is at most |n|^2 + ln M and its error
  term at most the squared diameter of the alphabet. In band every result
  is far larger: the smallest gap log2 M - mi measured on 4-, 8- and
  16-PSK and on a point at the origin with 4- or 8-PSK around it is
  8.7e-15 bits and the smallest MMSE 1.3e-15, both at the upper edge. So
  the dropped mass lies more than 15 orders of magnitude below one ulp of
  any in-band value, and the floored sums are the full ones up to
  rounding. Out of band every rule keeps all its nodes: above the band the
  small MMSE is carried by exactly these small-weight nodes. 1-D rules
  (at most 200 nodes) are never floored, so square QAM and BPSK are
  unaffected.

A kernel pass takes each run of consecutive SNRs with one effective rule
(order and floor) through each block in chunks: one exponent array per chunk,
which with its maximum and sum over the alphabet fits in _CHUNK_DOUBLES
(16384, 128 KB) doubles of one work buffer, allocated once per pass. A chunk
holds as many SNRs as fit, and always at least one: 51 on a 4-QAM axis block
at order 40, 2 and 1 on 8-PSK's two orbit blocks. A single SNR too large for
the buffer (an orbit representative at a high order: M times its folded node
count) gets arrays of its own. Every BLAS call acts on one SNR's slice, as it would for a single
SNR, so a value does not depend on the chunk it was computed in. The sums
over a 2-D rule's nodes are numpy's, not BLAS dot products, which OpenBLAS
splits across threads once they are long; so no value depends on the BLAS
thread count either.

Both sums come from that one exponent array: the log-partition sum of the MI
and, after normalizing the same array into the posterior, the error sum of the
MMSE. One kernel pass over an SNR array therefore yields both curves, and
mi_curve and mmse_curve are views on it. The last pass is kept,
keyed by the alphabet, the SNRs and the orders, so asking for the other curve
on the same array costs no kernel work; each call returns a fresh copy.

Grid points of an InfoTable are mutually independent, so table construction
parallelizes trivially; tables are immutable once built.

For g * d_min^2 in _BAND, (1.5, 130), the integrand develops decision-boundary
layers of width ~ 1/(sqrt(g) d_min) that a fixed-order rule under-resolves, so
the evaluators silently raise the effective order there (never lowering the
requested one, capped at 200). Outside the band the boundary contributions are
below double precision and the requested order is used as-is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constellation import Constellation
from .quadrature import gauss_hermite

__all__ = [
    "mi_curve",
    "mmse_curve",
    "InfoTable",
    "DirectInfo",
    "build_table",
]

_LN2 = math.log(2.0)
# Floor keeping tabulated mmse strictly positive after underflow at extreme SNR.
_MMSE_FLOOR = 1e-300

# Structure detection treats points closer than this multiple of d_min as equal.
_STRUCTURE_TOL = 1e-9

# Doubles of the work buffer: one chunk's exponent array and its maximum and
# sum over the alphabet. Against 4096 doubles, 16384 halves the 4-QAM node-set
# pass (1378 SNRs, 338 -> 80 chunks) at a peak RSS 0.007-0.03 MB higher on the
# three benchmark workloads (medians of 8 pairs); 65536 is a little faster
# again, at up to 0.05 MB more.
_CHUNK_DOUBLES = 16384

# The boundary-layer band: open interval of g * d_min^2 that takes the band order
_BAND = (1.5, 130.0)

# In band, the 2-D rules keep only the nodes of at least this tensor weight
_WEIGHT_FLOOR = 1e-40


@lru_cache(maxsize=32)
def _noise_rule(hermite_order: int):
    """Gauss-Hermite rule for one real dimension of CN(0, 1) noise, N(0, 1/2).

    Its density is exp(-x^2) / sqrt(pi). Returns (nodes, weights): nodes as a
    (1, order) array, weights summing to 1.
    """
    rule = gauss_hermite(hermite_order)
    return rule.nodes[None, :], rule.weights / math.sqrt(math.pi)


@lru_cache(maxsize=32)
def _folded_rule(hermite_order: int, stabilizer: tuple, floor: float):
    """The 2-D noise rule with one node per orbit of ``stabilizer``, of weight >= ``floor``.

    The tensor product of two _noise_rule rules is the rule for CN(0, 1).
    Symmetry s maps z to j^(s % 4) z, after conjugating z when s >= 4. The
    1-D rule is exactly symmetric (x = -x[::-1], w = w[::-1]), so each
    symmetry permutes the tensor grid and keeps its weights. A block's terms
    are invariant under its stabilizer, so the grid sum equals the sum over
    one node per orbit, weighted by the orbit size. At order n a stabilizer
    of order 2 leaves n^2 / 2 or n (n + 1) / 2 nodes; the full group of 8
    leaves about n^2 / 8. The trivial stabilizer leaves the tensor rule.
    Every node of an orbit has bitwise the same tensor weight, so the floor
    keeps or drops whole orbits; a floor of 0 keeps them all. The tensor
    grid is built here and not cached, so an order whose only rules are
    floored ones holds no full grid.
    """
    (x,), w = _noise_rule(hermite_order)
    n = hermite_order
    weights = np.outer(w, w).ravel()
    # node i * n + j sits at x_i + j x_j; its orbit is labelled by its least index
    i, j = np.divmod(np.arange(n * n), n)
    label = np.arange(n * n)
    for s in stabilizer:
        a, b = (i, n - 1 - j) if s >= 4 else (i, j)
        for _ in range(s % 4):
            a, b = n - 1 - b, a
        np.minimum(label, a * n + b, out=label)
    size = np.bincount(label, minlength=n * n)
    keep = (size > 0) & (weights >= floor)
    # orbit sizes are powers of 2, so scaling by them is exact
    return np.stack((x[i[keep]], x[j[keep]])), weights[keep] * size[keep]


def _block_rule(hermite_order: int, floor: float, stabilizer):
    """(nodes, weights) of a block of _blocks: a 1-D block ignores the floor."""
    if stabilizer is None:
        return _noise_rule(hermite_order)
    return _folded_rule(hermite_order, stabilizer, floor)


def _effective_rule(requested: int, gamma: float, d_min: float, band_order: int):
    """(order, floor) of the rules used at this SNR.

    Inside the boundary-layer band the order is the flat maximum and the 2-D
    rules drop the nodes of weight below _WEIGHT_FLOOR; outside it the
    requested order keeps every node. A single in-band order (rather than one
    graded with SNR) keeps the rule locally constant in gamma, so finite
    differences of the computed mutual information never straddle a
    quadrature switch.
    """
    lo, hi = _BAND
    if lo < gamma * d_min * d_min < hi:
        return max(requested, band_order), _WEIGHT_FLOOR
    return requested, 0.0


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

    Each block is (sent, alphabet, share, stabilizer): real coordinates of the
    transmitted symbols and of the alphabet as (rows, dims) arrays, the weight
    of each transmitted symbol in the total, and the grid symmetries that fold
    the block's noise rule. A Cartesian product of real and imaginary levels
    gives two 1-D blocks, one per axis, with stabilizer None. Any other
    alphabet gives one 2-D block per orbit under those of the 8 grid
    symmetries that map it onto itself, weighted by the orbit size; without
    symmetry every point is its own orbit. Its stabilizer is the tuple of
    those symmetries that also fix its representative, numbered as in
    _folded_rule. Points closer than _STRUCTURE_TOL * d_min count as equal,
    which absorbs rounding such as the ~1e-16 imaginary parts of BPSK.
    """
    points = np.frombuffer(points_bytes, dtype=np.complex128)
    size = points.size
    tol = _STRUCTURE_TOL * d_min
    re, re_index = _levels(points.real, tol)
    im, im_index = _levels(points.imag, tol)
    if re.size * im.size == size and len(set((re_index * im.size + im_index).tolist())) == size:
        return tuple((v[:, None], v[:, None], np.full(v.size, 1.0 / v.size), None) for v in (re, im))

    perms = {}
    # images under the 8 symmetries of the square grid: j^k z and j^k conj(z)
    for s in range(8):
        image = (points.conj() if s >= 4 else points) * 1j ** (s % 4)
        dist = np.abs(image[:, None] - points[None, :])
        perm = dist.argmin(axis=1)
        if dist[np.arange(size), perm].max() <= tol:
            perms[s] = perm
    coords = np.stack((points.real, points.imag), axis=1)
    blocks = []
    seen = np.zeros(size, dtype=bool)
    for m in range(size):
        if not seen[m]:
            # the symmetries found form a group, so the images of m are its orbit
            orbit = np.array(sorted({perm[m] for perm in perms.values()}))
            seen[orbit] = True
            stabilizer = tuple(s for s, perm in perms.items() if perm[m] == m)
            blocks.append((coords[m : m + 1], coords, np.array([orbit.size / size]), stabilizer))
    return tuple(blocks)


def _fused_terms(sent, alphabet, gammas, nodes, weights, work):
    """Both weighted noise sums of each SNR and transmitted symbol from one exponent array.

    With E[s, t, m', i] = |n_i|^2 - |n_i + sqrt(g_s)(x_t - x_m')|^2 in real
    coordinates, returns the (S, T) arrays sum_i w_i log sum_m' exp(E[s, t, m', i])
    and sum_i w_i |x_t - E[X | n_i]|^2. E and its maximum and sum over m' take
    S * T * (M' + 2) * n doubles of ``work``; a single SNR that needs more gets
    arrays of its own, none larger than its E. Each matmul acts slice by slice,
    so every value is the one a single SNR gives. A 1-D rule sums over its
    nodes with BLAS dot products, a 2-D rule with numpy sums.
    """
    s, t, m, n = gammas.size, sent.shape[0], alphabet.shape[0], nodes.shape[1]
    size = s * t * n
    if (m + 2) * size <= work.size:
        e = work[: m * size].reshape(s, t, m, n)
        shift, tot = work[m * size : (m + 2) * size].reshape(2, s, t, n)
    else:
        e, (shift, tot) = np.empty((s, t, m, n)), np.empty((2, s, t, n))
    d = sent[:, None, :] - alphabet[None, :, :]
    np.matmul((-2.0 * np.sqrt(gammas))[:, None, None, None] * d, nodes, out=e)
    e -= (gammas[:, None, None] * (d * d).sum(axis=2))[..., None]
    # the m' == m term is 0, so the shift is >= 0 and keeps the sum exact
    e.max(axis=2, out=shift)
    e -= shift[:, :, None, :]
    np.exp(e, out=e)
    e.sum(axis=2, out=tot)
    e /= tot[:, :, None, :]
    np.log(tot, out=tot)
    tot += shift
    # the error terms reuse one buffer: the same arithmetic in fewer arrays
    err = alphabet.T @ e
    np.subtract(sent[:, :, None], err, out=err)
    np.multiply(err, err, out=err)
    err = err.sum(axis=2)
    if nodes.shape[0] == 1:
        return tot @ weights, err @ weights
    # OpenBLAS splits long dot products across threads, so those over a 2-D
    # rule (up to 40 000 nodes) would depend on the thread count; numpy's
    # pairwise sums do not
    tot *= weights
    err *= weights
    return tot.sum(axis=2), err.sum(axis=2)


def _kernel_pass(c: Constellation, gammas: np.ndarray, hermite_order: int, band_order: int):
    """(mi, mmse) at each SNR: the alphabet average of _fused_terms, block by block.

    Each run of consecutive SNRs with one effective rule goes through each
    block in chunks of as many SNRs as fit in _CHUNK_DOUBLES, and at least one.
    A sorted grid has at most three runs, as the band is an interval.
    """
    blocks = _blocks(c.points.tobytes(), c.d_min)
    keys = [_effective_rule(hermite_order, g, c.d_min, band_order) for g in gammas.tolist()]
    # building a rule allocates far more than the pass, so it comes first
    rules = {key: [_block_rule(*key, block[3]) for block in blocks] for key in set(keys)}
    # the sums, which become the results in place, are allocated before the buffer
    penalty = np.zeros(gammas.shape)
    error = np.zeros(gammas.shape)
    work = np.empty(_CHUNK_DOUBLES)
    start = 0
    for key, run in itertools.groupby(keys):
        stop = start + sum(1 for _ in run)
        for (sent, alphabet, share, _), (nodes, weights) in zip(blocks, rules[key]):
            step = max(1, _CHUNK_DOUBLES // (sent.shape[0] * (alphabet.shape[0] + 2) * nodes.shape[1]))
            for lo in range(start, stop, step):
                i = slice(lo, min(lo + step, stop))
                log_part, err = _fused_terms(sent, alphabet, gammas[i], nodes, weights, work)
                # one dot per SNR, as for a single SNR
                penalty[i] += (share @ log_part[..., None])[:, 0]
                error[i] += (share @ err[..., None])[:, 0]
        start = stop
    np.divide(penalty, _LN2, out=penalty)
    np.subtract(c.bits, penalty, out=penalty)
    np.divide(error, _LN2, out=error)
    return np.clip(penalty, 0.0, c.bits, out=penalty), error


# the last kernel pass, keyed by content: {key: (mi, mmse)}
_LAST_PASS: dict = {}


def _curves(c: Constellation, gammas, hermite_order: int, *, band_order: int):
    """(mi, mmse) at ``gammas``, from the last pass when it ran on the same inputs."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    if gammas.ndim > 1:
        raise ValueError(f"snr values must be a scalar or a 1-D array, got shape {gammas.shape}")
    if not np.all((gammas >= 0.0) & (gammas < math.inf)):
        raise ValueError("snr values must be finite and >= 0")
    if not 10 <= hermite_order <= 200:
        raise ValueError(f"hermite_order must be in [10, 200], got {hermite_order}")
    key = (c.points.tobytes(), gammas.tobytes(), hermite_order, band_order)
    if key not in _LAST_PASS:
        _LAST_PASS.clear()
        _LAST_PASS[key] = _kernel_pass(c, gammas, hermite_order, band_order)
    return _LAST_PASS[key]


def mi_curve(c: Constellation, gammas, hermite_order: int = 40, *, band_order: int = 120) -> np.ndarray:
    """Mutual information in bits at each SNR of ``gammas`` (linear, >= 0).

    ``band_order`` sets the boundary-layer escalation target; raise it when
    downstream consumers integrate the values to below ~1e-7 absolute.
    """
    return _curves(c, gammas, hermite_order, band_order=band_order)[0].copy()


def mmse_curve(c: Constellation, gammas, hermite_order: int = 40, *, band_order: int = 120) -> np.ndarray:
    """Bit-convention MMSE (conditional error / ln 2) at each SNR of ``gammas``.

    Underflows to 0.0 once the error drops below double precision.
    """
    return _curves(c, gammas, hermite_order, band_order=band_order)[1].copy()


@dataclass(eq=False)
class InfoTable:
    """Tabulated MI/MMSE curves on a uniform log10-SNR grid, with a monotone
    cubic Hermite interpolant of the MI.

    On the log10-SNR axis u, the knot slopes are the exact derivative of MI,
    d(mi)/du = mmse(g) g ln 10, clamped Fritsch-Carlson style to 3 times each
    adjacent secant so that the interpolant is monotone; the exact slopes keep
    the inter-knot error O(h^4). Each interval's cubic is stored once in power
    form around its left knot. A lookup finds its interval arithmetically,
    floor((u - u_0) / step), which is why the grid must be uniform in log10
    (ValueError otherwise), and evaluates the cubic by Horner's rule. The
    values agree with scipy's CubicHermiteSpline on the same knots and slopes
    to 4.4e-16 on the 4-QAM and 8-PSK tables. Lookups below the grid extrapolate
    linearly through the origin with the smallest-grid slope; lookups above the
    grid saturate at log2(M). Both match the exact anchors mi(0) = 0 and
    mi(inf) = log2(M).
    """

    constellation: Constellation
    snr_grid: np.ndarray
    mi_values: np.ndarray
    mmse_values: np.ndarray
    _knots: np.ndarray = field(init=False, repr=False)
    _per_step: float = field(init=False, repr=False)
    _cubics: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.log10(self.snr_grid)
        n = u.size
        step = (u[-1] - u[0]) / (n - 1) if n > 1 else 0.0
        if not (step > 0.0 and np.all(np.abs(u - (u[0] + step * np.arange(n))) <= 1e-6 * step)):
            raise ValueError("snr_grid must have at least two points, uniformly spaced in log10")
        y = self.mi_values
        # d(mi)/d(log10 g) = mmse(g) * g * ln(10), clamped for monotonicity
        s = self.mmse_values * self.snr_grid * math.log(10.0)
        du = np.diff(u)
        secant = np.diff(y) / du
        s[:-1] = np.minimum(s[:-1], 3.0 * secant)
        s[1:] = np.minimum(s[1:], 3.0 * secant)
        # power form around the left knot: c3 s^3 + c2 s^2 + c1 s + c0
        bend = (s[:-1] + s[1:] - 2.0 * secant) / du
        self._knots = u
        self._per_step = 1.0 / step
        self._cubics = np.stack((bend / du, (secant - s[:-1]) / du - bend, s[:-1], y[:-1]))

    def mi(self, gamma):
        """Interpolated mutual information in bits (scalar in, scalar out)."""
        g = np.asarray(gamma, dtype=float)
        scalar = g.ndim == 0
        g = np.atleast_1d(g)
        lo, hi = self.snr_grid[0], self.snr_grid[-1]
        # two ufunc calls in place of np.clip, which costs several times more on
        # the short arrays of a quadrature rule
        u = np.log10(np.minimum(np.maximum(g, lo), hi))
        knots = self._knots
        i = ((u - knots[0]) * self._per_step).astype(np.intp)
        np.maximum(i, 0, out=i)
        np.minimum(i, knots.size - 2, out=i)
        s = u - knots[i]
        c3, c2, c1, c0 = self._cubics
        out = ((c3[i] * s + c2[i]) * s + c1[i]) * s + c0[i]
        np.maximum(out, 0.0, out=out)
        np.minimum(out, self.constellation.bits, out=out)
        out = np.where(g < lo, g * (self.mi_values[0] / lo), out)
        out[g > hi] = self.constellation.bits
        return float(out[0]) if scalar else out


def build_table(
    c: Constellation,
    db_min: float,
    db_max: float,
    points_per_decade: int,
    hermite_order: int = 40,
) -> InfoTable:
    """Tabulate both curves on a log-spaced SNR grid.

    The grid spans [db_min, db_max] with points_per_decade points per 10 dB.
    Tabulated values use the highest boundary-layer order, 200, because
    averaging quadratures downstream resolve the stored curves to ~1e-9.
    """
    if db_min >= db_max:
        raise ValueError(f"need db_min < db_max, got {db_min} >= {db_max}")
    if points_per_decade < 10:
        raise ValueError(f"points_per_decade must be >= 10, got {points_per_decade}")
    n_points = int(round((db_max - db_min) / 10.0 * points_per_decade)) + 1
    grid_db = np.linspace(db_min, db_max, n_points)
    snr = 10.0 ** (grid_db / 10.0)

    # one kernel pass: mmse_curve reads the pass that mi_curve just made
    mi = mi_curve(c, snr, hermite_order, band_order=200)
    mm = mmse_curve(c, snr, hermite_order, band_order=200)
    # guard fp wiggle so the stored curves satisfy the monotonicity contract
    mi = np.maximum.accumulate(np.clip(mi, 0.0, c.bits))
    mm = np.minimum.accumulate(np.maximum(mm, _MMSE_FLOOR))

    return InfoTable(constellation=c, snr_grid=snr, mi_values=mi, mmse_values=mm)


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
        vals = mi_curve(self.constellation, g, self.hermite_order)
        return float(vals[0]) if scalar else vals
