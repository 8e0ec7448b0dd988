"""Gauss-Laguerre and Gauss-Hermite quadrature rules.

Nodes are the eigenvalues of the Golub-Welsch Jacobi matrix, formed densely
(order <= 200) and solved with numpy's symmetric eigensolver, then polished
by Newton iterations on the orthonormal-polynomial recurrence to a relative
step below 1e-14. Weights are the Christoffel numbers 1 / sum_k p_k(x)^2 of
the orthonormal family, which stays O(1) near the nodes and avoids factorial
overflow at high order. Laguerre weights include the e^{-x} measure, Hermite
weights the e^{-x^2} measure. The dense solve is slower than a tridiagonal
one, so each rule is built once per (kind, order) and cached; its arrays are
read-only because every caller shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureRule", "gauss_laguerre", "gauss_hermite"]

_MAX_ORDER = 200
_NEWTON_TOL = 1e-14


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight pair for one quadrature family."""

    kind: str
    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _recurrence(kind: str, order: int):
    """Jacobi recurrence coefficients (diag, offdiag) and total measure mu0."""
    k = np.arange(order)
    if kind == "laguerre":
        return 2.0 * k + 1.0, k[1:].astype(float), 1.0
    if kind == "hermite":
        return np.zeros(order), np.sqrt(k[1:] / 2.0), math.sqrt(math.pi)
    raise ValueError(f"unknown quadrature kind {kind!r}")


def _orthonormal_scan(kind: str, order: int, x: np.ndarray):
    """Evaluate the orthonormal family at x.

    Returns (p_n, p_n', sum_{k<n} p_k^2); the last term gives the Christoffel
    weights and the first two drive the Newton polish. The sum may overflow to
    inf at extreme orders, where the true weight is below double precision;
    1/inf then yields a clean zero weight.
    """
    diag, off, mu0 = _recurrence(kind, order + 1)
    b = np.concatenate(([0.0], off))  # b[k] couples p_{k-1} and p_k

    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(mu0))
    dp_prev = np.zeros_like(x)
    dp = np.zeros_like(x)
    with np.errstate(over="ignore"):
        accum = p * p
        for k in range(order):
            p_next = ((x - diag[k]) * p - b[k] * p_prev) / b[k + 1]
            dp_next = (p + (x - diag[k]) * dp - b[k] * dp_prev) / b[k + 1]
            p_prev, p = p, p_next
            dp_prev, dp = dp, dp_next
            if k < order - 1:
                accum += p * p
    return p, dp, accum


@lru_cache(maxsize=None)
def _rule(kind: str, order: int) -> QuadratureRule:
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [1, {_MAX_ORDER}], got {order}")

    diag, off, _ = _recurrence(kind, order)
    if order == 1:
        nodes = diag.copy()
    else:
        # one dense matrix filled through strides: no per-diagonal temporaries
        jacobi = np.zeros((order, order))
        jacobi.flat[:: order + 1] = diag
        jacobi.flat[1 :: order + 1] = off
        jacobi.flat[order :: order + 1] = off
        nodes = np.linalg.eigvalsh(jacobi)

    # Newton polish on the orthonormal recurrence; residual target 1e-14.
    for _ in range(8):
        p, dp, _ = _orthonormal_scan(kind, order, nodes)
        step = p / dp
        nodes = nodes - step
        if np.max(np.abs(step) / (1.0 + np.abs(nodes))) < _NEWTON_TOL:
            break

    if kind == "hermite":
        # enforce exact symmetry about 0 (pairs average, center node zeroed)
        nodes = 0.5 * (nodes - nodes[::-1])

    _, _, accum = _orthonormal_scan(kind, order, nodes)
    weights = 1.0 / accum
    if kind == "hermite":
        weights = 0.5 * (weights + weights[::-1])

    if kind == "laguerre":
        if not (np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
            raise RuntimeError(f"laguerre nodes not positive increasing at order {order}")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise RuntimeError(f"laguerre weights sum to {weights.sum()!r} at order {order}")
    else:
        if abs(weights.sum() - math.sqrt(math.pi)) > 1e-10:
            raise RuntimeError(f"hermite weights sum to {weights.sum()!r} at order {order}")

    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(kind=kind, order=order, nodes=nodes, weights=weights)


def gauss_laguerre(order: int) -> QuadratureRule:
    """Rule for integrals of the form int_0^inf f(x) e^{-x} dx.

    Exact for polynomials up to degree 2*order - 1. The rule is cached: every
    call with the same order returns the same read-only object.
    """
    return _rule("laguerre", order)


def gauss_hermite(order: int) -> QuadratureRule:
    """Rule for integrals of the form int_-inf^inf f(x) e^{-x^2} dx (cached, read-only)."""
    return _rule("hermite", order)
