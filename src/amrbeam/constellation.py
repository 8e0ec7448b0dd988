"""Finite input alphabets normalized to zero mean and unit average energy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constellation",
    "make_qam",
    "make_psk",
    "make_custom",
]


@dataclass(frozen=True)
class Constellation:
    """Equiprobable complex alphabet with E{s} = 0 and E{|s|^2} = 1.

    ``d_min`` is the minimum pairwise distance; it sets the exponential decay
    rate of the estimation error on a Gaussian channel at high SNR.
    """

    points: np.ndarray
    order: int
    label: str
    d_min: float

    @property
    def bits(self) -> float:
        """Information ceiling log2(M) in bits."""
        return math.log2(self.order)

    def __repr__(self) -> str:
        return f"Constellation({self.label}, M={self.order}, d_min={self.d_min:.6g})"


def _min_distance(points: np.ndarray) -> float:
    diff = points[:, None] - points[None, :]
    dist = np.abs(diff)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def _finalize(points: np.ndarray, label: str) -> Constellation:
    """Center and scale to unit energy, then validate the alphabet invariants."""
    points = np.asarray(points, dtype=np.complex128).ravel()
    m = points.size
    if m < 2:
        raise ValueError(f"constellation needs at least 2 points, got {m}")

    centered = points - points.mean()
    energy = np.mean(np.abs(centered) ** 2)
    if energy <= 0.0:
        raise ValueError("constellation points are all identical")
    normalized = centered / np.sqrt(energy)

    d_min = _min_distance(normalized)
    if d_min <= 0.0:
        raise ValueError("constellation has coincident points")
    if abs(np.mean(normalized)) > 1e-12:
        raise ValueError("normalization failed to produce a zero-mean alphabet")
    if abs(np.mean(np.abs(normalized) ** 2) - 1.0) > 1e-12:
        raise ValueError("normalization failed to produce unit average energy")

    return Constellation(points=normalized, order=m, label=label, d_min=d_min)


def make_qam(m: int) -> Constellation:
    """Square QAM grid with unit average energy.

    ``m`` must be a perfect square and a power of two (4, 16, 64, ...).
    """
    if m < 4 or (m & (m - 1)) != 0:
        raise ValueError(f"QAM order must be a power of two >= 4, got {m}")
    side = math.isqrt(m)
    if side * side != m:
        raise ValueError(f"QAM order must be a perfect square, got {m}")
    levels = 2.0 * np.arange(side) - (side - 1)
    re, im = np.meshgrid(levels, levels)
    return _finalize(re.ravel() + 1j * im.ravel(), label=f"{m}-QAM")


def make_psk(m: int) -> Constellation:
    """``m`` points equally spaced on the unit circle, starting at angle 0."""
    if m < 2:
        raise ValueError(f"PSK order must be >= 2, got {m}")
    return _finalize(np.exp(2j * np.pi * np.arange(m) / m), label=f"{m}-PSK")


def make_custom(points, label: str = "custom") -> Constellation:
    """User-supplied point set, re-normalized to zero mean and unit energy.

    Every downstream formula assumes the normalized convention.
    """
    return _finalize(np.asarray(points, dtype=np.complex128), label=label)
