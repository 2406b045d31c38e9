"""Per-patch high-frequency energy and the statistical refresh mask."""

from dataclasses import dataclass

import numpy as np
import scipy.fft


def cutoff_index(patch_size):
    """Low-frequency cutoff for a P x P coefficient grid: max(1, P // 4)."""
    return max(1, int(patch_size) // 4)


@dataclass(frozen=True)
class EnergyMap:
    """High-frequency energy per patch, rows x cols, all entries >= 0."""

    energies: np.ndarray
    patch_size: int
    cutoff: int


@dataclass(frozen=True)
class RefreshMask:
    """Boolean patch mask with the statistics that produced it."""

    mask: np.ndarray
    mean_energy: float
    std_energy: float
    sensitivity: float


def _block_dct(blocks):
    """Orthonormal 2-D DCT-II over the last two axes of a stack of patches."""
    return scipy.fft.dctn(blocks, axes=(-2, -1), norm="ortho")


def patch_energy(grid):
    """High-frequency energy of every patch in the grid.

    Each patch is transformed with the orthonormal block DCT; coefficients
    inside the low-frequency corner are dropped and the rest are squared and
    summed. Constant patches score exactly 0.
    """
    coeffs = _block_dct(grid.blocks())
    c = cutoff_index(grid.patch_size)
    coeffs[..., :c, :c] = 0.0
    energies = np.sum(coeffs * coeffs, axis=(-2, -1))
    return EnergyMap(energies, grid.patch_size, c)


def refresh_mask(energy, sensitivity):
    """Flag patches whose energy exceeds mean + sensitivity * std.

    Statistics are population (divide-by-N) moments over all patches, so an
    all-equal energy map has zero spread and the strict inequality flags
    nothing.
    """
    e = energy.energies
    mu = float(e.mean())
    sigma = float(e.std())
    threshold = mu + float(sensitivity) * sigma
    return RefreshMask(e > threshold, mu, sigma, float(sensitivity))
