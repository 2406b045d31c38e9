"""Per-patch high-frequency energy and the statistical refresh mask.

Both are plain (rows, cols) arrays: ``decide`` recomputes every patch the
mask flags and ranks the other reuse candidates by ascending energy.
"""

import functools
import math

import numpy as np

from .spectral import scratch


def cutoff_index(patch_size):
    """Low-frequency cutoff for a P x P coefficient grid: max(1, P // 4)."""
    return max(1, int(patch_size) // 4)


@functools.cache
def _dct_rows(p, c):
    """The first ``c`` rows of the orthonormal P-point DCT-II matrix,
    ``C[k, n] = s_k cos(pi (2n + 1) k / 2P)`` with ``s_0 = sqrt(1/P)`` and
    ``s_k = sqrt(2/P)``; read-only, one per ``(p, c)``."""
    k = np.arange(c)[:, None]
    n = np.arange(p)[None, :]
    rows = math.sqrt(2.0 / p) * np.cos(np.pi * (2 * n + 1) * k / (2 * p))
    rows[0] = math.sqrt(1.0 / p)
    rows.flags.writeable = False
    return rows


def patch_energy(grid):
    """High-frequency energy of every patch in the grid, as a (rows, cols)
    array of nonnegative values.

    The energy of a patch B is the sum of its squared orthonormal DCT-II
    coefficients outside the low-frequency c x c corner. Since the DCT is
    orthonormal, that is the squared norm of the residual B - L, where
    L = C^T (C B C^T) C is B projected onto the corner and C holds the first
    c rows of the DCT matrix; only those c rows are ever applied. Constant
    patches score exactly 0. The frame-sized residual is written to this
    thread's :func:`~freqcache.spectral.scratch` region.
    """
    p = grid.patch_size
    c = cutoff_index(p)
    rows, cols = grid.rows, grid.cols
    dct = _dct_rows(p, c)
    x = grid.frame.reshape(rows, p, cols * p)
    # C B C^T of every patch, laid out (rows, c, cols, c): the row transform
    # runs per row of patches, the column transforms as 2-D GEMMs over all
    # patches at once.
    corner = np.matmul(dct, x).reshape(-1, p) @ dct.T
    residual, = scratch(x.shape, np.float64)
    np.matmul(dct.T, (corner @ dct).reshape(rows, c, -1), out=residual)
    np.subtract(x, residual, out=residual)
    r = residual.reshape(rows, p, cols, p)
    energies = np.einsum("rpqs,rpqs->rq", r, r)
    # Round-off leaves ~1e-30 on a flat patch; pin it to 0, so a flat frame
    # has no spread for refresh_mask to flag. Only a patch whose energy is
    # tiny next to its squared DC coefficient (corner [0, 0], P times its
    # mean) can be flat: on a flat patch every residual pixel is round-off
    # of the c-term products, about 4cPeps of the grey level, so the energy
    # stays below (4cPeps)^2 dc^2 <= 1e-26 dc^2 for P <= 32. The exact
    # max == min test runs on the patches under 2^-40 dc^2 only. A limit
    # that overflows is inf and a NaN fails ">", so such patches are tested.
    with np.errstate(over="ignore"):
        limit = np.square(corner.reshape(rows, c, cols, c)[:, 0, :, 0]
                          * 2.0 ** -20)
    i, j = np.divmod(np.flatnonzero(~(energies > limit)), cols)
    if i.size:
        blocks = grid.blocks()[i, j]
        flat = blocks.max(axis=(1, 2)) == blocks.min(axis=(1, 2))
        energies[i[flat], j[flat]] = 0.0
    return energies


def refresh_mask(energies, sensitivity):
    """Boolean mask of the patches whose energy exceeds mean + sensitivity *
    std, shaped like ``energies``.

    Statistics are population (divide-by-N) moments over all patches. The
    mean is clamped into [min, max], which its rounding can leave, so an
    all-equal energy map has zero spread and the strict inequality flags
    nothing.
    """
    # ``energies.mean()`` and ``energies.std()`` run these operations in
    # this order, so the moments keep their bits without NumPy's wrappers.
    n = energies.size
    mu = min(max(float(energies.sum()) / n, float(energies.min())),
             float(energies.max()))
    deviation = energies - mu
    np.square(deviation, out=deviation)
    sigma = math.sqrt(float(deviation.sum()) / n)
    threshold = mu + float(sensitivity) * sigma
    return energies > threshold
