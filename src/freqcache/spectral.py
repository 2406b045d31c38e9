"""Hermitian weights and the weighted bin sum that let an ``rfft2`` half
spectrum stand for the full frequency grid of a real frame."""

import numpy as np


def hermitian_weights(width):
    """Full-grid bins each ``rfft2`` column of a ``width``-wide real frame
    stands for, as a float array of ``width // 2 + 1`` entries.

    Column 0 (DC) and, for even widths, column ``width // 2`` (Nyquist) are
    their own mirror images and count once. Every other column v also
    stands for column ``width - v``, whose bins hold its conjugates, so it
    counts twice. The weights sum to ``width``.
    """
    weights = np.full(width // 2 + 1, 2.0)
    weights[0] = 1.0
    if width % 2 == 0:
        weights[-1] = 1.0
    return weights


def bin_dot(a, b, weights=None):
    """Sum of ``a * b`` over the frequency bins two equal-shape grids stand
    for.

    With ``weights`` None every entry is one bin. Otherwise the grids are
    ``rfft2`` half spectra and entry (u, v) counts ``weights[v]`` times
    (see :func:`hermitian_weights`).
    """
    if weights is None:
        return float(np.dot(a.ravel(), b.ravel()))
    if a.ndim != 2 or np.shape(weights) != (a.shape[1],):
        raise ValueError(
            f"need one weight per column of a 2D grid, got {np.shape(weights)} "
            f"for shape {a.shape}"
        )
    return float(np.einsum("ij,ij->j", a, b) @ weights)
