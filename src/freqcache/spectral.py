"""2D spectral transforms: DFT, inverse DFT, and orthonormal block DCT, plus
the Hermitian weights that let an ``rfft2`` half spectrum stand for the full
grid."""

import numpy as np
import scipy.fft

from .frame import validate_frame

# Max tolerated imaginary leakage when collapsing an inverse transform to a
# real frame, relative to the largest output magnitude.
IMAG_RESIDUE_TOL = 1e-6


def _validate_spectrum(spec):
    arr = np.asarray(spec, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"spectrum must be 2D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"spectrum dimensions must be >= 1, got {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("spectrum contains non-finite values")
    return arr


def dft2(frame):
    """Forward 2D DFT of a real frame, unnormalized.

    The inverse carries the 1/(U*V) factor, so ``idft2(dft2(f)) == f``.
    """
    return scipy.fft.fft2(validate_frame(frame))


def idft2(spectrum):
    """Inverse 2D DFT with 1/(U*V) normalization, returned as a real frame.

    The imaginary residue is discarded after checking it is negligible
    against the largest output magnitude; spectra that are not numerically
    conjugate-symmetric are rejected.
    """
    spectrum = _validate_spectrum(spectrum)
    out = scipy.fft.ifft2(spectrum)
    residue = float(np.max(np.abs(out.imag)))
    if residue > IMAG_RESIDUE_TOL * float(np.max(np.abs(out))):
        raise ValueError(
            f"inverse transform is not real: imaginary residue {residue:g}"
        )
    return np.ascontiguousarray(out.real)


def amplitude_phase(spectrum):
    """Split a complex spectrum into amplitude and phase grids.

    Phase uses the two-argument arctangent, so bins with zero amplitude get
    phase 0 and results lie in (-pi, pi].
    """
    spectrum = _validate_spectrum(spectrum)
    return np.abs(spectrum), np.angle(spectrum)


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


def block_dct(patch):
    """Orthonormal 2D DCT-II of a square patch.

    Orthonormal scaling preserves energy: the squared coefficients sum to
    the squared pixels.
    """
    arr = np.asarray(patch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"patch must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("patch must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("patch contains non-finite values")
    return scipy.fft.dctn(arr, norm="ortho")
