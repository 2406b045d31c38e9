"""Spectral similarity, displacement recovery, and alignment masking.

``decide`` flushes a step whose :func:`sim_freq` falls below ``tau_mig``;
otherwise :func:`phase_correlation_spectra` recovers the shift and
:func:`alignment_mask` marks the patches whose source is still in view.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DegenerateSpectrumError
from .spectral import _check_weights, bin_dot, scratch

# Added to the cross-power magnitude so dead bins do not divide by zero.
CROSS_POWER_EPS = 1e-12


@dataclass(frozen=True)
class Displacement:
    """Inter-frame cyclic shift in pixels plus its patch-unit quantization.

    Pixel components are wraparound-canonical (|di| <= H/2, |dj| <= W/2).
    Patch components round to the nearest whole patch; exact half-patch
    offsets round toward zero.
    """

    di: int
    dj: int
    di_patches: int
    dj_patches: int

    @classmethod
    def from_pixels(cls, di, dj, patch_size=1):
        return cls(
            int(di),
            int(dj),
            _to_patch_units(di, patch_size),
            _to_patch_units(dj, patch_size),
        )


def _to_patch_units(d, patch_size):
    d = int(d)
    p = int(patch_size)
    sign = 1 if d >= 0 else -1
    return sign * ((2 * abs(d) + p - 1) // (2 * p))


def sim_freq(amp_prev, amp_curr, weights=None, *, powers=None):
    """Cosine similarity of two amplitude spectra, flattened to vectors.

    Nonnegative inputs put the score in [0, 1]; cyclic translation of the
    underlying frame leaves it unchanged. Pass ``rfft2`` half spectra with
    their :func:`~freqcache.spectral.hermitian_weights` to score the full
    spectra they stand for. ``powers``, if given, is the caller's own
    ``(bin_dot(a, a, weights), bin_dot(b, b, weights))`` of two amplitudes
    that ``np.abs`` returned: the squared norms are taken from it, and the
    sign scan those nonnegative grids cannot fail is skipped.
    """
    a = np.asarray(amp_prev, dtype=np.float64)
    b = np.asarray(amp_curr, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("amplitude grids must have equal dimensions")
    if powers is None:
        sq_a = bin_dot(a, a, weights)
        sq_b = bin_dot(b, b, weights)
    else:
        _check_weights(a, weights)
        sq_a, sq_b = powers
    # A non-finite entry makes its grid's squared norm non-finite, so only a
    # non-finite (or overflowed) squared norm needs the full scans.
    if not (math.isfinite(sq_a) and math.isfinite(sq_b)) and not (
            np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("amplitude grids contain non-finite values")
    if powers is None and (np.min(a, initial=0.0) < 0.0
                           or np.min(b, initial=0.0) < 0.0):
        raise ValueError("amplitude grids must be nonnegative")
    norm_a = math.sqrt(sq_a)
    norm_b = math.sqrt(sq_b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateSpectrumError("degenerate spectrum")
    return min(1.0, bin_dot(a, b, weights) / (norm_a * norm_b))


def phase_correlation_spectra(spec_prev, spec_curr, shape, patch_size=1):
    """Recover the cyclic displacement between two real frames of the given
    ``shape`` from their ``rfft2`` half spectra.

    Normalizes the cross-power spectrum of the pair to unit magnitude and
    locates the impulse in its inverse transform. The returned displacement
    (di, dj) satisfies ``curr == roll(prev, (di, dj))`` exactly when the
    frames are cyclic shifts of each other; for real (non-cyclic) motion the
    estimate is approximate.

    Both spectra are rounded to ``complex64`` first, and the result is
    defined as the correlation of those roundings: spectra passed in
    ``complex128`` give exactly what their ``complex64`` rounding gives.
    The cross-power spectrum is built and normalized in single precision,
    and its inverse is ``irfft2`` on the ``W // 2 + 1`` columns of the half
    spectrum; Hermitian symmetry implies the rest, so the response equals
    the full-spectrum ``ifft2`` one. Every normalized bin has unit
    magnitude, so the round-off stays near 1e-7 of the peak, while a
    shift's impulse stands far above the rest of the response. The
    products of bins must stay inside the ``float32`` range, which
    ``decide``'s frames, brought near unit scale, keep to. Neither input is
    written to. The cross-power spectrum and its magnitude share 12 bytes
    per half-spectrum bin of this thread's
    :func:`~freqcache.spectral.scratch` region, so a stream of equal-shape
    ``complex64`` spectra allocates no new temporaries for them.
    """
    h, w = shape
    if spec_prev.shape != (h, w // 2 + 1) or spec_curr.shape != spec_prev.shape:
        raise ValueError(
            f"half spectra {spec_prev.shape} and {spec_curr.shape} do not "
            f"match frame shape {tuple(shape)}"
        )
    spec_prev = np.asarray(spec_prev, dtype=np.complex64)
    spec_curr = np.asarray(spec_curr, dtype=np.complex64)
    cross, mag = scratch(spec_prev.shape, np.complex64, np.float32)
    np.conjugate(spec_curr, out=cross)
    cross *= spec_prev
    np.abs(cross, out=mag)
    mag += CROSS_POWER_EPS
    # ``cross /= mag`` would promote ``mag`` to complex and run a full
    # complex division, which for a zero imaginary part multiplies by the
    # reciprocal. Doing that on the real and imaginary views gives the same
    # values in about two thirds of the time.
    np.reciprocal(mag, out=mag)
    cross.real *= mag
    cross.imag *= mag
    response = scipy.fft.irfft2(cross, s=(h, w), overwrite_x=True)
    di, dj = _impulse_displacement(response)
    return Displacement.from_pixels(di, dj, patch_size)


def _canonical(d, n):
    return d - n if 2 * d >= n else d


def _impulse_displacement(response):
    """Displacement encoded by the impulse peak of a correlation response.

    An impulse at bin p corresponds to displacement (-p) mod dim; the result
    is wraparound-canonicalized. Exact ties at the peak value prefer the
    smallest |di| + |dj|, then the peak's row-major position. A response
    holding NaN has no peak and gives (0, 0).
    """
    h, w = response.shape
    flat_response = response.ravel()
    # argmax returns the first bin of the peak value (or the first NaN), so
    # only the bins after it can tie with it.
    first = int(flat_response.argmax())
    peak_value = flat_response[first]
    if peak_value != peak_value:
        return (0, 0)
    best_key = None
    best = (0, 0)
    ties = (flat_response[first + 1:] == peak_value).nonzero()[0] + (first + 1)
    for flat in (first, *ties.tolist()):
        pi, pj = divmod(flat, w)
        di = _canonical(-pi % h, h)
        dj = _canonical(-pj % w, w)
        key = (abs(di) + abs(dj), pi, pj)
        if best_key is None or key < best_key:
            best_key = key
            best = (di, dj)
    return best


def alignment_mask(disp, grid):
    """Boolean patch mask marking positions whose displacement-mapped source
    exists in the previous frame's grid.

    mask[i, j] is True iff (i - di_patches, j - dj_patches) lies inside the
    grid; everything else has newly entered the view and must be recomputed.
    """
    mask = np.zeros((grid.rows, grid.cols), dtype=bool)
    r0 = max(0, disp.di_patches)
    r1 = min(grid.rows, grid.rows + disp.di_patches)
    c0 = max(0, disp.dj_patches)
    c1 = min(grid.cols, grid.cols + disp.dj_patches)
    if r0 < r1 and c0 < c1:
        mask[r0:r1, c0:c1] = True
    return mask

