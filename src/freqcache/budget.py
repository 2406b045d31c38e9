"""Spectral-entropy complexity measurement and the adaptive reuse budget."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError
from .spectral import _check_weights, bin_dot, scratch

_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


@dataclass(frozen=True)
class EntropyReading:
    raw: float         # nats, in [0, ln(bins)] over the full grid's bins
    normalized: float  # raw / ln(bins), in [0, 1]


def spectral_entropy(amplitude, weights=None, *, power=None):
    """Shannon entropy of the normalized power spectrum.

    Power is the squared amplitude, normalized to a distribution over all
    frequency bins; zero-power bins contribute nothing. The raw entropy is
    in nats and also reported divided by log(bin count) so the reading lands
    in [0, 1] regardless of grid size. Pass the ``rfft2`` half spectrum with
    its :func:`~freqcache.spectral.hermitian_weights` to read the full
    spectrum it stands for, bin count included. ``power``, if given, is the
    caller's own ``bin_dot(amplitude, amplitude, weights)`` of an amplitude
    that ``np.abs`` returned: the total is taken from it, and the sign scan
    that nonnegative grid cannot fail is skipped. The distribution and its
    logarithm are written to this thread's
    :func:`~freqcache.spectral.scratch` region.
    """
    a = np.asarray(amplitude, dtype=np.float64)
    if power is None:
        total = bin_dot(a, a, weights)
    else:
        _check_weights(a, weights)
        total = power
    # A non-finite entry makes the total non-finite, so only a non-finite
    # (or overflowed) total needs the full scan.
    if not math.isfinite(total) and not np.isfinite(a).all():
        raise ValueError("amplitude grid contains non-finite values")
    if power is None and np.min(a, initial=0.0) < 0.0:
        raise ValueError("amplitude grid must be nonnegative")
    bins = a.size if weights is None else a.shape[0] * int(np.sum(weights))
    if bins < 2:
        raise ValueError("amplitude grid must have at least 2 bins")
    if total <= 0.0:
        raise DegenerateSpectrumError("degenerate spectrum")
    p, log_p = scratch(a.shape, np.float64, np.float64)
    np.multiply(a, a, out=p)
    p /= total
    # A zero bin takes the log of the smallest subnormal, a finite number,
    # so its term p * log_p is exactly (minus) zero.
    np.maximum(p, _SMALLEST_SUBNORMAL, out=log_p)
    np.log(log_p, out=log_p)
    raw = -bin_dot(p, log_p, weights) + 0.0
    return EntropyReading(raw, raw / math.log(bins))


def reuse_budget(normalized_entropy, cfg, n_tokens):
    """Map normalized entropy to a reuse ratio and a whole-token budget.

    The ratio decays exponentially from ``cfg.alpha_max`` at zero entropy
    toward ``cfg.alpha_min``, the bounds of a
    :class:`~freqcache.fusion.CacheConfig`, so busier spectra get smaller
    budgets; the token budget is floor(ratio * n_tokens).
    """
    psi = float(normalized_entropy)
    if not 0.0 <= psi <= 1.0:
        raise ValueError(f"normalized entropy must lie in [0, 1], got {psi}")
    n_tokens = int(n_tokens)
    if n_tokens < 1:
        raise ValueError(f"token count must be >= 1, got {n_tokens}")
    alpha = cfg.alpha_min + (cfg.alpha_max - cfg.alpha_min) * math.exp(-psi)
    return alpha, int(math.floor(alpha * n_tokens))
