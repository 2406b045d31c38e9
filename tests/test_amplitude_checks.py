"""``sim_freq`` and ``spectral_entropy`` check their amplitude grids cheaply:
a squared norm first and a full ``isfinite`` scan only when it is not
finite, then one ``min`` for the sign. They must reject what the full scans
of ``oracles.sim_freq_scanned`` and ``oracles.spectral_entropy_scanned``
reject, with the same exception and message, and otherwise return the same
bits. Given the squared norms a caller already holds (``powers=`` and
``power=``), they must return the same bits again and keep every check
that does not stand for the sign of an ``np.abs`` output."""

import numpy as np
import pytest
import scipy.fft

from freqcache import sim_freq, spectral_entropy
from freqcache.spectral import bin_dot, hermitian_weights

from oracles import sim_freq_scanned, spectral_entropy_scanned


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def half_amplitudes(count, seed):
    """``count`` triples of two random frames' half-spectrum amplitudes and
    their weights, over even and odd sizes; in every third pair a random
    fifth of the bins is exactly zero."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        h, w = (int(n) for n in rng.integers(2, 40, size=2))
        a, b = (np.abs(scipy.fft.rfft2(rng.random((h, w)))) for _ in range(2))
        if k % 3 == 0:
            a[rng.random(a.shape) < 0.2] = 0.0
            b[rng.random(b.shape) < 0.2] = 0.0
        out.append((a, b, hermitian_weights(w)))
    return out


@pytest.mark.parametrize("a,b,weights", half_amplitudes(50, 0))
def test_values_equal_full_scans(a, b, weights):
    for w in (weights, None):
        assert sim_freq(a, b, w) == sim_freq_scanned(a, b, w)
        assert spectral_entropy(a, w) == spectral_entropy_scanned(a, w)


@pytest.mark.parametrize("a,b,weights", half_amplitudes(50, 0))
def test_values_equal_with_carried_powers(a, b, weights):
    for w in (weights, None):
        powers = (bin_dot(a, a, w), bin_dot(b, b, w))
        assert sim_freq(a, b, w, powers=powers) == sim_freq(a, b, w)
        assert spectral_entropy(a, w, power=powers[0]) == spectral_entropy(a, w)


def spoiled(amp, value, at=(1, 2)):
    amp = amp.copy()
    amp[at] = value
    return amp


AMP, OTHER, WEIGHTS = half_amplitudes(1, 1)[0]
ENTRIES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "negative": -0.5}


@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_entry_rejected_like_full_scans(entry):
    bad = spoiled(AMP, ENTRIES[entry])
    for args in ((bad, OTHER, WEIGHTS), (OTHER, bad, WEIGHTS), (bad, bad, None)):
        got = outcome(sim_freq, *args)
        assert isinstance(got, tuple) and got[0] is ValueError
        assert got == outcome(sim_freq_scanned, *args)
    for w in (WEIGHTS, None):
        got = outcome(spectral_entropy, bad, w)
        assert isinstance(got, tuple) and got[0] is ValueError
        assert got == outcome(spectral_entropy_scanned, bad, w)


def test_non_finite_entry_is_reported_before_a_negative_one():
    negative = spoiled(AMP, -0.5)
    for value in (np.nan, np.inf, -np.inf):
        both = spoiled(negative, value, at=(0, 0))
        cases = [(sim_freq, sim_freq_scanned, (negative, spoiled(OTHER, value))),
                 (sim_freq, sim_freq_scanned, (spoiled(OTHER, value), negative)),
                 (spectral_entropy, spectral_entropy_scanned, (both,))]
        for fast, scanned, args in cases:
            got = outcome(fast, *args)
            assert got[1].endswith("non-finite values")
            assert got == outcome(scanned, *args)


def test_all_zero_and_mismatched_shapes_rejected_like_full_scans():
    zero = np.zeros_like(AMP)
    cases = [
        (sim_freq, sim_freq_scanned, (zero, OTHER, WEIGHTS)),
        (sim_freq, sim_freq_scanned, (OTHER, zero, None)),
        (sim_freq, sim_freq_scanned, (AMP, OTHER[:, :-1], WEIGHTS)),
        (spectral_entropy, spectral_entropy_scanned, (zero, WEIGHTS)),
        (spectral_entropy, spectral_entropy_scanned, (zero, None)),
        (spectral_entropy, spectral_entropy_scanned, (AMP, WEIGHTS[:-1])),
        (spectral_entropy, spectral_entropy_scanned, (np.ones(1), None)),
    ]
    for fast, scanned, args in cases:
        got = outcome(fast, *args)
        assert isinstance(got, tuple)
        assert got == outcome(scanned, *args)


def test_overflowing_finite_entry_behaves_like_full_scans():
    # The squared norm overflows, so the full scan runs, finds every entry
    # finite, and the arithmetic goes on as it did.
    huge = spoiled(AMP, 1e200)
    assert outcome(sim_freq, huge, OTHER, WEIGHTS) == outcome(
        sim_freq_scanned, huge, OTHER, WEIGHTS)
    assert outcome(spectral_entropy, huge, WEIGHTS) == outcome(
        spectral_entropy_scanned, huge, WEIGHTS)


def test_carried_powers_keep_shape_weights_and_degenerate_checks():
    zero = np.zeros_like(AMP)
    power = bin_dot(AMP, AMP, WEIGHTS)
    cases = [
        (sim_freq, (AMP, OTHER[:, :-1], WEIGHTS), {"powers": (power, power)}),
        (sim_freq, (AMP, OTHER, WEIGHTS[:-1]), {"powers": (power, power)}),
        (sim_freq, (AMP, zero, WEIGHTS), {"powers": (power, 0.0)}),
        (sim_freq, (zero, OTHER, WEIGHTS[:-1]), {"powers": (0.0, power)}),
        (spectral_entropy, (AMP, WEIGHTS[:-1]), {"power": power}),
        (spectral_entropy, (zero, WEIGHTS), {"power": 0.0}),
        (spectral_entropy, (zero[:1, :1], WEIGHTS[:-1]), {"power": 0.0}),
        (spectral_entropy, (np.ones(1), None), {"power": 1.0}),
    ]
    for fn, args, carried in cases:
        got = outcome(lambda *a: fn(*a, **carried), *args)
        assert isinstance(got, tuple)
        assert got == outcome(fn, *args)


def test_non_finite_carried_power_still_scans():
    # An overflowed spectrum gives an infinite power; the full scan then
    # reports the entry as it did without the carried power.
    bad = spoiled(AMP, np.inf)
    inf = bin_dot(bad, bad, WEIGHTS)
    power = bin_dot(OTHER, OTHER, WEIGHTS)
    for fn, args, carried in (
            (sim_freq, (bad, OTHER, WEIGHTS), {"powers": (inf, power)}),
            (spectral_entropy, (bad, WEIGHTS), {"power": inf})):
        got = outcome(lambda *a: fn(*a, **carried), *args)
        assert got == (ValueError, outcome(fn, *args)[1])
        assert got[1].endswith("non-finite values")
