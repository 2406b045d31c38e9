"""The two transforms ``decide`` runs, against naive oracles: the ``rfft2``
half spectrum of a frame (``fusion._half_spectrum``, inverted with
``irfft2`` as ``phase_correlation_spectra`` does) and the rows of the
orthonormal DCT-II matrix (``edge_refresh._dct_rows``) that ``patch_energy``
projects every patch onto; and the scratch region their temporaries use."""

import threading

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcache import (
    CacheConfig,
    PatchGrid,
    cutoff_index,
    decide,
    patch_energy,
    spectral,
)
from freqcache.edge_refresh import _dct_rows
from freqcache.fusion import _half_spectrum

from oracles import naive_dct2, naive_dft2, naive_patch_energy

SIZES = [2, 3, 4, 5, 6, 8, 12, 16]


def half_spectrum(frame):
    return _half_spectrum(frame)[0]


def test_dft2_dc_only_signal():
    spec = half_spectrum(np.ones((2, 2)))
    assert spec[0, 0] == pytest.approx(4.0, abs=1e-12)
    rest = spec.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_dft2_zero_frame():
    assert np.max(np.abs(half_spectrum(np.zeros((4, 6))))) == 0.0


def test_dft2_matches_naive_oracle():
    frame = np.random.default_rng(1).random((8, 8))
    expected = naive_dft2(frame)[:, :5]
    assert np.max(np.abs(half_spectrum(frame) - expected)) < 1e-9


def test_dft2_rejects_non_finite():
    # decide validates both frames before it transforms them.
    ok = np.ones((4, 4))
    bad = ok.copy()
    bad[1, 2] = np.nan
    cfg = CacheConfig(patch_size=2)
    for prev, curr in ((bad, ok), (ok, bad), (ok, np.full((4, 4), np.inf))):
        with pytest.raises(ValueError, match="non-finite"):
            decide(prev, curr, cfg)


def test_idft2_round_trip_64():
    frame = np.random.default_rng(2).random((64, 64))
    back = scipy.fft.irfft2(half_spectrum(frame), s=frame.shape)
    assert np.max(np.abs(back - frame)) < 1e-9


def test_amplitude_conjugate_symmetry_for_real_frames():
    # The half amplitude of a real frame restates its full amplitude grid:
    # bin (u, v) of the missing columns mirrors bin (-u, -v).
    rng = np.random.default_rng(3)
    for h, w in ((6, 10), (6, 9)):
        frame = rng.random((h, w))
        full = np.abs(naive_dft2(frame))
        half = _half_spectrum(frame)[1]
        for u in range(h):
            for v in range(w):
                if v < half.shape[1]:
                    expected = half[u, v]
                else:
                    expected = half[(h - u) % h, w - v]
                assert full[u, v] == pytest.approx(expected, abs=1e-9)


def test_block_dct_constant_patch():
    # A constant patch projects onto row 0 only, with coefficient P * value.
    dct = _dct_rows(8, 8)
    coeffs = dct @ np.full((8, 8), 2.5) @ dct.T
    assert coeffs[0, 0] == pytest.approx(8 * 2.5, abs=1e-12)
    coeffs[0, 0] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-12


def test_block_dct_matches_naive_oracle():
    # The naive DCT of a unit impulse at pixel (x, y) is the outer product
    # of basis columns x and y; impulses on the anti-diagonal use every
    # column in both places. The cutoff's rows are the leading ones.
    for n in (2, 3, 8, 16):
        full = _dct_rows(n, n)
        for x in range(n):
            y = n - 1 - x
            impulse = np.zeros((n, n))
            impulse[x, y] = 1.0
            basis = np.outer(full[:, x], full[:, y])
            assert np.max(np.abs(basis - naive_dct2(impulse))) < 1e-12
        c = cutoff_index(n)
        assert np.array_equal(_dct_rows(n, c), full[:c])


def test_block_dct_parseval():
    rng = np.random.default_rng(5)
    for n in SIZES:
        dct = _dct_rows(n, n)
        assert np.max(np.abs(dct @ dct.T - np.eye(n))) < 1e-12
        patch = rng.standard_normal((n, n))
        coeffs = dct @ patch @ dct.T
        assert np.sum(coeffs ** 2) == pytest.approx(np.sum(patch ** 2), abs=1e-9)


@given(seed=st.integers(0, 2**31 - 1), h=st.sampled_from(SIZES),
       w=st.sampled_from(SIZES))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(seed, h, w):
    frame = np.random.default_rng(seed).random((h, w))
    back = scipy.fft.irfft2(half_spectrum(frame), s=(h, w))
    err = np.max(np.abs(back - frame))
    assert err < 1e-9 * max(1.0, np.max(np.abs(frame)))


@given(seed=st.integers(0, 2**31 - 1),
       a=st.floats(-3, 3, allow_nan=False),
       b=st.floats(-3, 3, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_linearity_property(seed, a, b):
    rng = np.random.default_rng(seed)
    f = rng.random((6, 8))
    g = rng.random((6, 8))
    lhs = half_spectrum(a * f + b * g)
    rhs = a * half_spectrum(f) + b * half_spectrum(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_fourier_shift_amplitude_invariance():
    rng = np.random.default_rng(6)
    frame = rng.random((16, 12))
    shifted = np.roll(frame, (5, 7), axis=(0, 1))
    amp_a = _half_spectrum(frame)[1]
    amp_b = _half_spectrum(shifted)[1]
    assert np.max(np.abs(amp_a - amp_b)) < 1e-9


@given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_dct_oracle_equivalence_property(seed, n):
    patch = np.random.default_rng(seed).standard_normal((n, n))
    energy = patch_energy(PatchGrid(patch, n))[0, 0]
    assert abs(energy - naive_patch_energy(patch, cutoff_index(n))) < 1e-9


def test_scratch_views_are_reused_until_the_region_grows():
    def requests():
        pair = spectral.scratch((4, 6), np.float64, np.complex64)
        assert [(v.shape, v.dtype) for v in pair] == [
            ((4, 6), np.float64), ((4, 6), np.complex64)]
        # laid end to end, the second at the first's 192 bytes, which are a
        # multiple of 16
        region = spectral._scratch.region
        assert [v.__array_interface__["data"][0]
                - region.__array_interface__["data"][0] for v in pair] == [0, 192]
        again = spectral.scratch((4, 6), np.float64, np.complex64)
        assert again is pair
        # another request hands out the same bytes
        other, = spectral.scratch((3, 5), np.float32)
        assert np.shares_memory(other, pair[0])
        assert spectral._scratch.region is region

        grown, = spectral.scratch((64, 64), np.float64)
        assert spectral._scratch.region is not region
        after = spectral.scratch((4, 6), np.float64, np.complex64)
        assert after is not pair
        for view in (*after, grown):
            assert np.shares_memory(view, spectral._scratch.region)
            assert not np.shares_memory(view, region)
        assert np.shares_memory(after[0], grown)
        assert spectral.scratch((3, 5), np.float32)[0] is not other

    # on a fresh thread, which starts with no region of its own
    errors = []

    def target():
        try:
            requests()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    if errors:
        raise errors[0]
