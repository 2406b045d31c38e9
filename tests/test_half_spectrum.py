"""Hermitian-weighted ``rfft2`` half spectra against the full grid."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcache import sim_freq, spectral_entropy
from freqcache.spectral import bin_dot, hermitian_weights


def mirrored(half, width):
    """The full (H, width) grid a half grid stands for: column v > width // 2
    holds column width - v with rows reversed modulo H, as the amplitudes of
    a real frame's spectrum do."""
    h = half.shape[0]
    rows = -np.arange(h) % h
    cols = width - np.arange(half.shape[1], width)
    return np.concatenate([half, half[rows][:, cols]], axis=1)


@st.composite
def half_grid_pairs(draw):
    """Two nonnegative half grids, some bins exactly zero, each with power."""
    h = draw(st.integers(1, 9))
    w = draw(st.one_of(st.sampled_from([2, 3]), st.integers(2, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.8]))
    grids = []
    for _ in range(2):
        half = rng.random((h, w // 2 + 1))
        half[rng.random(half.shape) < zero_share] = 0.0
        if not half.any():
            half[rng.integers(h), rng.integers(half.shape[1])] = 1.0
        grids.append(half)
    return w, grids[0], grids[1]


class TestHermitianWeights:
    @pytest.mark.parametrize("width,expected", [
        (1, [1.0]), (2, [1.0, 1.0]), (3, [1.0, 2.0]), (4, [1.0, 2.0, 1.0]),
        (7, [1.0, 2.0, 2.0, 2.0]),
    ])
    def test_values(self, width, expected):
        assert hermitian_weights(width).tolist() == expected

    @pytest.mark.parametrize("width", range(1, 20))
    def test_sum_to_width(self, width):
        assert hermitian_weights(width).sum() == width

    def test_one_read_only_array_per_width(self):
        weights = hermitian_weights(10)
        assert hermitian_weights(10) is weights
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 2.0

    def test_rejects_weights_of_wrong_length(self):
        with pytest.raises(ValueError, match="one weight per column"):
            bin_dot(np.ones((4, 3)), np.ones((4, 3)), hermitian_weights(6))


class TestWeightedHalfSpectrum:
    @given(half_grid_pairs())
    @settings(max_examples=200, deadline=None)
    def test_sim_freq_matches_full_grid(self, case):
        w, a, b = case
        weights = hermitian_weights(w)
        full = sim_freq(mirrored(a, w), mirrored(b, w))
        assert abs(sim_freq(a, b, weights) - full) <= 1e-12

    @given(half_grid_pairs())
    @settings(max_examples=200, deadline=None)
    def test_entropy_matches_full_grid(self, case):
        w, a, _ = case
        half = spectral_entropy(a, hermitian_weights(w))
        full = spectral_entropy(mirrored(a, w))
        assert abs(half.raw - full.raw) <= 1e-12
        assert abs(half.normalized - full.normalized) <= 1e-12

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (7, 2), (9, 3),
                                       (16, 16), (15, 21), (8, 33)])
    def test_real_frame_spectra(self, shape):
        rng = np.random.default_rng(sum(shape))
        prev, curr = rng.random(shape), rng.random(shape)
        weights = hermitian_weights(shape[1])
        half_prev = np.abs(scipy.fft.rfft2(prev))
        half_curr = np.abs(scipy.fft.rfft2(curr))
        full_prev = np.abs(scipy.fft.fft2(prev))
        full_curr = np.abs(scipy.fft.fft2(curr))
        assert sim_freq(half_prev, half_curr, weights) == pytest.approx(
            sim_freq(full_prev, full_curr), abs=1e-12)
        half = spectral_entropy(half_curr, weights)
        full = spectral_entropy(full_curr)
        assert half.raw == pytest.approx(full.raw, abs=1e-12)
        assert half.normalized == pytest.approx(full.normalized, abs=1e-12)
