import math
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcache import (
    CacheConfig,
    DegenerateSpectrumError,
    reuse_budget,
    spectral_entropy,
)

from oracles import shannon_entropy_nats


class TestSpectralEntropy:
    def test_one_hot_spectrum_is_zero(self):
        amp = np.zeros((8, 8))
        amp[3, 5] = 7.0
        reading = spectral_entropy(amp)
        assert reading.raw == 0.0
        assert reading.normalized == 0.0

    def test_uniform_power_is_maximal(self):
        reading = spectral_entropy(np.full((8, 8), 2.0))
        assert reading.raw == pytest.approx(math.log(64), abs=1e-12)
        assert reading.normalized == pytest.approx(1.0, abs=1e-12)

    def test_two_bin_split_of_64(self):
        amp = np.zeros((8, 8))
        amp[0, 1] = 3.0
        amp[5, 2] = 3.0
        reading = spectral_entropy(amp)
        assert reading.raw == pytest.approx(math.log(2), abs=1e-12)
        assert reading.normalized == pytest.approx(1 / 6, abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
            spectral_entropy(np.zeros((4, 4)))

    def test_matches_plain_shannon_oracle(self):
        rng = np.random.default_rng(0)
        amp = rng.random((8, 8))
        power = amp ** 2
        expected = shannon_entropy_nats(power / power.sum())
        assert spectral_entropy(amp).raw == pytest.approx(expected, abs=1e-12)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        amp = rng.random((4, 6)) + 0.01
        shuffled = rng.permutation(amp.ravel()).reshape(amp.shape)
        assert spectral_entropy(shuffled).raw == pytest.approx(
            spectral_entropy(amp).raw, abs=1e-12
        )

    def test_noise_beats_gradient(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            noise = rng.random((64, 64))
            gradient = np.add.outer(
                np.linspace(0, 0.5, 64), np.linspace(0, 0.5, 64)
            )
            noisy = spectral_entropy(np.abs(scipy.fft.fft2(noise)))
            smooth = spectral_entropy(np.abs(scipy.fft.fft2(gradient)))
            assert noisy.normalized > smooth.normalized


class TestReuseBudget:
    CFG = CacheConfig(alpha_min=0.08, alpha_max=0.5)

    def test_zero_entropy_gives_alpha_max(self):
        alpha, k = reuse_budget(0.0, self.CFG, 196)
        assert alpha == pytest.approx(0.5)
        assert k == 98

    def test_full_entropy(self):
        alpha, k = reuse_budget(1.0, self.CFG, 196)
        assert alpha == pytest.approx(0.08 + 0.42 * math.exp(-1), abs=1e-12)
        assert k == 45

    def test_degenerate_bounds(self):
        cfg = CacheConfig(alpha_min=0.3, alpha_max=0.3)
        for psi in (0.0, 0.37, 1.0):
            alpha, _ = reuse_budget(psi, cfg, 100)
            assert alpha == pytest.approx(0.3)

    def test_alpha_range_bound(self):
        lo = 0.08 + 0.42 * math.exp(-1.0)
        for psi in np.linspace(0.0, 1.0, 101):
            alpha, _ = reuse_budget(psi, self.CFG, 50)
            assert lo - 1e-12 <= alpha <= 0.5 + 1e-12

    @given(a=st.floats(0, 1), b=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        alpha_lo, _ = reuse_budget(lo, self.CFG, 64)
        alpha_hi, _ = reuse_budget(hi, self.CFG, 64)
        assert alpha_lo >= alpha_hi
        if hi - lo > 1e-9:  # strict once the gap survives float rounding
            assert alpha_lo > alpha_hi

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reuse_budget(1.5, self.CFG, 10)
        with pytest.raises(ValueError):
            reuse_budget(0.5, self.CFG, 0)

    def test_config_validation(self):
        for a, b in [(0.6, 0.5), (-0.1, 0.5), (0.5, 1.5), (0.6, 0.55),
                     (float("nan"), 0.5)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"need 0 <= alpha_min <= alpha_max <= 1, got ({a}, {b})")):
                CacheConfig(alpha_min=a, alpha_max=b)
