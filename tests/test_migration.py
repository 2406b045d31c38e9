import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcache import (
    ConstantFrameError,
    DegenerateSpectrumError,
    Displacement,
    GateAction,
    PatchGrid,
    alignment_mask,
    migration_gate,
    phase_correlation,
    phase_correlation_spectra,
    sim_freq,
    sim_spatial,
)

from oracles import brute_force_displacement, phase_correlation_full_spectrum


def raw_pixels(patch):
    return patch.ravel()


def amplitude_of(frame):
    return np.abs(scipy.fft.fft2(frame))


class TestSimSpatial:
    def test_identical_frames(self):
        frame = np.random.default_rng(0).random((16, 16)) + 0.1
        grid = PatchGrid(frame, 4)
        assert sim_spatial(frame, frame, grid, raw_pixels) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_negated_frame_is_antipodal(self):
        frame = np.random.default_rng(1).random((16, 16)) + 0.1
        grid = PatchGrid(frame, 4)
        assert sim_spatial(frame, -frame, grid, raw_pixels) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_shifted_frame_scores_below_sim_freq(self):
        rng = np.random.default_rng(2)
        prev = rng.random((32, 32))
        curr = np.roll(prev, (8, 0), axis=(0, 1))  # one whole patch row
        grid = PatchGrid(curr, 8)
        spatial = sim_spatial(prev, curr, grid, raw_pixels)
        freq = sim_freq(amplitude_of(prev), amplitude_of(curr))
        assert spatial < freq
        assert freq >= 1.0 - 1e-9

    def test_zero_norm_embedding_warns_and_contributes_zero(self):
        prev = np.zeros((8, 8))
        prev[4:, :] = 1.0  # top-left patch is all zero
        grid = PatchGrid(prev, 4)
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            value = sim_spatial(prev, prev, grid, raw_pixels)
        assert value == pytest.approx(2 / 4)  # two zero patches of four

    def test_shape_mismatch_rejected(self):
        grid = PatchGrid(np.ones((8, 8)), 4)
        with pytest.raises(ValueError):
            sim_spatial(np.ones((8, 8)), np.ones((8, 4)), grid, raw_pixels)


class TestSimFreq:
    def test_identical_spectra(self):
        amp = amplitude_of(np.random.default_rng(3).random((16, 16)))
        assert sim_freq(amp, amp) == pytest.approx(1.0, abs=1e-12)

    def test_cyclic_shift_invariance(self):
        frame = np.random.default_rng(4).random((24, 24))
        shifted = np.roll(frame, (5, 11), axis=(0, 1))
        assert sim_freq(amplitude_of(frame), amplitude_of(shifted)) >= 1 - 1e-9

    def test_disjoint_support_is_orthogonal(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 1] = 1.0
        b[2, 3] = 1.0
        assert sim_freq(a, b) == 0.0

    def test_all_zero_grid_rejected(self):
        with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
            sim_freq(np.zeros((4, 4)), np.ones((4, 4)))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            sim_freq(np.full((4, 4), -1.0), np.ones((4, 4)))


class TestPhaseCorrelation:
    def test_zero_shift(self):
        frame = np.random.default_rng(5).random((64, 64))
        disp = phase_correlation(frame, frame)
        assert (disp.di, disp.dj) == (0, 0)

    def test_recovers_cyclic_shift(self):
        frame = np.random.default_rng(6).random((64, 64))
        curr = np.roll(frame, (3, 5), axis=(0, 1))
        disp = phase_correlation(frame, curr)
        assert (disp.di, disp.dj) == (3, 5)

    def test_wraparound_canonicalization(self):
        frame = np.random.default_rng(7).random((64, 64))
        curr = np.roll(frame, (61, 0), axis=(0, 1))
        disp = phase_correlation(frame, curr)
        assert (disp.di, disp.dj) == (-3, 0)

    def test_constant_frame_rejected(self):
        with pytest.raises(ConstantFrameError, match="no texture"):
            phase_correlation(np.full((8, 8), 0.5), np.random.random((8, 8)))

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            prev = rng.random((32, 32))
            shift = (int(rng.integers(-10, 11)), int(rng.integers(-10, 11)))
            curr = np.roll(prev, shift, axis=(0, 1))
            disp = phase_correlation(prev, curr)
            assert (disp.di, disp.dj) == brute_force_displacement(prev, curr)

    @pytest.mark.parametrize("shape", [(32, 32), (33, 33), (24, 40),
                                       (40, 27), (17, 64)])
    def test_half_spectrum_matches_full_spectrum_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        h, w = shape
        for _ in range(20):
            prev = rng.random(shape)
            shift = (int(rng.integers(-h, h)), int(rng.integers(-w, w)))
            curr = np.roll(prev, shift, axis=(0, 1))
            self._assert_matches_oracle(prev, curr, 1)

    def test_half_spectrum_matches_oracle_on_tied_energy_frames(self):
        # criterion 6's tie bucket: duplicated low-energy patches inside an
        # aperiodic frame
        rng = np.random.default_rng(600)
        for _ in range(200):
            curr = rng.random((32, 32))
            dup = np.full((8, 8), 0.5)
            dup[0, 0] = 0.52
            blocks = curr.reshape(4, 8, 4, 8).swapaxes(1, 2)
            for bi, bj in ((0, 1), (1, 2), (2, 0), (3, 3)):
                blocks[bi, bj] = dup
            shift = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            prev = np.roll(curr, (-shift[0], -shift[1]), axis=(0, 1))
            self._assert_matches_oracle(prev, curr, 8)

    @staticmethod
    def _assert_matches_oracle(prev, curr, patch_size):
        got = phase_correlation_spectra(scipy.fft.rfft2(prev),
                                        scipy.fft.rfft2(curr), prev.shape,
                                        patch_size)
        assert got == phase_correlation_full_spectrum(
            scipy.fft.fft2(prev), scipy.fft.fft2(curr), patch_size)

    def test_half_spectra_are_only_read(self):
        prev = np.random.default_rng(10).random((16, 20))
        curr = np.roll(prev, (3, -4), axis=(0, 1))
        spectra = [scipy.fft.rfft2(f) for f in (prev, curr)]
        for spec in spectra:
            spec.flags.writeable = False
        disp = phase_correlation_spectra(*spectra, prev.shape)
        assert (disp.di, disp.dj) == (3, -4)

    def test_half_spectrum_shape_must_match_frame(self):
        spec = scipy.fft.rfft2(np.random.default_rng(11).random((16, 20)))
        with pytest.raises(ValueError, match="do not match frame shape"):
            phase_correlation_spectra(spec, spec, (16, 22))
        with pytest.raises(ValueError, match="do not match frame shape"):
            phase_correlation_spectra(spec, spec[:, :-1], (16, 20))

    def test_patch_quantization(self):
        frame = np.random.default_rng(9).random((64, 64))
        curr = np.roll(frame, (12, -4), axis=(0, 1))
        disp = phase_correlation(frame, curr, patch_size=8)
        # 12/8 = 1.5 rounds toward zero; -4/8 = -0.5 rounds toward zero
        assert (disp.di_patches, disp.dj_patches) == (1, 0)


class TestDisplacementQuantization:
    @pytest.mark.parametrize(
        "pixels,expected",
        [(0, 0), (3, 0), (4, 0), (5, 1), (8, 1), (12, 1), (13, 2),
         (-3, 0), (-4, 0), (-5, -1), (-12, -1), (-13, -2)],
    )
    def test_rounding_half_toward_zero(self, pixels, expected):
        disp = Displacement.from_pixels(pixels, 0, patch_size=8)
        assert disp.di_patches == expected


class TestAlignmentMask:
    def test_zero_displacement_full_overlap(self):
        grid = PatchGrid(np.ones((16, 16)), 4)
        mask = alignment_mask(Displacement(0, 0, 0, 0), grid)
        assert mask.sum() == 16

    def test_one_row_leaves_overlap(self):
        grid = PatchGrid(np.ones((16, 16)), 4)
        mask = alignment_mask(Displacement(4, 0, 1, 0), grid)
        assert mask.sum() == 12
        assert not mask[0].any()  # top row has no source

    def test_no_overlap(self):
        grid = PatchGrid(np.ones((16, 16)), 4)
        mask = alignment_mask(Displacement(0, 0, 4, 0), grid)
        assert mask.sum() == 0

    @given(di=st.integers(-6, 6), dj=st.integers(-6, 6),
           rows=st.integers(1, 5), cols=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_popcount_property(self, di, dj, rows, cols):
        grid = PatchGrid(np.ones((rows * 2, cols * 2)), 2)
        mask = alignment_mask(Displacement(di * 2, dj * 2, di, dj), grid)
        expected = max(0, rows - abs(di)) * max(0, cols - abs(dj))
        assert int(mask.sum()) == expected


class TestMigrationGate:
    def test_high_similarity_proceeds(self):
        assert migration_gate(1.0, 0.12) is GateAction.PROCEED

    def test_zero_similarity_flushes(self):
        assert migration_gate(0.0, 0.12) is GateAction.FLUSH

    def test_boundary_is_strict(self):
        assert migration_gate(0.12, 0.12) is GateAction.PROCEED

    @given(sim=st.floats(0, 1), tau_lo=st.floats(0, 1), tau_hi=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_lowering_threshold_never_flushes_more(self, sim, tau_lo, tau_hi):
        lo, hi = sorted((tau_lo, tau_hi))
        if migration_gate(sim, hi) is GateAction.PROCEED:
            assert migration_gate(sim, lo) is GateAction.PROCEED
