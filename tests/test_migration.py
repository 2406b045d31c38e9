import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcache import (
    CacheConfig,
    DegenerateSpectrumError,
    Displacement,
    PatchGrid,
    alignment_mask,
    decide,
    phase_correlation_spectra,
    sim_freq,
)
from freqcache import migration
from freqcache.migration import _impulse_displacement

from oracles import (
    brute_force_displacement,
    impulse_displacement_scanned,
    phase_correlation_full_spectrum,
    phase_correlation_of,
    sim_spatial,
)


def raw_pixels(patch):
    return patch.ravel()


def amplitude_of(frame):
    return np.abs(scipy.fft.fft2(frame))


def static_edge_shot(rng, size, p, length):
    """Frames of a static shot: a tilted gradient plus a slow sinusoid,
    with one more step-edge patch stamped on each frame after the first,
    rounded to float32."""
    y, x = np.mgrid[0:size, 0:size] / size
    a, b = rng.uniform(-1.0, 1.0, size=2)
    field = a * x + b * y + 0.3 * np.sin(2.0 * np.pi * (x + y)
                                         + rng.uniform(0.0, 2.0 * np.pi))
    field = 0.2 + 0.6 * (field - field.min()) / np.ptp(field)
    cols = size // p
    positions = rng.choice(cols * cols, size=length - 1, replace=False)
    frames = [field]
    for index in positions.tolist():
        frame = frames[-1].copy()
        i, j = divmod(index, cols)
        edge = np.full((p, p), 0.05)
        if rng.integers(0, 2):
            edge[:, p // 2:] = 0.95
        else:
            edge[p // 2:, :] = 0.95
        frame[i * p:(i + 1) * p, j * p:(j + 1) * p] = edge
        frames.append(frame)
    return [f.astype(np.float32).astype(np.float64) for f in frames]


def tied_energy_pairs():
    """Criterion 6's tie bucket: 32² frame pairs of duplicated low-energy
    8² patches inside an aperiodic frame, ``curr`` a cyclic shift of
    ``prev`` by up to 4 pixels on each axis."""
    rng = np.random.default_rng(600)
    for _ in range(200):
        curr = rng.random((32, 32))
        dup = np.full((8, 8), 0.5)
        dup[0, 0] = 0.52
        blocks = curr.reshape(4, 8, 4, 8).swapaxes(1, 2)
        for bi, bj in ((0, 1), (1, 2), (2, 0), (3, 3)):
            blocks[bi, bj] = dup
        shift = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        yield np.roll(curr, (-shift[0], -shift[1]), axis=(0, 1)), curr


class TestSimSpatial:
    """The visual-domain reference of criterion 2 is a cosine: 1 on equal
    frames, -1 on negated ones, and below ``sim_freq`` under a shift."""

    def test_identical_frames(self):
        frame = np.random.default_rng(0).random((16, 16)) + 0.1
        assert sim_spatial(frame, frame, 4, raw_pixels) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_negated_frame_is_antipodal(self):
        frame = np.random.default_rng(1).random((16, 16)) + 0.1
        assert sim_spatial(frame, -frame, 4, raw_pixels) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_shifted_frame_scores_below_sim_freq(self):
        rng = np.random.default_rng(2)
        prev = rng.random((32, 32))
        curr = np.roll(prev, (8, 0), axis=(0, 1))  # one whole patch row
        spatial = sim_spatial(prev, curr, 8, raw_pixels)
        freq = sim_freq(amplitude_of(prev), amplitude_of(curr))
        assert spatial < freq
        assert freq >= 1.0 - 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sim_spatial(np.ones((8, 8)), np.ones((8, 4)), 4, raw_pixels)


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
        disp = phase_correlation_of(frame, frame)
        assert (disp.di, disp.dj) == (0, 0)

    def test_recovers_cyclic_shift(self):
        frame = np.random.default_rng(6).random((64, 64))
        curr = np.roll(frame, (3, 5), axis=(0, 1))
        disp = phase_correlation_of(frame, curr)
        assert (disp.di, disp.dj) == (3, 5)

    def test_wraparound_canonicalization(self):
        frame = np.random.default_rng(7).random((64, 64))
        curr = np.roll(frame, (61, 0), axis=(0, 1))
        disp = phase_correlation_of(frame, curr)
        assert (disp.di, disp.dj) == (-3, 0)

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            prev = rng.random((32, 32))
            shift = (int(rng.integers(-10, 11)), int(rng.integers(-10, 11)))
            curr = np.roll(prev, shift, axis=(0, 1))
            disp = phase_correlation_of(prev, curr)
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
        for prev, curr in tied_energy_pairs():
            self._assert_matches_oracle(prev, curr, 8)

    def test_half_spectrum_matches_oracle_on_static_edge_frames(self):
        # Static low-texture shots: a smooth gradient onto which step-edge
        # patches appear, true shift (0, 0). The correlation peak is weak
        # here, so the single-precision inverse must still find the
        # oracle's peak.
        rng = np.random.default_rng(700)
        for size, p in ((64, 8), (96, 16), (224, 16)):
            for _ in range(4):
                frames = static_edge_shot(rng, size, p, 5)
                for prev, curr in zip(frames, frames[1:]):
                    self._assert_matches_oracle(prev, curr, p)
                    self._assert_matches_oracle(curr, curr, p)

    @staticmethod
    def _assert_matches_oracle(prev, curr, patch_size):
        spectra = scipy.fft.rfft2(prev), scipy.fft.rfft2(curr)
        got = phase_correlation_spectra(*spectra, prev.shape, patch_size)
        assert got == phase_correlation_full_spectrum(
            scipy.fft.fft2(prev), scipy.fft.fft2(curr), patch_size)
        # complex128 spectra give what their complex64 rounding, the
        # spectra decide carries, gives
        assert got == phase_correlation_spectra(
            *(s.astype(np.complex64) for s in spectra), prev.shape, patch_size)

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
        disp = phase_correlation_of(frame, curr, patch_size=8)
        # 12/8 = 1.5 rounds toward zero; -4/8 = -0.5 rounds toward zero
        assert (disp.di_patches, disp.dj_patches) == (1, 0)


class TestImpulsePeak:
    """The one-``argmax`` peak search gives what the full ``==`` scan of
    the peak value gave (``impulse_displacement_scanned``)."""

    @staticmethod
    def assert_matches_scan(response):
        assert _impulse_displacement(response) == \
            impulse_displacement_scanned(response)

    @pytest.mark.parametrize("shape", [(8, 8), (9, 6), (32, 17)])
    def test_ties_before_at_and_after_the_first_maximum(self, shape):
        rng = np.random.default_rng(sum(shape))
        n = shape[0] * shape[1]
        for _ in range(200):
            response = rng.random(shape, dtype=np.float32)
            flat = response.ravel()
            first = int(rng.integers(1, n - 1))
            flat[first] = 2.0
            # Ties before the first maximum move it, ties after it do not;
            # either side may hold the one the tie rule prefers.
            before = rng.choice(first, size=min(first, int(rng.integers(3))),
                                replace=False)
            rest = n - first - 1
            after = first + 1 + rng.choice(
                rest, size=min(rest, int(rng.integers(3))), replace=False)
            flat[before] = 2.0
            flat[after] = 2.0
            self.assert_matches_scan(response)

    def test_ties_of_both_signed_zeros(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            response = -rng.random((12, 10))
            flat = response.ravel()
            zeros = rng.choice(flat.size, size=4, replace=False)
            flat[zeros] = [0.0, -0.0, -0.0, 0.0][:len(zeros)]
            self.assert_matches_scan(response)
            rng.shuffle(flat)
            self.assert_matches_scan(response)

    @pytest.mark.parametrize("where", [0, 13, -1])
    def test_nan_response_gives_no_shift(self, where):
        response = np.random.default_rng(6).random((8, 8))
        response.ravel()[where] = np.nan
        response.ravel()[40] = 5.0
        assert _impulse_displacement(response) == (0, 0)
        self.assert_matches_scan(response)

    def test_tie_frames_of_criterion_6(self, monkeypatch):
        # every response the correlation reads on the tie frames
        seen = []

        def checked(response):
            seen.append(response.shape)
            self.assert_matches_scan(response)
            return _impulse_displacement(response)

        monkeypatch.setattr(migration, "_impulse_displacement", checked)
        for prev, curr in tied_energy_pairs():
            phase_correlation_of(prev, curr, 8)
        assert len(seen) == 200


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
    """``decide`` flushes a step whose ``sim_freq`` lies strictly below
    ``tau_mig`` and proceeds otherwise."""

    @staticmethod
    def pair():
        """A textured frame and an unrelated, dimmer one whose ``sim_freq``
        lies strictly inside (0, 1)."""
        rng = np.random.default_rng(20)
        curr = 0.2 * rng.random((32, 32))
        return rng.random((32, 32)), curr - curr.mean() + 0.01

    @staticmethod
    def decide_at(prev, curr, tau_mig):
        return decide(prev, curr, CacheConfig(patch_size=8, tau_mig=tau_mig))

    def test_high_similarity_proceeds(self):
        frame = self.pair()[0]
        d = self.decide_at(frame, frame, 0.12)
        assert d.sim_freq == pytest.approx(1.0, abs=1e-12)
        assert not d.flushed and d.k_final > 0

    def test_zero_similarity_flushes(self):
        # Row and column cosines have disjoint spectral support.
        i, j = np.mgrid[0:32, 0:32]
        prev, curr = np.cos(2 * np.pi * i / 8), np.cos(2 * np.pi * j / 8)
        d = self.decide_at(prev, curr, 0.12)
        assert d.sim_freq == pytest.approx(0.0, abs=1e-12)
        assert d.flushed and d.diagnostic is None and d.k_final == 0

    def test_boundary_is_strict(self):
        prev, curr = self.pair()
        sim = self.decide_at(prev, curr, 0.0).sim_freq
        assert 0.0 < sim < 1.0
        at = self.decide_at(prev, curr, sim)
        assert at.sim_freq == sim and not at.flushed and at.k_final > 0
        above = self.decide_at(prev, curr, float(np.nextafter(sim, 2.0)))
        assert above.flushed and above.diagnostic is None
        assert above.k_final == 0

    @given(tau_lo=st.floats(0, 1), tau_hi=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_lowering_threshold_never_flushes_more(self, tau_lo, tau_hi):
        prev, curr = self.pair()
        lo, hi = sorted((tau_lo, tau_hi))
        if not self.decide_at(prev, curr, hi).flushed:
            assert not self.decide_at(prev, curr, lo).flushed
