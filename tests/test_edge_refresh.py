import math

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
    refresh_mask,
)
from freqcache.scenes import SceneSpec, generate_scene

from oracles import (
    naive_dct2,
    naive_patch_energy,
    patch_energy_scanned,
    population_stats,
)


def dropped_coefficients(p):
    """The DCT coefficients (u, v) that ``patch_energy`` drops.

    Each patch is the inverse orthonormal DCT of the single coefficient 3 at
    (u, v); its energy is 9 if (u, v) is kept, else 0 up to the squared
    round-off of the transform pair (about 1e-31 at P = 8).
    """
    dropped = set()
    for u in range(p):
        for v in range(p):
            coeffs = np.zeros((p, p))
            coeffs[u, v] = 3.0
            patch = scipy.fft.idctn(coeffs, norm="ortho")
            e = patch_energy(PatchGrid(patch, p))[0, 0]
            if e < 1e-24:
                dropped.add((u, v))
            else:
                assert e == pytest.approx(9.0, rel=1e-12)
    return dropped


TINY = np.finfo(np.float64).smallest_subnormal
GREY_LEVELS = [0.0, -0.0, TINY, -3 * TINY, 2.0 ** -1040, 2.0 ** -1022] + [
    s * 2.0 ** k for k in range(-1000, 1001, 40) for s in (1, -1)]


def flat_patch_frames(p, seed, levels=GREY_LEVELS, rows=3, cols=4):
    """Frames of P x P patches, each flat, two-level, flat but one pixel a
    ulp away, or random, one frame per grey level (by default +-0,
    subnormals and +-2^k up to 2^1000), each patch's level scaled by a
    factor in [1, 2)."""
    rng = np.random.default_rng(seed)
    for shift, level in enumerate(levels):
        frame = np.empty((rows * p, cols * p))
        for i in range(rows):
            for j in range(cols):
                g = level * rng.uniform(1.0, 2.0)
                patch = np.full((p, p), g)
                kind = (i * cols + j + shift) % 4
                if kind == 1:
                    patch[:, : p // 2] = 2.0 * g
                elif kind == 2:
                    patch[rng.integers(p), rng.integers(p)] = np.nextafter(
                        g, np.inf)
                elif kind == 3:
                    patch = g * rng.random((p, p))
                frame[i * p:(i + 1) * p, j * p:(j + 1) * p] = patch
        yield frame


def assert_pins_like_whole_frame_scan(frames, p):
    """``patch_energy`` tests only the patches its DCT corner lets be flat;
    it must pin exactly the ones a max == min scan of every patch pins, and
    leave every other energy's bits alone."""
    for frame in frames:
        grid = PatchGrid(frame, p)
        assert np.array_equal(patch_energy(grid).view(np.uint64),
                              patch_energy_scanned(grid).view(np.uint64))


class TestHighpassFilter:
    """``patch_energy`` drops exactly the low-frequency DCT corner."""

    def test_p8_zeroes_two_by_two_corner(self):
        assert dropped_coefficients(8) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_p4_zeroes_dc_only(self):
        assert dropped_coefficients(4) == {(0, 0)}

    def test_p2_zeroes_dc_only(self):
        assert dropped_coefficients(2) == {(0, 0)}

    def test_cutoff_values(self):
        assert cutoff_index(8) == 2
        assert cutoff_index(4) == 1
        assert cutoff_index(2) == 1
        assert cutoff_index(16) == 4


class TestPatchEnergy:
    def test_constant_patch_scores_zero(self):
        grid = PatchGrid(np.full((8, 8), 3.7), 8)
        assert patch_energy(grid)[0, 0] == 0.0

    def test_flat_frames_refresh_nothing(self):
        # Round-off leaves ~1e-30 on a flat patch, more on brighter ones:
        # unless it is pinned to 0, a frame of flat patches at several grey
        # levels has an energy spread for refresh_mask to flag.
        rng = np.random.default_rng(12)
        levels = rng.choice([0.123, 0.37, 0.5, 0.9], size=(8, 12))
        for frame in (np.full((64, 96), 0.37),
                      np.kron(levels, np.ones((8, 8)))):
            decision = decide(rng.random((64, 96)), frame,
                              CacheConfig(patch_size=8))
            assert decision.refresh_set == ()

    @pytest.mark.parametrize("p", [2, 3, 4, 8, 16, 32])
    def test_flat_patches_pinned_like_whole_frame_scan(self, p):
        assert_pins_like_whole_frame_scan(flat_patch_frames(p, seed=p), p)

    @pytest.mark.parametrize("p", [8, 32])
    def test_overflowing_projection_pins_like_whole_frame_scan(self, p):
        # Near the largest float the projection overflows to inf and NaN
        # (NumPy warns of it); the flat patches are still the ones pinned.
        levels = [s * 2.0 ** k for k in (1016, 1022) for s in (1, -1)]
        frames = [*flat_patch_frames(p, seed=p, levels=levels),
                  np.full((3 * p, 4 * p), 1.5 * 2.0 ** 1023)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_pins_like_whole_frame_scan(frames, p)

    @pytest.mark.parametrize("p", [2, 3, 8, 16, 32])
    def test_identical_patches_score_bit_identical(self, p):
        rng = np.random.default_rng(p)
        patch = rng.random((p, p))
        for rows, cols in ((24, 40), (40, 24), (9, 9), (1, 7), (5, 1)):
            frame = np.tile(patch, (rows, cols))
            energies = patch_energy(PatchGrid(frame, p))
            assert energies.shape == (rows, cols)
            assert len(np.unique(energies)) == 1

    def test_step_edge_beats_smooth_ramp(self):
        step = np.zeros((8, 8))
        step[:, 4:] = 1.0
        ramp = np.tile(np.linspace(0.0, 1.0, 8), (8, 1))
        frame = np.concatenate([step, ramp], axis=1)
        e_step, e_ramp = patch_energy(PatchGrid(frame, 8))[0]
        # independent oracle fixes both values
        assert e_step == pytest.approx(naive_patch_energy(step, 2), abs=1e-9)
        assert e_ramp == pytest.approx(naive_patch_energy(ramp, 2), abs=1e-9)
        assert e_step > e_ramp

    def test_parseval_decomposition(self):
        rng = np.random.default_rng(0)
        patch = rng.standard_normal((8, 8))
        energy = patch_energy(PatchGrid(patch, 8))[0, 0]
        coeffs = naive_dct2(patch)
        total = np.sum(coeffs ** 2)
        low = np.sum(coeffs[:2, :2] ** 2)
        assert energy == pytest.approx(total - low, abs=1e-9)

    def test_energy_bounded_by_pixel_energy(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal((32, 32))
        grid = PatchGrid(frame, 8)
        energies = patch_energy(grid)
        bounds = np.sum(grid.blocks() ** 2, axis=(2, 3))
        assert np.all((0.0 <= energies) & (energies <= bounds + 1e-9))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        frame = rng.random((16, 16))
        grid = PatchGrid(frame, 8)
        energies = patch_energy(grid)
        for i in range(2):
            for j in range(2):
                expected = naive_patch_energy(grid.blocks()[i, j], 2)
                assert energies[i, j] == pytest.approx(expected, abs=1e-9)

    @given(seed=st.integers(0, 2**31 - 1), p=st.sampled_from([2, 3, 4, 5, 8]),
           rows=st.integers(1, 3), cols=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_oracle_property(self, seed, p, rows, cols):
        frame = np.random.default_rng(seed).standard_normal((rows * p, cols * p))
        grid = PatchGrid(frame, p)
        energies = patch_energy(grid)
        for i in range(rows):
            for j in range(cols):
                expected = naive_patch_energy(grid.blocks()[i, j],
                                              cutoff_index(p))
                assert abs(energies[i, j] - expected) < 1e-9


class TestRefreshMask:
    def test_all_equal_energies_empty_mask(self):
        assert not refresh_mask(np.full((3, 3), 4.2), 0.25).any()
        # The pairwise sum of these 64 rounds their mean one ulp below them.
        energies = np.full((8, 8), 3.6410537891283936)
        assert float(energies.sum()) / energies.size < energies.min()
        for lam in (-1.0, 0.0, 0.25):
            assert not refresh_mask(energies, lam).any()

    def test_single_outlier_flagged(self):
        energies = np.array([[0.0, 0.0], [0.0, 100.0]])
        mean, std = population_stats(energies)                # 25, ~43.30
        assert mean + 0.25 * std == pytest.approx(35.825317547305483)
        assert refresh_mask(energies, 0.25).tolist() == [[False, False],
                                                         [False, True]]
        rng = np.random.default_rng(5)
        for _ in range(20):
            energies = rng.random((4, 4))
            mean, std = population_stats(energies)
            for lam in (-1.0, 0.0, 0.25, 1.0):
                assert np.array_equal(refresh_mask(energies, lam),
                                      energies > mean + lam * std)

    def test_equals_numpy_moments_at_every_threshold_an_energy_sets(self):
        # The sensitivity that puts NumPy's mean + sensitivity * std on each
        # energy: a moment one ulp off would flip some of these comparisons.
        rng = np.random.default_rng(6)
        for trial in range(300):
            shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
            energies = rng.exponential(size=shape) * 10.0 ** rng.integers(-30, 30)
            energies[rng.random(shape) < 0.2] = 0.0
            mu, sigma = float(energies.mean()), float(energies.std())
            if sigma == 0.0:
                continue
            for lam in (*((energies.ravel()[:40] - mu) / sigma), 0.0, 0.25):
                if not math.isfinite(lam):
                    continue
                assert np.array_equal(refresh_mask(energies, lam),
                                      energies > mu + float(lam) * sigma), trial

    def test_huge_sensitivity_empties_mask(self):
        energies = np.random.default_rng(3).random((4, 4))
        assert not refresh_mask(energies, 1e18).any()
        assert not refresh_mask(energies, math.inf).any()

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        frame = rng.random((32, 32))
        base_energy = patch_energy(PatchGrid(frame, 8))
        base_mask = refresh_mask(base_energy, 0.25)
        for c in (0.5, 2.0, 10.0):
            scaled_energy = patch_energy(PatchGrid(c * frame, 8))
            assert np.allclose(
                scaled_energy, c * c * base_energy,
                rtol=1e-9, atol=1e-12,
            )
            assert np.array_equal(
                refresh_mask(scaled_energy, 0.25), base_mask
            )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_flagged_set_shrinks_as_sensitivity_grows(self, seed):
        rng = np.random.default_rng(seed)
        energies = rng.random((4, 4)) * 10
        previous = None
        for lam in (-1.0, 0.0, 0.25, 1.0, 3.0):
            flagged = set(np.flatnonzero(refresh_mask(energies, lam).ravel()))
            if previous is not None:
                assert flagged <= previous
            previous = flagged


class TestEdgeInjectScenes:
    def test_mask_flags_exactly_the_injected_edges(self):
        spec = SceneSpec(kind="edge-inject", height=96, width=96, length=10,
                         seed=11, edge_count=8, patch_size=8)
        scene = generate_scene(spec)
        for frame, labels in zip(scene.frames, scene.edge_labels):
            grid = PatchGrid(frame, 8)
            mask = refresh_mask(patch_energy(grid), 0.25)
            flagged = set(np.flatnonzero(mask.ravel()))
            assert labels <= flagged, "an injected edge escaped the mask"
            background = grid.n_patches - len(labels)
            false_alarms = len(flagged - labels)
            assert false_alarms <= 0.05 * background
