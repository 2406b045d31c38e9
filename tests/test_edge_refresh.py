import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from freqcache import (
    EnergyMap,
    PatchGrid,
    cutoff_index,
    patch_energy,
    refresh_mask,
)
from freqcache.scenes import SceneSpec, generate_scene

from oracles import naive_dct2, naive_patch_energy, population_stats


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
            e = patch_energy(PatchGrid(patch, p)).energies[0, 0]
            if e < 1e-24:
                dropped.add((u, v))
            else:
                assert e == pytest.approx(9.0, rel=1e-12)
    return dropped


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
        emap = patch_energy(grid)
        assert emap.energies[0, 0] == pytest.approx(0.0, abs=1e-18)

    def test_step_edge_beats_smooth_ramp(self):
        step = np.zeros((8, 8))
        step[:, 4:] = 1.0
        ramp = np.tile(np.linspace(0.0, 1.0, 8), (8, 1))
        frame = np.concatenate([step, ramp], axis=1)
        emap = patch_energy(PatchGrid(frame, 8))
        e_step, e_ramp = emap.energies[0, 0], emap.energies[0, 1]
        # independent oracle fixes both values
        assert e_step == pytest.approx(naive_patch_energy(step, 2), abs=1e-9)
        assert e_ramp == pytest.approx(naive_patch_energy(ramp, 2), abs=1e-9)
        assert e_step > e_ramp

    def test_parseval_decomposition(self):
        rng = np.random.default_rng(0)
        patch = rng.standard_normal((8, 8))
        emap = patch_energy(PatchGrid(patch, 8))
        coeffs = naive_dct2(patch)
        total = np.sum(coeffs ** 2)
        low = np.sum(coeffs[:2, :2] ** 2)
        assert emap.energies[0, 0] == pytest.approx(total - low, abs=1e-9)

    def test_energy_bounded_by_pixel_energy(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal((32, 32))
        grid = PatchGrid(frame, 8)
        emap = patch_energy(grid)
        for i in range(grid.rows):
            for j in range(grid.cols):
                bound = np.sum(grid.patch(i, j) ** 2)
                assert 0.0 <= emap.energies[i, j] <= bound + 1e-9

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        frame = rng.random((16, 16))
        grid = PatchGrid(frame, 8)
        emap = patch_energy(grid)
        for i in range(2):
            for j in range(2):
                expected = naive_patch_energy(grid.patch(i, j), emap.cutoff)
                assert emap.energies[i, j] == pytest.approx(expected, abs=1e-9)


class TestRefreshMask:
    def test_all_equal_energies_empty_mask(self):
        emap = EnergyMap(np.full((3, 3), 4.2), 8, 2)
        result = refresh_mask(emap, 0.25)
        assert result.std_energy == 0.0
        assert not result.mask.any()

    def test_single_outlier_flagged(self):
        emap = EnergyMap(np.array([[0.0, 0.0], [0.0, 100.0]]), 8, 2)
        result = refresh_mask(emap, 0.25)
        mean, std = population_stats(emap.energies)
        assert result.mean_energy == pytest.approx(mean)      # 25
        assert result.std_energy == pytest.approx(std)        # ~43.30
        assert mean + 0.25 * std == pytest.approx(35.825317547305483)
        assert result.mask.tolist() == [[False, False], [False, True]]

    def test_huge_sensitivity_empties_mask(self):
        rng = np.random.default_rng(3)
        emap = EnergyMap(rng.random((4, 4)), 8, 2)
        assert not refresh_mask(emap, 1e18).mask.any()
        assert not refresh_mask(emap, math.inf).mask.any()

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        frame = rng.random((32, 32))
        base_energy = patch_energy(PatchGrid(frame, 8))
        base_mask = refresh_mask(base_energy, 0.25).mask
        for c in (0.5, 2.0, 10.0):
            scaled_energy = patch_energy(PatchGrid(c * frame, 8))
            assert np.allclose(
                scaled_energy.energies, c * c * base_energy.energies,
                rtol=1e-9, atol=1e-12,
            )
            assert np.array_equal(
                refresh_mask(scaled_energy, 0.25).mask, base_mask
            )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_flagged_set_shrinks_as_sensitivity_grows(self, seed):
        rng = np.random.default_rng(seed)
        emap = EnergyMap(rng.random((4, 4)) * 10, 8, 2)
        previous = None
        for lam in (-1.0, 0.0, 0.25, 1.0, 3.0):
            flagged = set(np.flatnonzero(refresh_mask(emap, lam).mask.ravel()))
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
            mask = refresh_mask(patch_energy(grid), 0.25).mask
            flagged = set(np.flatnonzero(mask.ravel()))
            assert labels <= flagged, "an injected edge escaped the mask"
            background = grid.n_patches - len(labels)
            false_alarms = len(flagged - labels)
            assert false_alarms <= 0.05 * background
