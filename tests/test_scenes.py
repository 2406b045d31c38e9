import numpy as np
import pytest
import scipy.fft
from scipy.stats import spearmanr

from freqcache import phase_correlation, sim_freq, spectral_entropy
from freqcache.scenes import SceneSpec, generate_scene


def test_specs_reject_bad_values():
    with pytest.raises(ValueError):
        SceneSpec(kind="wobble")
    with pytest.raises(ValueError):
        SceneSpec(kind="noise", length=1)
    with pytest.raises(ValueError):
        generate_scene(SceneSpec(kind="edge-inject", height=30, width=30,
                                 patch_size=8))


def test_determinism():
    spec = SceneSpec(kind="edge-inject", height=64, width=64, length=8, seed=42)
    a = generate_scene(spec)
    b = generate_scene(spec)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)
    assert a.edge_labels == b.edge_labels


def test_translate_shift_is_recoverable_every_step():
    spec = SceneSpec(kind="translate", height=64, width=64, length=6,
                     seed=3, shift=(3, 5))
    scene = generate_scene(spec)
    for prev, curr in zip(scene.frames, scene.frames[1:]):
        disp = phase_correlation(prev, curr)
        assert (disp.di, disp.dj) == (3, 5)


def test_static_scene_has_unit_similarity():
    scene = generate_scene(SceneSpec(kind="static", length=4, seed=5))
    for prev, curr in zip(scene.frames, scene.frames[1:]):
        similarity = sim_freq(np.abs(scipy.fft.fft2(prev)),
                              np.abs(scipy.fft.fft2(curr)))
        assert similarity == pytest.approx(1.0, abs=1e-12)


def test_complexity_ramp_entropy_rises():
    spec = SceneSpec(kind="complexity-ramp", height=64, width=64, length=20,
                     seed=7)
    scene = generate_scene(spec)
    entropies = [spectral_entropy(np.abs(scipy.fft.fft2(f))).normalized
                 for f in scene.frames]
    rho = spearmanr(range(len(entropies)), entropies).statistic
    assert rho > 0.9


def test_edge_labels_index_the_injected_patches():
    spec = SceneSpec(kind="edge-inject", height=48, width=48, length=9,
                     seed=9, edge_count=5, patch_size=8)
    scene = generate_scene(spec)
    assert scene.edge_labels[0] <= scene.edge_labels[-1]
    assert len(scene.edge_labels[-1]) == 5
    cols = 48 // 8
    background = generate_scene(
        SceneSpec(kind="edge-inject", height=48, width=48, length=9, seed=9,
                  edge_count=5, patch_size=8, gradient_range=(0.15, 0.85))
    )
    final = scene.frames[-1]
    for idx in scene.edge_labels[-1]:
        i, j = divmod(idx, cols)
        patch = final[i * 8:(i + 1) * 8, j * 8:(j + 1) * 8]
        values = set(np.round(patch, 6).ravel())
        assert values == {0.15, 0.85}  # a pure two-level step edge
    assert background.edge_labels == scene.edge_labels


def test_labels_empty_for_other_kinds():
    for kind in ("translate", "static", "noise", "complexity-ramp"):
        scene = generate_scene(SceneSpec(kind=kind, length=4, seed=1))
        assert all(s == frozenset() for s in scene.edge_labels)


def test_frames_stay_in_unit_range():
    for kind in ("translate", "static", "noise", "complexity-ramp"):
        scene = generate_scene(SceneSpec(kind=kind, length=5, seed=2))
        for f in scene.frames:
            assert f.min() >= 0.0 and f.max() <= 1.0
