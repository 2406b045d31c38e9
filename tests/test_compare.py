import re
import warnings

import numpy as np
import pytest

from freqcache import CacheConfig, modeled_cost, run_sequence
from freqcache import PatchGrid
from freqcache.compare import compare_domains
from freqcache.scenes import SceneSpec, generate_scene

from oracles import CountingFrames, count_frame_scans


def test_translate_scene_frequency_policy_wins():
    scene = generate_scene(
        SceneSpec(kind="translate", height=64, width=64, length=8, seed=0,
                  shift=(3, 5))
    )
    report = compare_domains(scene.frames, CacheConfig(patch_size=8))
    policies = report["policies"]
    assert policies["freqcache"]["reuse_ratio"] > policies["visual"]["reuse_ratio"]
    assert policies["freqcache"]["speedup"] > policies["visual"]["speedup"]


def test_edge_scene_pipeline_never_reuses_edges():
    scene = generate_scene(
        SceneSpec(kind="edge-inject", height=96, width=96, length=12, seed=1,
                  edge_count=6, patch_size=8)
    )
    report = compare_domains(scene.frames, CacheConfig(patch_size=8),
                             edge_labels=scene.edge_labels)
    policies = report["policies"]
    assert policies["freqcache"]["edge_false_reuse"] == 0
    # the position-wise baselines happily reuse a persisting edge patch
    assert policies["visual"]["edge_false_reuse"] > 0
    assert policies["naive_freq"]["edge_false_reuse"] > 0


def test_static_scene_all_policies_reach_their_caps():
    scene = generate_scene(
        SceneSpec(kind="static", height=64, width=64, length=6, seed=2)
    )
    cfg = CacheConfig(patch_size=8, edge_lambda=1e15,
                      alpha_min=0.4, alpha_max=0.4)
    report = compare_domains(scene.frames, cfg)
    policies = report["policies"]
    n = report["n_tokens"]
    assert policies["freqcache"]["reuse_ratio"] == pytest.approx(
        int(0.4 * n) / n
    )
    assert policies["visual"]["reuse_ratio"] == 1.0
    assert policies["naive_freq"]["reuse_ratio"] == 1.0


def test_missing_labels_reported_as_none():
    rng = np.random.default_rng(3)
    frames = [rng.random((32, 32)) for _ in range(3)]
    report = compare_domains(frames, CacheConfig(patch_size=8))
    for stats in report["policies"].values():
        assert stats["edge_false_reuse"] is None


def test_latency_consistent_with_reuse():
    scene = generate_scene(
        SceneSpec(kind="translate", height=64, width=64, length=6, seed=4)
    )
    report = compare_domains(scene.frames, CacheConfig(patch_size=8))
    for stats in report["policies"].values():
        assert stats["mean_latency_ms"] <= report["baseline_latency_ms"]
        assert stats["speedup"] >= 1.0


def test_all_zero_frames_reuse_nothing_without_warning():
    # A zero-norm patch embedding scores cosine 0: the visual policy reuses
    # all of step 1 (equal frames) and nothing on the two steps that touch
    # an all-zero frame.
    frame = np.random.default_rng(6).random((32, 32))
    frames = [frame, frame.copy(), np.zeros((32, 32)), np.zeros((32, 32))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare_domains(frames, CacheConfig(patch_size=8))
    policies = report["policies"]
    assert policies["visual"]["reuse_ratio"] == 1 / 3
    assert policies["naive_freq"]["reuse_ratio"] == 1 / 3


def test_each_frame_is_embedded_once(monkeypatch):
    scene = generate_scene(
        SceneSpec(kind="translate", height=32, width=32, length=5, seed=4,
                  shift=(1, 2))
    )
    cut = []
    real = PatchGrid.blocks

    def spy(self):
        cut.append(self.frame)
        return real(self)

    monkeypatch.setattr(PatchGrid, "blocks", spy)
    compare_domains(scene.frames, CacheConfig(patch_size=8))
    assert len(cut) == 5


def test_each_frame_is_read_once():
    scene = generate_scene(
        SceneSpec(kind="translate", height=32, width=32, length=6, seed=4,
                  shift=(1, 2))
    )
    frames = CountingFrames(scene.frames)
    report = compare_domains(frames, CacheConfig(patch_size=8))
    assert frames.reads == [1] * 6
    assert report == compare_domains(scene.frames, CacheConfig(patch_size=8))


def test_finite_frames_are_not_scanned(monkeypatch):
    # decide scans each new frame with one min and one max, and compare
    # runs no step, so no full-frame isfinite or ptp scan is left.
    scene = generate_scene(
        SceneSpec(kind="translate", height=32, width=32, length=8, seed=4,
                  shift=(1, 2))
    )
    scans = count_frame_scans(monkeypatch, (32, 32))
    compare_domains(scene.frames, CacheConfig(patch_size=8))
    assert scans == {"min": 8, "max": 8}


@pytest.mark.parametrize("first,message", [
    (np.full((32, 32), np.nan), "step 1: frame contains non-finite values"),
    (np.ones((2, 32, 32)), "step 1: frame must be 2D"),
    (np.ones((32, 30)), "step 1: frame shapes differ: (32, 30) vs (32, 32)"),
])
def test_rejected_first_frame_names_step_one(first, message):
    # frame 0 is cut into patches only after decide has checked it
    frames = [first, np.ones((32, 32))]
    with pytest.raises(ValueError, match=re.escape(message)):
        compare_domains(frames, CacheConfig(patch_size=8))


def test_freqcache_policy_equals_run_sequence():
    scene = generate_scene(
        SceneSpec(kind="edge-inject", height=96, width=96, length=12, seed=5,
                  edge_count=6, patch_size=8)
    )
    cfg = CacheConfig(patch_size=8)
    policy = compare_domains(scene.frames, cfg)["policies"]["freqcache"]
    report = run_sequence(scene.frames, cfg)
    assert report.mean_reuse_ratio > 0.0
    assert policy["reuse_ratio"] == report.mean_reuse_ratio
    assert policy["mean_latency_ms"] == modeled_cost(
        [d.k_final for d in report.decisions], report.n_tokens)[1]
    assert policy["speedup"] == report.speedup


def test_an_iterator_gives_the_report_of_the_list():
    scene = generate_scene(
        SceneSpec(kind="edge-inject", height=64, width=64, length=6, seed=6,
                  edge_count=4, patch_size=8)
    )
    cfg = CacheConfig(patch_size=8)
    report = run_sequence(scene.frames, cfg)
    assert report.n_frames == 6
    assert run_sequence(iter(scene.frames), cfg) == report
    compared = compare_domains(scene.frames, cfg,
                               edge_labels=scene.edge_labels)
    assert compared["n_steps"] == 5
    assert compare_domains(iter(scene.frames), cfg,
                           edge_labels=scene.edge_labels) == compared


@pytest.mark.parametrize("key,value", [
    ("tau_visual", float("nan")), ("tau_naive_freq", 1.5),
    ("tau_visual", -1.01),
])
def test_threshold_that_is_not_a_cosine_is_rejected(key, value):
    frames = [np.ones((16, 16))] * 2
    with pytest.raises(ValueError, match=re.escape(
            f"{key} must be a cosine in [-1, 1], got {value}")):
        compare_domains(frames, CacheConfig(patch_size=8), **{key: value})


@pytest.mark.parametrize("frames", [[], [np.ones((16, 16))]])
def test_needs_two_frames(frames):
    with pytest.raises(ValueError, match="^need at least 2 frames$"):
        compare_domains(frames, CacheConfig(patch_size=8))
