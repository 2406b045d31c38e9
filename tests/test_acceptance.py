"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (run with ``-s`` to see
them live) and enforces the criterion's runtime budget where one is stated.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.fft
from scipy.stats import spearmanr

from freqcache import (
    CacheConfig,
    PatchGrid,
    cutoff_index,
    decide,
    modeled_latency_ms,
    patch_energy,
    refresh_mask,
    reuse_budget,
    run_sequence,
    sim_freq,
    spectral_entropy,
)
from freqcache.bench import bench
from freqcache.cli import main as cli_main
from freqcache.compare import compare_domains
from freqcache.fusion import _half_spectrum
from freqcache.scenes import SceneSpec, generate_scene

from oracles import (
    assert_decision_equivalence,
    brute_force_displacement,
    decide_reference,
    naive_dft2,
    naive_patch_energy,
    phase_correlation_of,
    sim_spatial,
)


@contextmanager
def criterion(num, desc, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeded the {budget_s}s budget"
            )
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc} [{elapsed:.1f}s]")


def test_criterion_1_transform_correctness():
    with criterion(1, "decide's rfft2 half spectrum and patch DCT energy "
                      "match naive oracles within 1e-9; irfft2 round trip "
                      "< 1e-9 at 64x64", budget_s=10.0):
        rng = np.random.default_rng(100)
        for _ in range(200):
            h = int(rng.integers(2, 17))
            w = int(rng.integers(2, 17))
            frame = rng.random((h, w))
            half = _half_spectrum(frame)[0]
            expected = naive_dft2(frame)[:, :w // 2 + 1]
            assert np.max(np.abs(half - expected)) < 1e-9
            patch = rng.standard_normal((h, h))
            energy = patch_energy(PatchGrid(patch, h))[0, 0]
            expected_energy = naive_patch_energy(patch, cutoff_index(h))
            assert abs(energy - expected_energy) < 1e-9
        frame = rng.random((64, 64))
        back = scipy.fft.irfft2(_half_spectrum(frame)[0], s=frame.shape)
        assert np.max(np.abs(back - frame)) < 1e-9


def test_criterion_2_fourier_shift_invariance():
    with criterion(2, "200 shift pairs: sim_freq >= 1 - 1e-9 and spatial "
                      "similarity strictly below it", budget_s=30.0):
        rng = np.random.default_rng(200)
        for _ in range(200):
            frame = rng.random((64, 64))
            while True:
                shift = (int(rng.integers(-31, 32)), int(rng.integers(-31, 32)))
                if shift != (0, 0):
                    break
            shifted = np.roll(frame, shift, axis=(0, 1))
            freq = sim_freq(np.abs(scipy.fft.fft2(frame)), np.abs(scipy.fft.fft2(shifted)))
            assert freq >= 1.0 - 1e-9
            spatial = sim_spatial(frame, shifted, 8, lambda p: p.ravel())
            assert spatial < freq


def test_criterion_3_phase_correlation_exact_recovery():
    with criterion(3, "100/100 cyclic shifts |delta| <= 16 recovered exactly, "
                      "matching the brute-force oracle", budget_s=60.0):
        rng = np.random.default_rng(300)
        hits = 0
        for _ in range(100):
            prev = rng.random((64, 64))
            shift = (int(rng.integers(-16, 17)), int(rng.integers(-16, 17)))
            curr = np.roll(prev, shift, axis=(0, 1))
            disp = phase_correlation_of(prev, curr)
            oracle = brute_force_displacement(prev, curr)
            assert (disp.di, disp.dj) == shift == oracle
            hits += 1
        assert hits == 100


def test_criterion_4_edge_awareness():
    with criterion(4, "edge-inject scenes: refresh mask flags 100% of edges, "
                      "<= 5% background; pipeline edge false-reuse is 0"):
        for seed in range(20):
            spec = SceneSpec(kind="edge-inject", height=96, width=96,
                             length=10, seed=seed, edge_count=8, patch_size=8)
            scene = generate_scene(spec)
            for frame, labels in zip(scene.frames, scene.edge_labels):
                grid = PatchGrid(frame, 8)
                mask = refresh_mask(patch_energy(grid), 0.25)
                flagged = set(np.flatnonzero(mask.ravel()))
                assert labels <= flagged
                background = grid.n_patches - len(labels)
                assert len(flagged - labels) <= 0.05 * background
            report = compare_domains(
                scene.frames, CacheConfig(patch_size=8),
                edge_labels=scene.edge_labels,
            )
            assert report["policies"]["freqcache"]["edge_false_reuse"] == 0


def test_criterion_5_entropy_budget_behavior():
    with criterion(5, "noise > gradient entropy 50/50; ramp Spearman > 0.9; "
                      "alpha non-increasing on a 1000-point grid"):
        gradient = np.add.outer(np.linspace(0.15, 0.5, 64),
                                np.linspace(0.0, 0.35, 64))
        smooth = spectral_entropy(np.abs(scipy.fft.fft2(gradient))).normalized
        for seed in range(50):
            noise = np.random.default_rng(seed).random((64, 64))
            noisy = spectral_entropy(np.abs(scipy.fft.fft2(noise))).normalized
            assert noisy > smooth
        for seed in range(20):
            spec = SceneSpec(kind="complexity-ramp", height=64, width=64,
                             length=24, seed=seed)
            scene = generate_scene(spec)
            readings = [spectral_entropy(np.abs(scipy.fft.fft2(f))).normalized
                        for f in scene.frames]
            rho = spearmanr(range(len(readings)), readings).statistic
            assert rho > 0.9
        cfg = CacheConfig()
        alphas = [reuse_budget(psi, cfg, 196)[0]
                  for psi in np.linspace(0.0, 1.0, 1000)]
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))


def test_criterion_6_algorithm_equivalence():
    with criterion(6, "decide matches decide_reference on 1000 instances "
                      "spanning flush/empty/budget-capped/tie cases",
                   budget_s=120.0):
        rng = np.random.default_rng(600)
        base_cfg = CacheConfig(patch_size=8)
        flush_cfg = CacheConfig(patch_size=8, tau_mig=1.0)
        empty_cfg = CacheConfig(patch_size=8, edge_lambda=-5.0)
        capped_cfg = CacheConfig(patch_size=8, alpha_min=0.1, alpha_max=0.2)
        flush_seen = empty_seen = capped_seen = tie_seen = 0
        for i in range(1000):
            bucket = i % 5
            prev = rng.random((32, 32))
            if bucket == 0:
                shift = (int(rng.integers(-16, 17)), int(rng.integers(-16, 17)))
                curr = np.roll(prev, shift, axis=(0, 1))
                cfg = base_cfg
            elif bucket == 1:
                curr = rng.random((32, 32))
                cfg = flush_cfg
            elif bucket == 2:
                curr = np.roll(prev, (int(rng.integers(-8, 9)), 0), axis=(0, 1))
                cfg = empty_cfg
            elif bucket == 3:
                curr = np.roll(prev, (0, int(rng.integers(-8, 9))), axis=(0, 1))
                cfg = capped_cfg
            else:
                # duplicate low-energy patch content inside an aperiodic
                # frame: exactly tied energies with a unique correlation peak
                curr = rng.random((32, 32))
                dup = np.full((8, 8), 0.5)
                dup[0, 0] = 0.52
                blocks = curr.reshape(4, 8, 4, 8).swapaxes(1, 2)
                for bi, bj in ((0, 1), (1, 2), (2, 0), (3, 3)):
                    blocks[bi, bj] = dup
                shift = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                prev = np.roll(curr, (-shift[0], -shift[1]), axis=(0, 1))
                cfg = capped_cfg if i % 2 else base_cfg
                tie_seen += 1
            fast = decide(prev, curr, cfg, step=i)
            ref = decide_reference(prev, curr, cfg, step=i)
            assert_decision_equivalence(fast, ref)
            flush_seen += fast.flushed
            empty_seen += fast.k_candidate == 0 and not fast.flushed
            capped_seen += 0 < fast.k_final == fast.k_reuse < fast.k_candidate
        assert flush_seen >= 200 and empty_seen >= 200
        assert capped_seen >= 150 and tie_seen == 200


def test_criterion_7_invariants_and_reproducibility(tmp_path):
    with criterion(7, "in-run invariants hold and identical seeds produce "
                      "byte-identical JSONL/CSV/PGM outputs"):
        raw = tmp_path / "scene.fqc"
        assert cli_main(["synth", "--kind", "translate", "--height", "64",
                         "--width", "64", "--length", "8", "--seed", "21",
                         "--shift-i", "3", "--shift-j", "5",
                         "--out", str(raw)]) == 0
        outputs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            assert cli_main(["analyze", "--input", str(raw), "--out-dir",
                             str(out), "--patch-size", "8"]) == 0
            masks = tmp_path / f"{name}_masks"
            assert cli_main(["masks", "--decisions",
                             str(out / "decisions.jsonl"),
                             "--out-dir", str(masks)]) == 0
            outputs.append((out, masks))
        (out_a, masks_a), (out_b, masks_b) = outputs
        assert (out_a / "decisions.jsonl").read_bytes() == \
               (out_b / "decisions.jsonl").read_bytes()
        assert (out_a / "metrics.csv").read_bytes() == \
               (out_b / "metrics.csv").read_bytes()
        pgms_a = sorted(masks_a.glob("*.pgm"))
        pgms_b = sorted(masks_b.glob("*.pgm"))
        assert len(pgms_a) == 7
        for a, b in zip(pgms_a, pgms_b):
            assert a.read_bytes() == b.read_bytes()


def test_criterion_8_cost_model_consistency():
    with criterion(8, "cost model hits the 637/401 ms endpoints and a "
                      "~53.5%-reuse run reports 1.59x +/- 0.02"):
        assert modeled_latency_ms(196) == pytest.approx(637.0, abs=1e-9)
        assert modeled_latency_ms(196 * (1 - 0.535)) == pytest.approx(
            401.0, abs=1e-9)
        scene = generate_scene(
            SceneSpec(kind="static", height=112, width=112, length=9, seed=7)
        )
        cfg = CacheConfig(patch_size=8, alpha_min=0.536, alpha_max=0.536)
        report = run_sequence(scene.frames, cfg)
        assert report.n_tokens == 196
        assert report.mean_reuse_ratio == pytest.approx(0.535, abs=0.01)
        assert report.speedup == pytest.approx(1.59, abs=0.02)


def test_criterion_9_decision_overhead():
    with criterion(9, "decide median at 224x224/P=16 below 10 ms on a "
                      "commodity CPU core"):
        result = bench(CacheConfig(patch_size=16), 224, 224,
                       iterations=50, seed=0)
        assert result["median_ms"] < 10.0


def test_criterion_2_spatial_similarity_identity_boundary():
    # companion sanity for criterion 2: no shift means no spatial penalty
    frame = np.random.default_rng(7).random((64, 64))
    value = sim_spatial(frame, frame, 8, lambda p: p.ravel())
    assert value == pytest.approx(1.0, abs=1e-12)
