import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import freqcache
from freqcache import (
    BudgetConfig,
    CacheConfig,
    CostModel,
    DEFAULT_COST_MODEL,
    Displacement,
    EntropyReading,
    InvariantError,
    decide,
    default_token_fn,
    populate_cache,
    run_sequence,
    step,
    topk_ascending,
)
from freqcache import fusion
from freqcache.bench import bench
from freqcache.records import decision_record

from oracles import assert_decision_equivalence, decide_reference

CFG32 = CacheConfig(patch_size=8)


def textured(seed, shape=(32, 32)):
    return np.random.default_rng(seed).random(shape)


class TestTopKAscending:
    def test_ascending_energy_order(self):
        energies = np.array([5.0, 1.0, 3.0])
        assert topk_ascending([0, 1, 2], energies, 2) == (1, 2)

    def test_budget_exceeds_candidates(self):
        energies = np.array([4.0, 2.0, 9.0, 1.0])
        assert topk_ascending([0, 1, 2, 3], energies, 10) == (3, 1, 0, 2)

    def test_ties_break_row_major(self):
        energies = np.array([2.0, 2.0, 2.0, 1.0])
        assert topk_ascending([2, 0, 1, 3], energies, 3) == (3, 0, 1)

    def test_empty(self):
        assert topk_ascending([], np.array([]), 5) == ()
        assert topk_ascending([1], np.array([0.0, 1.0]), 0) == ()


class TestCostModel:
    def test_calibrated_endpoints(self):
        model = DEFAULT_COST_MODEL
        assert model.latency_ms(196) == pytest.approx(637.0, abs=1e-9)
        assert model.latency_ms(196 * (1 - 0.535)) == pytest.approx(401.0,
                                                                    abs=1e-9)

    def test_speedup_at_calibration_point(self):
        model = DEFAULT_COST_MODEL
        speedup = model.latency_ms(196) / model.latency_ms(196 * 0.465)
        assert speedup == pytest.approx(637.0 / 401.0, abs=1e-12)


class TestDecide:
    def test_identical_textured_frames(self):
        frame = textured(0)
        d = decide(frame, frame, CFG32)
        assert not d.flushed
        assert (d.displacement.di, d.displacement.dj) == (0, 0)
        assert d.k_final == min(d.k_reuse, d.k_candidate) == len(d.reuse_set)

    def test_partition_and_safety(self):
        prev, curr = textured(1), textured(2)
        d = decide(prev, curr, CFG32)
        assert sorted(d.reuse_set + d.recompute_set) == list(range(16))
        assert not set(d.reuse_set) & set(d.refresh_set)

    def test_budget_cap_respected(self):
        cfg = CacheConfig(patch_size=8,
                          budget=BudgetConfig(alpha_min=0.1, alpha_max=0.1))
        frame = textured(3)
        d = decide(frame, frame, cfg)
        assert d.k_reuse == int(0.1 * 16)
        assert d.k_final == d.k_reuse  # plenty of candidates when static

    def test_candidates_cap_budget(self):
        # Flag everything fresh except nothing aligned stays: negative
        # sensitivity marks every patch, emptying the candidate pool.
        cfg = CacheConfig(patch_size=8, edge_lambda=-5.0)
        prev, curr = textured(4), textured(5)
        d = decide(prev, curr, cfg)
        assert d.k_candidate == 0
        assert d.k_final == 0
        assert d.reuse_set == ()

    def test_flush_on_high_threshold(self):
        cfg = CacheConfig(patch_size=8, tau_mig=1.0)
        d = decide(textured(6), textured(7), cfg)
        assert d.flushed
        assert d.k_final == 0
        assert d.k_candidate == 0
        assert d.diagnostic is None

    def test_black_frame_degrades_to_flush(self):
        frame = textured(8)
        d = decide(np.zeros((32, 32)), frame, CFG32)
        assert d.flushed
        assert d.diagnostic == "degenerate spectrum"
        d2 = decide(np.full((32, 32), 0.5), frame, CFG32)
        assert d2.flushed
        assert d2.diagnostic == "no texture; displacement undefined"
        # a failed migration analysis leaves the budget reading intact
        assert d2.k_reuse > 0 and d2.k_final == 0
        d3 = decide(frame, np.zeros((32, 32)), CFG32)
        assert d3.flushed and d3.diagnostic == "degenerate spectrum"
        assert d3.entropy == EntropyReading(0.0, 0.0, 1024) and d3.k_reuse == 0
        # every squared amplitude underflows, so the power is exactly 0
        d4 = decide(frame, frame * 1e-170, CFG32)
        assert d4.flushed and d4.diagnostic == "degenerate spectrum"
        # the constant frame comes back as the carried-over prev
        for d in stream([frame, np.full((32, 32), 0.5), frame], CFG32):
            assert d.flushed
            assert d.diagnostic == "no texture; displacement undefined"
            assert d.k_reuse > 0

    def test_determinism(self):
        prev, curr = textured(9), textured(10)
        assert decide(prev, curr, CFG32) == decide(prev, curr, CFG32)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decide(np.ones((32, 32)), np.ones((16, 16)), CFG32)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        prev = rng.random((16, 16))
        curr = np.roll(prev, (int(rng.integers(-8, 9)), int(rng.integers(-8, 9))),
                       axis=(0, 1))
        d = decide(prev, curr, CacheConfig(patch_size=4))
        assert sorted(d.reuse_set + d.recompute_set) == list(range(16))
        assert d.k_final == min(d.k_reuse, d.k_candidate)


def in_fresh_thread(fn, *args, **kwargs):
    """Result of ``fn(*args, **kwargs)`` run on a new thread, which starts
    with no carried-over spectrum."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised on the calling thread
            out["error"] = exc

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def stream(frames, cfg):
    return [decide(frames[t - 1], frames[t], cfg, step=t)
            for t in range(1, len(frames))]


class TestSpectrumCarryOver:
    def test_buffer_rewritten_in_place_matches_fresh_process(self):
        a, b, c = textured(40), textured(41), np.roll(textured(41), (3, 5), (0, 1))
        buf = a.copy()
        decide(textured(42), buf, CFG32)  # carries a's spectrum over
        buf[...] = b
        got = decide(buf, c, CFG32, step=1)
        paths = [str(Path(freqcache.__file__).parents[1]), str(Path(__file__).parent)]
        code = ("import json, numpy as np, test_fusion as t; "
                "from freqcache.records import decision_record; "
                "c = np.roll(t.textured(41), (3, 5), (0, 1)); "
                "d = t.decide(t.textured(41), c, t.CFG32, step=1); "
                "print(json.dumps(decision_record(d)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == json.loads(
            json.dumps(decision_record(got)))

    def test_stored_spectra_are_read_only(self):
        def carried():
            decide(textured(43), textured(44), CFG32)
            return fusion._last.analysis.spectrum, fusion._last.analysis.amplitude

        for kept in in_fresh_thread(carried):
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 0

    def test_hits_match_cold_decisions(self):
        rng = np.random.default_rng(45)
        frames = [rng.random((32, 32))]
        for _ in range(5):
            frames.append(np.roll(frames[-1], (2, -3), axis=(0, 1)))
        cold = [in_fresh_thread(decide, frames[t - 1], frames[t], CFG32, step=t)
                for t in range(1, len(frames))]
        assert in_fresh_thread(stream, frames, CFG32) == cold

    def test_interleaved_threads_match_running_alone(self, monkeypatch):
        sequences = []
        for seed, shift in ((46, (1, 2)), (47, (-3, 4))):
            frames = [textured(seed)]
            for _ in range(6):
                frames.append(np.roll(frames[-1], shift, axis=(0, 1)))
            sequences.append(frames)
        alone = [in_fresh_thread(stream, frames, CFG32) for frames in sequences]

        calls = []
        real = scipy.fft.rfft2
        monkeypatch.setattr(scipy.fft, "rfft2",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        turn = threading.Barrier(2, timeout=60)
        together = [None, None]

        def lockstep(k):
            frames = sequences[k]
            out = []
            for t in range(1, len(frames)):
                turn.wait()
                if k:  # the other thread decides in between
                    turn.wait()
                out.append(decide(frames[t - 1], frames[t], CFG32, step=t))
                if not k:
                    turn.wait()
            together[k] = out

        workers = [threading.Thread(target=lockstep, args=(k,)) for k in (0, 1)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
        assert together == alone
        # each thread still carries its own spectrum over between its steps
        assert len(calls) == sum(len(frames) for frames in sequences)

    def test_rfft2_calls(self, monkeypatch):
        calls = []
        real = scipy.fft.rfft2

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, "rfft2", spy)
        frames = [textured(48)]
        for _ in range(4):
            frames.append(np.roll(frames[-1], (1, 1), axis=(0, 1)))

        def counted_stream():
            per_step = []
            for t in range(1, len(frames)):
                before = len(calls)
                decide(frames[t - 1], frames[t], CFG32, step=t)
                per_step.append(len(calls) - before)
            return per_step

        assert in_fresh_thread(counted_stream) == [2, 1, 1, 1]
        calls.clear()
        in_fresh_thread(bench, CacheConfig(patch_size=16), 32, 32, 4, 3)
        assert len(calls) == 2 * (4 + 3)


class TestDecideReference:
    def test_equivalence_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            prev = rng.random((32, 32))
            curr = np.roll(prev, (int(rng.integers(-12, 13)),
                                  int(rng.integers(-12, 13))), axis=(0, 1))
            assert_decision_equivalence(
                decide(prev, curr, CFG32), decide_reference(prev, curr, CFG32)
            )

    def test_flush_case(self):
        cfg = CacheConfig(patch_size=8, tau_mig=1.0)
        prev, curr = textured(14), textured(15)
        fast = decide(prev, curr, cfg)
        ref = decide_reference(prev, curr, cfg)
        assert fast.flushed and ref.flushed
        assert_decision_equivalence(fast, ref)

    def test_degenerate_case(self):
        fast = decide(np.zeros((16, 16)), textured(16, (16, 16)),
                      CacheConfig(patch_size=4))
        ref = decide_reference(np.zeros((16, 16)), textured(16, (16, 16)),
                               CacheConfig(patch_size=4))
        assert_decision_equivalence(fast, ref)

    def test_tied_energies_share_order(self):
        # four identical patches produce exactly tied energies
        tile = np.random.default_rng(17).random((8, 8))
        frame = np.tile(tile, (2, 2))
        fast = decide(frame, frame, CFG32)
        ref = decide_reference(frame, frame, CFG32)
        assert_decision_equivalence(fast, ref)


class TestStep:
    def test_cold_start_computes_everything(self):
        frame = textured(18)
        d = decide(frame, frame, CFG32)
        cache, report = step(None, d, frame, default_token_fn)
        assert report.n_recomputed == 16
        assert report.n_reused == 0
        assert np.all(cache.ages == 0)

    def test_flush_equals_cold_start(self):
        frame = textured(19)
        cache = populate_cache(frame, 8, default_token_fn)
        cache.ages += 3
        d = decide(frame, frame, CFG32)
        assert not d.flushed
        d_flush = dataclasses.replace(d, flushed=True, k_candidate=0,
                                      k_final=0, reuse_set=(),
                                      recompute_set=tuple(range(16)))
        new_cache, report = step(cache, d_flush, frame, default_token_fn)
        assert report.n_recomputed == 16
        assert np.all(new_cache.ages == 0)

    def test_displacement_mapped_sourcing(self):
        rng = np.random.default_rng(20)
        prev = rng.random((32, 32))
        curr = np.roll(prev, (8, 0), axis=(0, 1))  # one patch row down
        cache = populate_cache(prev, 8, default_token_fn)
        cache.tokens += rng.random(cache.tokens.shape)  # make slots distinct
        d = decide(prev, curr, CacheConfig(
            patch_size=8, budget=BudgetConfig(alpha_min=1.0, alpha_max=1.0),
            edge_lambda=1e12,
        ))
        assert d.displacement.di_patches == 1
        assert (2, 3) in [divmod(p, 4) for p in d.reuse_set]
        new_cache, _ = step(cache, d, curr, default_token_fn)
        assert np.array_equal(new_cache.tokens[2, 3], cache.tokens[1, 3])
        assert new_cache.ages[2, 3] == cache.ages[1, 3] + 1

    def test_age_zero_iff_recomputed(self):
        prev = textured(21)
        curr = textured(22)
        cache = populate_cache(prev, 8, default_token_fn)
        d = decide(prev, curr, CFG32)
        new_cache, _ = step(cache, d, curr, default_token_fn)
        ages = new_cache.ages.ravel()
        for p in range(16):
            if p in d.reuse_set:
                assert ages[p] > 0
            else:
                assert ages[p] == 0

    def test_every_slot_reused_keeps_cache_dim(self):
        frame = textured(26)
        cache = populate_cache(frame, 8, default_token_fn)
        cache.tokens += np.random.default_rng(27).random(cache.tokens.shape)
        cache.ages += np.arange(16).reshape(4, 4)
        d = decide(frame, frame, CacheConfig(
            patch_size=8, budget=BudgetConfig(alpha_min=1.0, alpha_max=1.0),
            edge_lambda=1e15,
        ))
        assert d.k_final == 16

        def never_called(patch):
            raise AssertionError("no slot should be recomputed")

        new_cache, report = step(cache, d, frame, never_called)
        assert (report.n_reused, report.n_recomputed) == (16, 0)
        assert np.array_equal(new_cache.tokens, cache.tokens)
        assert np.array_equal(new_cache.ages, cache.ages + 1)

    def test_out_of_bounds_reuse_source_raises(self):
        frame = textured(28)
        cache = populate_cache(frame, 8, default_token_fn)
        d = decide(frame, frame, CFG32)
        # patch 0 sits in row 0, so a one-row downward shift has no source
        planted = dataclasses.replace(
            d, displacement=Displacement(8, 0, 1, 0), reuse_set=(0,)
        )
        with pytest.raises(InvariantError, match="out of bounds for patch 0"):
            step(cache, planted, frame, default_token_fn)

    def test_out_of_bounds_check_survives_python_O(self):
        paths = [str(Path(freqcache.__file__).parents[1]), str(Path(__file__).parent)]
        code = ("import sys, test_fusion; "
                "test_fusion.TestStep().test_out_of_bounds_reuse_source_raises(); "
                "print(sys.flags.optimize)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1"


    def test_streamed_frame_is_validated_three_times(self, monkeypatch):
        import freqcache.frame

        calls = []
        real = freqcache.frame.validate_frame

        def spy(data):
            calls.append(1)
            return real(data)

        for module in (fusion, freqcache.frame):
            monkeypatch.setattr(module, "validate_frame", spy)
        prev, curr = textured(29), textured(30)
        cache = populate_cache(prev, 8, default_token_fn)
        calls.clear()
        cache, _ = step(cache, decide(prev, curr, CFG32), curr, default_token_fn)
        # decide checks prev and curr, step checks curr once more
        assert len(calls) == 3
        calls.clear()
        nxt = np.roll(curr, (8, 0), axis=(0, 1))
        step(cache, decide(curr, nxt, CFG32, step=2), nxt, default_token_fn)
        # the carried-over prev is not checked again
        assert len(calls) == 2


class TestRunSequence:
    def test_static_sequence_hits_budget_every_step(self):
        frames = [textured(23, (64, 64))] * 6
        cfg = CacheConfig(
            patch_size=8, edge_lambda=1e15,
            budget=BudgetConfig(alpha_min=0.4, alpha_max=0.4),
        )
        report = run_sequence(frames, cfg)
        expected = int(0.4 * 64) / 64
        for d in report.decisions:
            assert d.k_final / report.n_tokens == pytest.approx(expected)
        assert report.mean_reuse_ratio == pytest.approx(expected)

    def test_white_noise_reuse_stays_under_alpha_max(self):
        rng = np.random.default_rng(24)
        frames = [rng.random((64, 64)) for _ in range(8)]
        report = run_sequence(frames, CacheConfig(patch_size=8))
        assert report.flush_count == 0  # flat spectra keep similarity high
        assert report.mean_reuse_ratio < 0.5
        # regression anchor measured on first run of this configuration
        assert report.mean_reuse_ratio == pytest.approx(0.3392857142857143,
                                                        abs=1e-12)

    def test_flush_dominance_yields_zero_reuse(self):
        rng = np.random.default_rng(25)
        frames = [rng.random((32, 32)) for _ in range(5)]
        report = run_sequence(frames, CacheConfig(patch_size=8, tau_mig=1.0))
        assert report.flush_count == len(report.decisions)
        assert report.mean_reuse_ratio == 0.0

    def test_dimension_mismatch_names_step(self):
        frames = [np.ones((16, 16)), np.ones((16, 16)), np.ones((16, 8))]
        with pytest.raises(ValueError, match="step 2"):
            run_sequence(frames, CacheConfig(patch_size=4))

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            run_sequence([np.ones((16, 16))], CacheConfig(patch_size=4))

    def test_cost_model_example_arithmetic(self):
        model = CostModel(base_ms=103.1, per_token_ms=2.492)
        assert model.latency_ms(196) == pytest.approx(591.532, abs=1e-9)
