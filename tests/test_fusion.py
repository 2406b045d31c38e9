import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import freqcache
from freqcache import (
    CacheConfig,
    Displacement,
    EntropyReading,
    InvariantError,
    PatchGrid,
    decide,
    default_token_fn,
    modeled_latency_ms,
    patch_energy,
    phase_correlation_spectra,
    populate_cache,
    run_sequence,
    spectral_entropy,
    step,
    topk_ascending,
)
from freqcache import budget, cli, fusion, migration, spectral
from freqcache.bench import WARMUP, bench
from freqcache.compare import compare_domains
from freqcache.frameio import load_frames, save_rawf32
from freqcache.migration import alignment_mask
from freqcache.records import decision_record

from oracles import (
    CountingFrames,
    assert_decision_equivalence,
    count_frame_scans,
    decide_reference,
    decide_validating_first,
)

CFG32 = CacheConfig(patch_size=8)
ROOT = Path(__file__).resolve().parent.parent


def textured(seed, shape=(32, 32)):
    return np.random.default_rng(seed).random(shape)


class TestTopKAscending:
    def test_ascending_energy_order(self):
        energies = np.array([5.0, 1.0, 3.0])
        chosen = topk_ascending([0, 1, 2], energies, 2)
        assert chosen.dtype == np.intp
        assert chosen.tolist() == [1, 2]

    def test_budget_exceeds_candidates(self):
        energies = np.array([4.0, 2.0, 9.0, 1.0])
        chosen = topk_ascending([0, 1, 2, 3], energies, 10)
        assert chosen.tolist() == [3, 1, 0, 2]

    def test_ties_break_row_major(self):
        energies = np.array([2.0, 2.0, 2.0, 1.0])
        assert topk_ascending([2, 0, 1, 3], energies, 3).tolist() == [3, 0, 1]

    def test_empty(self):
        for chosen in (topk_ascending([], np.array([]), 5),
                       topk_ascending([1], np.array([0.0, 1.0]), 0),
                       topk_ascending([1], np.array([0.0, 1.0]), -1)):
            assert chosen.dtype == np.intp
            assert chosen.size == 0


class TestCostModel:
    def test_calibrated_endpoints(self):
        assert modeled_latency_ms(196) == pytest.approx(637.0, abs=1e-9)
        assert modeled_latency_ms(196 * (1 - 0.535)) == pytest.approx(
            401.0, abs=1e-9)

    def test_speedup_at_calibration_point(self):
        speedup = modeled_latency_ms(196) / modeled_latency_ms(196 * 0.465)
        assert speedup == pytest.approx(637.0 / 401.0, abs=1e-12)


class TestDecide:
    @pytest.mark.parametrize("size", [8.5, 8.0, "8", None])
    def test_patch_size_that_is_not_an_integer_is_rejected(self, size):
        # 8.5 once tiled a frame as 8, then a repeat step raised TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"patch_size must be an integer, got {size!r}")):
            CacheConfig(patch_size=size)

    def test_numpy_integer_patch_size_decides_as_int(self):
        a, b = shifted_stream(35, (32, 32), n=2)
        frames = [a, b, b.copy()]
        want = in_fresh_thread(lambda: list(fusion.stream(frames, CFG32)))
        got = in_fresh_thread(lambda: list(fusion.stream(
            frames, CacheConfig(patch_size=np.int64(8)))))
        assert got == want

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
                          alpha_min=0.1, alpha_max=0.1)
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
        assert d3.entropy == EntropyReading(0.0, 0.0) and d3.k_reuse == 0
        # every squared amplitude of this frame would underflow, but decide
        # scales it back to the unit-scale frame first
        d4 = decide(frame, np.ldexp(frame, -565), CFG32)
        assert d4 == decide(frame, frame, CFG32)
        # the constant frame comes back as the carried-over prev
        for d in fusion.stream([frame, np.full((32, 32), 0.5), frame], CFG32):
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

    @pytest.mark.parametrize("scale", [2.0 ** -140, 2.0 ** -100, 2.0 ** 70,
                                       2.0 ** 140])
    def test_shift_is_found_far_from_unit_scale(self, scale):
        # Unscaled, these frames' single-precision cross-power products
        # would overflow or underflow float32.
        prev = textured(57, (64, 64)) * scale
        curr = np.roll(prev, (3, -5), axis=(0, 1))
        d = decide(prev, curr, CFG32)
        assert (d.displacement.di, d.displacement.dj) == (3, -5)
        assert not d.flushed and d.k_final > 0


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
        assert in_fresh_thread(lambda: list(fusion.stream(frames, CFG32))) == cold

    def test_interleaved_threads_match_running_alone(self, monkeypatch):
        # Equal shapes, then shapes whose scratch regions differ in size.
        for shapes in (((32, 32), (32, 32)), ((32, 32), (64, 48))):
            self._interleave(monkeypatch, shapes)

    @staticmethod
    def _interleave(monkeypatch, shapes):
        sequences = []
        for seed, shift, shape in zip((46, 47), ((1, 2), (-3, 4)), shapes):
            frames = [textured(seed, shape)]
            for _ in range(6):
                frames.append(np.roll(frames[-1], shift, axis=(0, 1)))
            sequences.append(frames)
        alone = [in_fresh_thread(lambda: list(fusion.stream(frames, CFG32)))
                 for frames in sequences]

        calls = []
        real = scipy.fft.rfft2
        monkeypatch.setattr(scipy.fft, "rfft2",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        turn = threading.Barrier(2, timeout=60)
        together = [None, None]
        regions = [None, None]

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
            regions[k] = spectral._scratch.region

        workers = [threading.Thread(target=lockstep, args=(k,)) for k in (0, 1)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
        monkeypatch.undo()
        assert together == alone
        # each thread still carries its own spectrum over between its steps
        assert len(calls) == sum(len(frames) for frames in sequences)
        # and writes its temporaries to a scratch region of its own
        assert regions[0] is not None and regions[1] is not None
        assert not np.shares_memory(regions[0], regions[1])

    def test_rfft2_calls(self, monkeypatch, tmp_path):
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
        in_fresh_thread(bench, CacheConfig(patch_size=16), 32, 32, 4)
        assert len(calls) == 2 * (4 + WARMUP)
        # a lazy input returns a fresh array per read; the carry-over
        # compares bits, so each frame is still transformed once
        raw = tmp_path / "frames.fqc"
        save_rawf32(raw, frames)
        calls.clear()
        in_fresh_thread(lambda: list(fusion.stream(load_frames(raw), CFG32)))
        assert len(calls) == len(frames)

    def test_carried_decide_sums_bins_three_times(self, monkeypatch):
        # The gate and the entropy read the carried powers, so a carried
        # decide sums bins only for the new frame's power, the gate's cross
        # term and the entropy; recomputing the powers took six sums.
        calls = []
        real = spectral.bin_dot

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for module in (fusion, migration, budget):
            monkeypatch.setattr(module, "bin_dot", spy)
        frames = shifted_stream(49, (64, 64))

        def carried_sums():
            decide(frames[0], frames[1], CFG32)
            calls.clear()
            d = decide(frames[1], frames[2], CFG32, step=2)
            assert not d.flushed
            return len(calls)

        assert in_fresh_thread(carried_sums) == 3


def outcomes(fn, pairs):
    """Run ``fn(prev, curr, CFG32)`` on each pair in turn, on this thread:
    per call, its decision or its exception's type and message, and the
    warnings it gave."""
    out = []
    for prev, curr in pairs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn(prev, curr, CFG32)
            except Exception as exc:
                result = (type(exc).__name__, str(exc))
        out.append((result, [(w.category.__name__, str(w.message))
                             for w in caught]))
    return out


def with_pixel(frame, value, at=(3, 5)):
    out = frame.copy()
    out[at] = value
    return out


def exact_scales(*frames):
    """Every k in -1100 .. 1099 at which 2^k scales each frame exactly."""
    with np.errstate(all="ignore"):
        return [k for k in range(-1100, 1100)
                if all(np.array_equal(np.ldexp(np.ldexp(f, k), -k), f)
                       for f in frames)]


def assert_scale_free(prev, curr, scales, unit):
    """decide gives ``unit`` with prev scaled by each 2^k of ``scales`` and
    curr left as it is, scaled by the same 2^k, and scaled by the 2^j of
    ``scales`` read backwards."""
    for k, j in zip(scales, scales[::-1]):
        scaled = np.ldexp(prev, k)
        for other in (curr, np.ldexp(curr, k), np.ldexp(curr, j)):
            assert decide(scaled, other, CFG32) == unit, (k, j)


class TestChecksFromSpectrum:
    """decide scans each new frame with one min and one max, which give its
    finiteness, its constancy and the power of two that brings it near unit
    scale; a carried prev is not scanned again."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["curr", "uncarried prev",
                                       "curr after a carried step"])
    def test_non_finite_frame_raises_and_is_never_carried(self, value, where):
        frames = shifted_stream(60, (32, 32), n=4)
        bad = with_pixel(frames[2], value)
        pair = (bad, frames[1]) if where == "uncarried prev" else (frames[1], bad)
        pairs = [pair, (bad, frames[3]), (frames[2], frames[3])]
        if where == "curr after a carried step":
            pairs.insert(0, (frames[0], frames[1]))
        got = in_fresh_thread(outcomes, decide, pairs)
        if where == "curr after a carried step":
            assert not got.pop(0)[0].flushed
        rejected = (("ValueError", "frame contains non-finite values"), [])
        # the bad frame was not carried: as the next prev it is checked again
        assert got[:2] == [rejected, rejected]
        # and the next good pair is analysed as in a fresh thread
        assert got[2] == in_fresh_thread(outcomes, decide, pairs[-1:])[0]

    def test_decisions_do_not_depend_on_scale(self):
        # every k at which 2^k scales both float32-exact frames exactly,
        # from the subnormal floor to the top of the float64 range
        rng = np.random.default_rng(61)
        prev = rng.random((64, 64), dtype=np.float32).astype(np.float64)
        curr = np.roll(prev, (3, 5), axis=(0, 1))
        unit = decide(prev, curr, CFG32)
        assert (unit.displacement.di, unit.displacement.dj) == (3, 5)
        assert not unit.flushed and unit.k_final > 0
        exact = exact_scales(prev, curr)
        assert exact == list(range(-1050, 1025))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_scale_free(prev, curr, exact, unit)
            # a finite pixel at the top of the range decides too
            for value in (1.7e308, -1.7e308):
                for pair in ((with_pixel(prev, value), curr),
                             (prev, with_pixel(curr, value))):
                    decide(*pair, CFG32)

    def test_near_constant_decision_does_not_depend_on_scale(
            self, monkeypatch, tmp_path):
        # near-constant-64-p8 step 9 of tools/same_outputs.py: a 1.2e-38
        # level with one pixel a float32 ulp higher, then a 4096 level with
        # a texture a few ulps deep. Their cross-power bins lie near the
        # CROSS_POWER_EPS floor, so a spectrum read at the frame's own
        # scale moved the peak.
        monkeypatch.syspath_prepend(str(ROOT / "tools"))
        import same_outputs
        same_outputs.write_near_constant(tmp_path / "scene.fqc")
        frames = load_frames(tmp_path / "scene.fqc")
        prev, curr = frames[8], frames[9]
        unit = decide(prev, curr, CFG32)
        assert not unit.flushed
        scales = list(range(-900, 900, 7))
        assert set(scales) <= set(exact_scales(prev, curr))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_scale_free(prev, curr, scales, unit)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_frame_whose_power_overflows_acts_as_if_validated_first(self, scale):
        # Finite frames whose unit-scale transform or power would overflow
        # pass the scan and go on as when decide scanned every frame first.
        a, b, c = shifted_stream(61, (32, 32), n=3)
        for pairs in ([(a * scale, b * scale), (b * scale, c * scale)],
                      [(a, b * scale), (b * scale, c)],
                      [(with_pixel(a, 1.7e308), b)]):
            got = in_fresh_thread(outcomes, decide, pairs)
            assert got == in_fresh_thread(outcomes, decide_validating_first,
                                          pairs)
            assert all(result != ("ValueError",
                                  "frame contains non-finite values")
                       for result, _ in got)

    def test_scaled_frame_is_carried_by_its_own_bits(self, monkeypatch):
        unit = shifted_stream(63, (32, 32), n=3)
        frames = [np.ldexp(frame, -600) for frame in unit]
        scans = count_frame_scans(monkeypatch, (32, 32))
        got = in_fresh_thread(lambda: list(fusion.stream(frames, CFG32)))
        assert scans == {"min": 3, "max": 3}
        assert got == in_fresh_thread(lambda: list(fusion.stream(unit, CFG32)))

    def test_constant_flag_equals_ptp(self):
        rng = np.random.default_rng(62)
        shape = (16, 24)
        signed_zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        frames = [signed_zeros, with_pixel(signed_zeros, 5e-324)]
        for c in (0.37, -2.5, 5e-324, 1e-310, 2.2250738585072014e-308,
                  1e-170, 1.2e-38, 3e38, 1e300, 1.7e308, -1.7e308):
            flat = np.full(shape, c)
            frames += [flat, with_pixel(flat, np.nextafter(c, np.inf), (5, 7)),
                       with_pixel(flat, np.nextafter(c, -np.inf), (0, 0))]
        # a large DC and a tiny texture
        frames.append(1e6 + 1e-9 * rng.random(shape))
        frames.append(1e300 + 1e290 * rng.random(shape))
        frames += [rng.random(shape) * 10.0 ** k for k in (-300, -3, 0, 3, 300)]
        for i, frame in enumerate(frames):
            constant = bool(np.ptp(frame) == 0.0)
            assert fusion._analyse(frame).constant == constant, i
            assert fusion._analyse(frame.T.copy()).constant == constant, i

    def test_textured_frames_skip_the_constancy_scan(self, monkeypatch):
        frames = shifted_stream(63, (32, 32), n=3)
        scans = count_frame_scans(monkeypatch, (32, 32))
        in_fresh_thread(lambda: list(fusion.stream(frames, CFG32)))
        # one min and one max per new frame, and no isfinite or ptp scan
        assert scans == {"min": 3, "max": 3}


def shifted_stream(seed, shape, n=3, shift=(5, -11)):
    frames = [textured(seed, shape)]
    for _ in range(n - 1):
        frames.append(np.roll(frames[-1], shift, axis=(0, 1)))
    return frames


def stage_results(frames, patch_size):
    """Every user of the scratch region, run on one stream: the decisions,
    then phase correlation, entropy and edge energy of its last pair."""
    cfg = CacheConfig(patch_size=patch_size)
    prev, curr = frames[-2], frames[-1]
    spec_prev, spec_curr = scipy.fft.rfft2(prev), scipy.fft.rfft2(curr)
    weights = spectral.hermitian_weights(curr.shape[1])
    return (list(fusion.stream(frames, cfg)),
            phase_correlation_spectra(spec_prev, spec_curr, curr.shape, patch_size),
            spectral_entropy(np.abs(spec_curr), weights),
            patch_energy(PatchGrid(curr, patch_size)))


def count_rfft2(monkeypatch):
    """A list that gains one entry per ``scipy.fft.rfft2`` call."""
    calls = []
    real = scipy.fft.rfft2
    monkeypatch.setattr(scipy.fft, "rfft2",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def decide_each(calls, first=1):
    """``decide`` on each ``(prev, curr, cfg)`` of ``calls`` in turn, on
    this thread, as steps ``first``, ``first + 1``, ...: per call, its
    decision or its exception's type and message."""
    out = []
    for t, (prev, curr, cfg) in enumerate(calls, first):
        try:
            out.append(decide(prev, curr, cfg, step=t))
        except ValueError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def cold_each(calls):
    """:func:`decide_each` of each call alone on a fresh thread."""
    return [in_fresh_thread(decide_each, [call], t)[0]
            for t, call in enumerate(calls, 1)]


# The element a repeat check compares first, one of the per-patch lattice
# it compares next at patch size 8, and one only the whole compare reads.
CENTRE, LATTICE, CORNER = (16, 16), (8, 24), (3, 5)


class TestRepeatedFrame:
    """A step whose ``prev`` hits the carry and whose ``curr`` holds the
    same bits reads the carried analysis, entropy and patch energies; each
    decision equals the one a fresh thread makes."""

    def test_stream_transforms_each_new_frame_once(self, monkeypatch):
        a, b = shifted_stream(70, (32, 32), n=2)
        c = textured(71) ** 2  # another spectrum, so another entropy
        frames = [a, b, b.copy(), c, c.copy(), c.copy(), a, a.copy()]
        repeats = 4
        cold = cold_each([(frames[t - 1], frames[t], CFG32)
                          for t in range(1, len(frames))])
        calls = count_rfft2(monkeypatch)
        got = in_fresh_thread(lambda: list(fusion.stream(frames, CFG32)))
        assert len(calls) == len(frames) - repeats
        assert got == cold
        assert sum(not d.flushed for d in got) >= repeats

    def test_repeat_is_not_phase_correlated(self, monkeypatch):
        a, b = shifted_stream(81, (32, 32), n=2)
        c, black = textured(82) ** 2, np.zeros((32, 32))
        frames = [a, b, b.copy(), c, c.copy(), c.copy(), black, black.copy(),
                  a, a.copy()]
        cold = cold_each([(frames[t - 1], frames[t], CFG32)
                          for t in range(1, len(frames))])
        calls = []
        real = fusion.phase_correlation_spectra
        monkeypatch.setattr(fusion, "phase_correlation_spectra",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        got = in_fresh_thread(lambda: list(fusion.stream(frames, CFG32)))
        assert got == cold
        repeats = [np.array_equal(frames[t - 1], frames[t])
                   for t in range(1, len(frames))]
        assert sum(repeats) == 5
        correlated = [not r and not d.flushed for r, d in zip(repeats, got)]
        assert len(calls) == sum(correlated) == 2
        assert all(d.displacement == Displacement(0, 0, 0, 0)
                   for r, d in zip(repeats, got) if r)

    @pytest.mark.parametrize("size", [32, 64])
    @pytest.mark.parametrize("period", [2, 4, 8, 16, 32])
    def test_periodic_repeat_matches_cold_and_reference(self, size, period):
        # A periodic frame's correlation with itself ties across the period
        # lattice, and the tie goes to (0, 0), the shift a repeat takes.
        rng = np.random.default_rng(size + period)
        for unit in (rng.random((period, period)), rng.random((period, 1)),
                     rng.random((1, period))):
            frame = np.tile(unit, (size // unit.shape[0],
                                   size // unit.shape[1]))
            calls = [(textured(83, frame.shape), frame, CFG32),
                     (frame, frame.copy(), CFG32)]
            got = in_fresh_thread(decide_each, calls)[1]
            assert got == in_fresh_thread(decide, frame, frame.copy(), CFG32,
                                          step=2)
            ref = decide_reference(frame, frame.copy(), CFG32, step=2)
            assert got.displacement == ref.displacement == Displacement(
                0, 0, 0, 0)
            assert_decision_equivalence(got, ref)

    def test_equal_patches_whose_energy_mean_rounds_out_match_reference(self):
        # Every P8 patch of this tile holds the same 2x2 blocks, so all 64
        # energies are equal, and their rounded mean falls one ulp below
        # them: unclamped, every patch passed the refresh threshold.
        frame = np.tile(np.random.default_rng(6404).random((4, 4)), (16, 16))
        calls = [(textured(83, frame.shape), frame, CFG32),
                 (frame, frame.copy(), CFG32)]
        repeat = in_fresh_thread(decide_each, calls)[1]
        cold = in_fresh_thread(decide, frame, frame.copy(), CFG32, step=2)
        ref = decide_reference(frame, frame.copy(), CFG32, step=2)
        assert repeat == cold
        assert_decision_equivalence(cold, ref)
        assert cold.refresh_set == () and cold.k_final > 0

    @pytest.mark.parametrize("convert", [
        lambda f: f.astype(np.float32),
        lambda f: np.floor(f * 255).astype(np.uint8),
        np.ndarray.tolist,
    ], ids=["float32", "uint8", "list"])
    def test_frames_of_any_dtype_hit_the_carry(self, convert, monkeypatch):
        a, b, c = shifted_stream(84, (32, 32))
        frames = [convert(f) for f in (a, b, b, c)]
        as_float64 = [np.asarray(f, dtype=np.float64) for f in frames]
        cold = cold_each([(frames[t - 1], frames[t], CFG32)
                          for t in range(1, len(frames))])
        want = in_fresh_thread(lambda: list(fusion.stream(as_float64, CFG32)))
        transforms = count_rfft2(monkeypatch)
        got = in_fresh_thread(lambda: list(fusion.stream(frames, CFG32)))
        assert len(transforms) == 3
        assert got == want == cold

    @pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** -20, 2.0 ** 40])
    def test_repeat_outside_the_window_is_scaled_from_the_callers_frame(
            self, scale, monkeypatch):
        a, b, _ = (frame * scale for frame in shifted_stream(71, (32, 32)))
        calls = [(a, b, CFG32), (b, b.copy(), CFG32),
                 (b, b.copy(), CacheConfig(patch_size=4)),
                 (b, b.copy(), CFG32)]
        cold = cold_each(calls)
        transforms = count_rfft2(monkeypatch)
        assert in_fresh_thread(decide_each, calls) == cold
        assert len(transforms) == 2

    def test_repeat_with_other_settings_matches_cold(self):
        a, b, _ = shifted_stream(72, (32, 32))
        calls = [(a, b, CFG32),
                 (b, b.copy(), CacheConfig(patch_size=4)),
                 (b, b.copy(), CacheConfig(patch_size=16)),
                 (b, b.copy(), CacheConfig(patch_size=8, edge_lambda=-0.5)),
                 (b, b.copy(), CacheConfig(patch_size=8, edge_lambda=2.0)),
                 (b, b.copy(), CacheConfig(patch_size=4, tau_mig=1.0))]
        got = in_fresh_thread(decide_each, calls)
        assert got == cold_each(calls)
        assert len({d.refresh_set for d in got[1:5]}) > 1

    def test_buffer_rewritten_after_the_call_then_repeated(self):
        a, b, _ = shifted_stream(73, (32, 32))

        def rewritten(patch_size):
            buf = a.copy()
            decide(textured(74), buf, CacheConfig(patch_size=16))
            buf[...] = b
            return decide(a.copy(), a.copy(), CacheConfig(patch_size=patch_size))

        for patch_size in (8, 16):
            assert in_fresh_thread(rewritten, patch_size) == in_fresh_thread(
                decide, a, a, CacheConfig(patch_size=patch_size))

    @pytest.mark.parametrize("at", [CENTRE, LATTICE, CORNER])
    def test_signed_zero_is_not_a_repeat(self, at, monkeypatch):
        frame = textured(75)
        for where in (CENTRE, LATTICE, CORNER):
            frame = with_pixel(frame, 0.0, where)
        calls = [(textured(76), frame, CFG32),
                 (frame, with_pixel(frame, -0.0, at), CFG32)]
        cold = cold_each(calls)
        transforms = count_rfft2(monkeypatch)
        assert in_fresh_thread(decide_each, calls) == cold
        assert len(transforms) == 3

    @pytest.mark.parametrize("at", [CENTRE, LATTICE, CORNER])
    def test_nan_is_not_a_repeat(self, at):
        frame = textured(77)
        payload = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)
        calls = [(textured(78), frame, CFG32)]
        for nan in (np.nan, payload[0]):
            calls += [(frame, with_pixel(frame, nan, at), CFG32),
                      (frame, frame.copy(), CFG32)]
        got = in_fresh_thread(decide_each, calls)
        assert got == cold_each(calls)
        assert got[1] == got[3] == ("ValueError",
                                    "frame contains non-finite values")

    def test_repeat_sums_bins_once(self, monkeypatch):
        # The powers and the entropy are carried, so only the gate's cross
        # term is summed.
        calls = []
        real = spectral.bin_dot
        for module in (fusion, migration, budget):
            monkeypatch.setattr(module, "bin_dot",
                                lambda *a, **kw: calls.append(1) or real(*a, **kw))
        a, b, _ = shifted_stream(80, (64, 64))

        def repeat_sums():
            decide(a, b, CFG32, step=1)
            calls.clear()
            d = decide(b, b.copy(), CFG32, step=2)
            assert not d.flushed
            return len(calls)

        assert in_fresh_thread(repeat_sums) == 1

    def test_repeat_allocates_under_one_frame(self):
        frames = shifted_stream(79, (256, 256))
        cfg = CacheConfig(patch_size=16)

        def repeat_peak():
            decide(frames[0], frames[1], cfg, step=1)
            repeated = frames[1].copy()
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                d = decide(frames[1], repeated, cfg, step=2)
                return d, tracemalloc.get_traced_memory()[1] - base
            finally:
                if not was_tracing:
                    tracemalloc.stop()

        d, peak = in_fresh_thread(repeat_peak)
        assert d == in_fresh_thread(decide, frames[1], frames[1], cfg, step=2)
        assert peak < frames[0].nbytes


class TestScratchRegion:
    def test_carried_decide_allocates_under_two_and_a_half_frames(self):
        # With its temporaries on the thread's scratch region, a carried
        # decide allocates the new frame's half spectrum and amplitude (about
        # 1.5 frames) and the float32 correlation response (0.5 frames).
        frames = shifted_stream(49, (256, 256), n=4)
        cfg = CacheConfig(patch_size=16)

        def carried_peak():
            decide(frames[0], frames[1], cfg, step=1)
            decide(frames[1], frames[2], cfg, step=2)
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                decide(frames[2], frames[3], cfg, step=3)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                if not was_tracing:
                    tracemalloc.stop()

        assert in_fresh_thread(carried_peak) <= 2.5 * frames[0].nbytes

    def test_growing_and_shrinking_region_matches_fresh_threads(self):
        cases = [(50, (96, 96), 8), (51, (256, 256), 16), (52, (96, 96), 16)]

        def one_thread():
            return [stage_results(shifted_stream(seed, shape), p)
                    for seed, shape, p in cases]

        for got, (seed, shape, p) in zip(in_fresh_thread(one_thread), cases):
            want = in_fresh_thread(stage_results, shifted_stream(seed, shape), p)
            assert got[:3] == want[:3]
            assert np.array_equal(got[3], want[3])

    def test_results_do_not_alias_the_region(self):
        def kept_then_more_calls():
            # The largest request comes first, so the later calls reuse the
            # region instead of growing it away from anything that aliases it.
            stage_results(shifted_stream(54, (128, 96)), 16)
            frames = shifted_stream(53, (64, 64))
            energy = patch_energy(PatchGrid(frames[-1], 8))
            decision = decide(frames[0], frames[1], CFG32, step=1)
            kept = (energy.copy(), copy.deepcopy(decision))
            for seed, shape, p in ((55, (96, 96), 16), (56, (64, 64), 8)):
                stage_results(shifted_stream(seed, shape), p)
            region = spectral._scratch.region
            return energy, decision, kept, region

        energy, decision, (energies, copied), region = in_fresh_thread(
            kept_then_more_calls)
        assert not np.shares_memory(energy, region)
        assert np.array_equal(energy, energies)
        assert decision == copied
        assert decision.timings_us == copied.timings_us


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

    def test_runs_the_invariant_check(self, monkeypatch):
        import oracles

        checked = []
        monkeypatch.setattr(oracles, "_check_decision",
                            lambda *args: checked.append(args))
        decide_reference(textured(18, (16, 16)), textured(19, (16, 16)),
                         CacheConfig(patch_size=4))
        assert len(checked) == 1

    def test_tied_energies_share_order(self):
        # four identical patches produce exactly tied energies
        tile = np.random.default_rng(17).random((8, 8))
        frame = np.tile(tile, (2, 2))
        fast = decide(frame, frame, CFG32)
        ref = decide_reference(frame, frame, CFG32)
        assert_decision_equivalence(fast, ref)


# Each entry breaks one invariant of a valid decision that reuses at least
# two patches, none of them in its last row; the message the check gives.
BROKEN = {
    "overlapping sets": (lambda d: dataclasses.replace(
        d, recompute_set=(d.reuse_set[0],) + d.recompute_set[1:]),
        "do not partition"),
    "missing index": (lambda d: dataclasses.replace(
        d, recompute_set=d.recompute_set[1:]), "do not partition"),
    "index past the grid": (lambda d: dataclasses.replace(
        d, recompute_set=d.recompute_set[:-1] + (d.rows * d.cols,)),
        "do not partition"),
    "negative index": (lambda d: dataclasses.replace(
        d, recompute_set=(-1,) + d.recompute_set[1:]), "do not partition"),
    "k_final mismatch": (lambda d: dataclasses.replace(
        d, k_final=d.k_final - 1), "budget rule"),
    "flushed step reuses": (lambda d: dataclasses.replace(
        d, flushed=True), "flushed step must reuse nothing"),
    "reuse outside alignment": (lambda d: dataclasses.replace(
        d, displacement=Displacement.from_pixels(8 * (d.rows - 1), 0, 8)),
        "violates alignment/refresh safety"),
    "reuse in refresh set": (lambda d: dataclasses.replace(
        d, refresh_set=tuple(sorted(d.refresh_set + d.reuse_set[:1]))),
        "violates alignment/refresh safety"),
}


class TestCheckDecision:
    @staticmethod
    def valid():
        frame = textured(40, (64, 64))
        d = decide(frame, frame, CFG32)
        assert not d.flushed and d.k_final >= 2
        assert min(d.reuse_set) < (d.rows - 1) * d.cols
        return d

    @staticmethod
    def check(d):
        """``_check_decision`` with the alignment and refresh masks that the
        decision's own displacement and ``refresh_set`` give, and its sets
        as the index arrays ``decide`` passes."""
        align = alignment_mask(d.displacement,
                               PatchGrid(np.zeros((d.rows * 8, d.cols * 8)), 8))
        fresh = np.zeros(d.rows * d.cols, dtype=bool)
        fresh[list(d.refresh_set)] = True
        fusion._check_decision(d, align, fresh.reshape(d.rows, d.cols),
                               np.array(d.reuse_set, dtype=np.intp),
                               np.array(d.recompute_set, dtype=np.intp))

    def test_valid_decision_passes(self):
        self.check(self.valid())

    @pytest.mark.parametrize("name", BROKEN)
    def test_broken_decision_raises(self, name):
        breaks, message = BROKEN[name]
        with pytest.raises(InvariantError, match=message):
            self.check(breaks(self.valid()))

    def test_broken_decisions_raise_under_python_O(self):
        paths = [str(Path(freqcache.__file__).parents[1]), str(Path(__file__).parent)]
        code = ("import sys, test_fusion; t = test_fusion.TestCheckDecision(); "
                "[t.test_broken_decision_raises(name) "
                "for name in test_fusion.BROKEN]; "
                "print(sys.flags.optimize)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1"


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
            patch_size=8, alpha_min=1.0, alpha_max=1.0,
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
            patch_size=8, alpha_min=1.0, alpha_max=1.0,
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

    @pytest.mark.parametrize("index,patches", [(-1, (-1, 1)), (16, (1, 0))])
    def test_reuse_index_out_of_range_raises(self, index, patches):
        # -1 once reused slot (3, 3) from slot (0, 2), though its mapped
        # source (4, 2) lies outside the grid; 16 reached NumPy's IndexError
        prev = np.random.default_rng(0).random((32, 32))
        curr = np.roll(prev, (-8, 8), axis=(0, 1))
        cache = populate_cache(prev, 8, default_token_fn)
        d = decide(prev, curr, CFG32)
        planted = dataclasses.replace(
            d, displacement=Displacement(8 * patches[0], 8 * patches[1],
                                         *patches),
            reuse_set=(index,), recompute_set=tuple(range(15)), k_final=1)
        with pytest.raises(InvariantError, match=re.escape(
                f"reuse index {index} out of range for 16 patches")):
            step(cache, planted, curr, default_token_fn)

    def test_reuse_index_listed_twice_raises(self):
        # a 25-entry reuse set with one repeat once reported 24 reused
        prev = textured(34, (64, 64))
        curr = np.roll(prev, (8, 16), axis=(0, 1))
        d = decide(prev, curr, CFG32)
        assert d.k_final >= 2
        cache = populate_cache(prev, 8, default_token_fn)
        planted = dataclasses.replace(
            d, reuse_set=d.reuse_set + d.reuse_set[1:2])
        with pytest.raises(InvariantError, match=re.escape(
                f"reuse index {d.reuse_set[1]} listed more than once")):
            step(cache, planted, curr, default_token_fn)

    @pytest.mark.parametrize("size,ages", [(96, None), (32, None),
                                           (64, (8, 9))])
    def test_cache_of_another_grid_raises(self, size, ages):
        # an 8x8 decision on a 12x12 cache once copied tokens from the wrong
        # slots, and on a 4x4 cache raised a bare IndexError
        prev = textured(32, (64, 64))
        curr = np.roll(prev, (8, 16), axis=(0, 1))
        d = decide(prev, curr, CFG32)
        assert not d.flushed and d.k_final > 0
        cache = populate_cache(textured(33, (size, size)), 8, default_token_fn)
        if ages is not None:
            cache.ages = np.zeros(ages, dtype=np.int64)
        n = size // 8
        with pytest.raises(ValueError, match=re.escape(
                f"cache grid ({n}, {n}) (ages {cache.ages.shape}) does not "
                "match decision grid 8x8")):
            step(cache, d, curr, default_token_fn)

    @pytest.mark.parametrize("rows,cols", [
        (3, 3),    # 3 rows do not divide 32 pixels
        (2, 4),    # 16x8-pixel patches are not square
        (64, 64),  # more patches than pixels
        (0, 4),    # an empty grid
        (4, 0),
        (-4, -4),  # a negative grid
        (32, 32),  # one-pixel patches
    ])
    def test_decision_grid_that_does_not_tile_the_frame_raises(self, rows,
                                                               cols):
        frame = textured(34)
        d = dataclasses.replace(decide(frame, frame, CFG32), rows=rows,
                                cols=cols)
        with pytest.raises(ValueError, match=re.escape(
                f"decision grid {rows}x{cols} does not tile frame 32x32")):
            step(None, d, frame, default_token_fn)

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


    def test_streamed_frame_is_scanned_once_in_step(self, monkeypatch):
        # decide scans each new frame with one min and one max, and step
        # validates each frame it tokenizes with one isfinite.
        prev, curr = textured(29), textured(30)
        nxt = np.roll(curr, (8, 0), axis=(0, 1))
        scans = count_frame_scans(monkeypatch, prev.shape)
        cache = populate_cache(prev, 8, default_token_fn)

        def stream_two_steps():
            scans.clear()
            d = decide(prev, curr, CFG32)
            counts = [dict(scans)]
            new_cache, _ = step(cache, d, curr, default_token_fn)
            counts.append(dict(scans))
            d = decide(curr, nxt, CFG32, step=2)
            counts.append(dict(scans))
            step(new_cache, d, nxt, default_token_fn)
            counts.append(dict(scans))
            return counts

        assert in_fresh_thread(stream_two_steps) == [
            {"min": 2, "max": 2},
            {"min": 2, "max": 2, "isfinite": 1},
            {"min": 3, "max": 3, "isfinite": 1},
            {"min": 3, "max": 3, "isfinite": 2}]


class TestStream:
    def test_equals_an_explicit_decide_step_loop(self):
        base = textured(31, (64, 64))
        frames = [np.roll(base, (8 * t, 0), axis=(0, 1)) for t in range(7)]
        frames[3] = np.zeros((64, 64))  # flushes steps 3 and 4
        expected = [decide(frames[t - 1], frames[t], CFG32, step=t)
                    for t in range(1, len(frames))]
        got = list(fusion.stream(frames, CFG32))
        assert [d.flushed for d in got] == [False, False, True, True,
                                            False, False]
        assert all(d.k_final > 0 for d in got if not d.flushed)
        assert got == expected

    def test_walks_each_frame_once(self):
        frames = CountingFrames([np.roll(textured(35), (t, 2 * t), axis=(0, 1))
                                 for t in range(5)])
        assert list(fusion.stream(frames, CFG32)) == list(
            fusion.stream(frames.frames, CFG32))
        assert frames.reads == [1] * 5

    def test_takes_any_iterable(self):
        frames = [np.roll(textured(36), (0, 3 * t), axis=(0, 1))
                  for t in range(4)]
        assert list(fusion.stream(iter(frames), CFG32)) == list(
            fusion.stream(frames, CFG32))
        for short in ([], [frames[0]]):
            with pytest.raises(ValueError, match="^need at least 2 frames$"):
                list(fusion.stream(iter(short), CFG32))

    def test_rejected_frame_names_its_step(self):
        frames = [textured(32), textured(33), np.full((32, 32), np.nan)]
        with pytest.raises(ValueError, match="^step 2: frame contains "
                                             "non-finite values$"):
            list(fusion.stream(frames, CFG32))

    def test_decisions_need_no_token_path(self, monkeypatch, tmp_path):
        def token_path(*args, **kwargs):
            raise AssertionError("the token path ran")

        for name in ("step", "populate_cache", "default_token_fn"):
            monkeypatch.setattr(fusion, name, token_path)
        frames = [np.roll(textured(34, (64, 64)), (3 * t, 5 * t), axis=(0, 1))
                  for t in range(4)]
        assert run_sequence(frames, CFG32).mean_reuse_ratio > 0.0
        compare_domains(frames, CFG32)
        raw = tmp_path / "scene.fqc"
        save_rawf32(raw, frames)
        assert cli.main(["analyze", "--input", str(raw), "--out-dir",
                         str(tmp_path / "out"), "--patch-size", "8"]) == 0


class TestRunSequence:
    def test_static_sequence_hits_budget_every_step(self):
        frames = [textured(23, (64, 64))] * 6
        cfg = CacheConfig(
            patch_size=8, edge_lambda=1e15,
            alpha_min=0.4, alpha_max=0.4,
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
