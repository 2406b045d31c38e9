import re
import struct
import sys
import threading

import numpy as np
import pytest

from freqcache import FrameParseError, spectral
from freqcache.frameio import (
    RAWF32_HEADER,
    RAWF32_MAGIC,
    FrameSequence,
    export_masks,
    load_frames,
    load_rawf32,
    read_netpbm,
    save_rawf32,
    write_pgm,
)
from freqcache.fusion import CacheConfig, decide, run_sequence
from freqcache.records import decision_record
from freqcache.scenes import SceneSpec, generate_scene

from oracles import load_rawf32_eager

F32 = np.finfo(np.float32)
# Signed zeros, the subnormal range's ends, the normal range's ends and one.
FLOAT32_EXTREMES = np.array(
    [0.0, -0.0, F32.smallest_subnormal, -F32.smallest_subnormal,
     F32.smallest_normal - F32.smallest_subnormal, F32.smallest_normal,
     -F32.smallest_normal, F32.max, -F32.max, 1.0, -1.0], dtype=np.float32)


def write_raw(path, stack):
    """A rawf32 file holding ``stack`` (T, H, W) as float32, unchecked."""
    stack = np.asarray(stack, dtype="<f4")
    t, h, w = stack.shape
    path.write_bytes(RAWF32_MAGIC + struct.pack("<III", h, w, t)
                     + stack.tobytes())
    return path


def random_float32(seed, shape):
    """Finite float32 values of random bits: every exponent but the one of
    inf and NaN, subnormals included, then the extremes at the start."""
    bits = np.random.default_rng(seed).integers(
        0, 2 ** 32, size=shape, dtype=np.uint64).astype(np.uint32)
    bits[(bits >> 23 & 0xFF) == 0xFF] ^= 1 << 23
    values = bits.view(np.float32)
    values.ravel()[:FLOAT32_EXTREMES.size] = FLOAT32_EXTREMES
    return values


def same_bits(a, b):
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


class TestNetpbm:
    def test_p5_value_mapping(self, tmp_path):
        path = tmp_path / "two.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        frame = read_netpbm(path)
        assert frame.tolist() == [[0.0, 1.0], [128 / 255, 64 / 255]]

    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        original = rng.random((6, 9))
        path = tmp_path / "rt.pgm"
        write_pgm(path, original)
        loaded = read_netpbm(path)
        # exact within 8-bit quantization
        assert np.max(np.abs(loaded - original)) <= 0.5 / 255 + 1e-12

    def test_p6_luma_reduction(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        frame = read_netpbm(path)
        assert frame[0, 0] == pytest.approx(0.299, abs=1e-9)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n" + bytes([10]))
        assert read_netpbm(path)[0, 0] == pytest.approx(10 / 255)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        payload = b"P5\n2 2\n255\n" + bytes([1, 2, 3])  # one byte missing
        path.write_bytes(payload)
        with pytest.raises(FrameParseError) as err:
            read_netpbm(path)
        assert err.value.offset == len(payload)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(FrameParseError) as err:
            read_netpbm(path)
        assert err.value.offset == 0


class TestRawf32:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [rng.random((8, 12)) for _ in range(3)]
        first = tmp_path / "a.fqc"
        second = tmp_path / "b.fqc"
        save_rawf32(first, frames)
        loaded = load_rawf32(first)
        save_rawf32(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        for a, b in zip(loaded, load_rawf32(second)):
            assert np.array_equal(a, b)

    def test_truncated_payload_names_exact_offset(self, tmp_path):
        frames = [np.random.default_rng(2).random((4, 4))]
        path = tmp_path / "t.fqc"
        save_rawf32(path, frames)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FrameParseError) as err:
            load_rawf32(path)
        assert err.value.offset == len(data) - 5

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "m.fqc"
        path.write_bytes(b"NOPE" + bytes(12) + bytes(16))
        with pytest.raises(FrameParseError) as err:
            load_rawf32(path)
        assert err.value.offset == 0

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.fqc"
        path.write_bytes(b"FQC1\x01\x00")
        with pytest.raises(FrameParseError) as err:
            load_rawf32(path)
        assert err.value.offset == 6

    def test_invalid_dimensions(self, tmp_path):
        import struct

        path = tmp_path / "d.fqc"
        path.write_bytes(b"FQC1" + struct.pack("<III", 0, 4, 1) + bytes(16))
        with pytest.raises(FrameParseError) as err:
            load_rawf32(path)
        assert err.value.offset == 4

    def test_trailing_bytes_rejected(self, tmp_path):
        frames = [np.zeros((2, 2))]
        path = tmp_path / "x.fqc"
        save_rawf32(path, frames)
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(FrameParseError):
            load_rawf32(path)


class TestFrameSequence:
    def test_frames_equal_the_eager_loader_bit_for_bit(self, tmp_path):
        path = write_raw(tmp_path / "r.fqc", random_float32(6, (5, 8, 12)))
        frames = load_frames(path)
        eager = load_rawf32_eager(path)
        assert isinstance(frames, FrameSequence)
        assert (len(frames), frames.shape) == (5, (8, 12))
        for t in range(5):
            assert same_bits(frames[t], eager[t])
        assert all(map(same_bits, frames, eager))
        assert same_bits(frames[-1], eager[4])
        with pytest.raises(IndexError):
            frames[5]

    def test_integer_indices_iteration_and_reversed(self, tmp_path):
        path = write_raw(tmp_path / "i.fqc", random_float32(9, (4, 8, 8)))
        frames = load_frames(path)
        eager = load_rawf32_eager(path)
        assert len(frames) == 4
        assert all(same_bits(frames[-t], eager[4 - t]) for t in range(1, 5))
        forward, backward = list(frames), list(reversed(frames))
        assert len(forward) == len(backward) == 4
        assert all(map(same_bits, forward, eager))
        assert all(map(same_bits, backward, eager[::-1]))
        with pytest.raises(IndexError):
            frames[-5]
        with pytest.raises(TypeError, match="slice"):
            frames[1:]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_raises_when_it_is_read(self, tmp_path, bad):
        stack = np.random.default_rng(7).random((4, 6, 6))
        stack[2, 1, 3] = bad
        path = write_raw(tmp_path / "n.fqc", stack)
        frames = load_frames(path)
        for t in (0, 1, 3):
            frames[t]
        with pytest.raises(FrameParseError, match=re.escape(
                f"{path}: frame 2 contains non-finite values")):
            frames[2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, -1])
    def test_non_finite_first_or_last_value_raises(self, tmp_path, bad,
                                                   where):
        stack = np.random.default_rng(11).random((3, 5, 7))
        stack[1].ravel()[where] = bad
        path = write_raw(tmp_path / "e.fqc", stack)
        frames = load_frames(path)
        with pytest.raises(FrameParseError) as err:
            frames[1]
        assert str(err.value) == f"{path}: frame 1 contains non-finite values"
        assert same_bits(frames[2], load_rawf32_eager(path)[2])

    def test_frames_of_the_largest_float32_values_load(self, tmp_path):
        # values whose float64 sum is far outside the float32 range
        stack = np.full((2, 6, 6), F32.max, dtype=np.float32)
        stack[1] = -F32.max
        stack[1, 0, 0] = F32.max
        path = write_raw(tmp_path / "m.fqc", stack)
        frames = load_frames(path)
        assert all(map(same_bits, frames, load_rawf32_eager(path)))
        assert frames[0].max() == frames[0].min() == float(F32.max)

    def test_file_truncated_after_loading_raises(self, tmp_path):
        path = tmp_path / "t.fqc"
        save_rawf32(path, np.random.default_rng(8).random((3, 4, 4)))
        data = path.read_bytes()
        frames = load_rawf32(path)
        path.write_bytes(data[:-5])
        frames[1]
        with pytest.raises(FrameParseError, match="truncated rawf32 payload, "
                           f"expected {len(data)} bytes") as err:
            frames[2]
        assert err.value.offset == len(data) - 5
        path.write_bytes(data[:RAWF32_HEADER])
        with pytest.raises(FrameParseError) as err:
            frames[0]
        assert err.value.offset == RAWF32_HEADER
        path.unlink()
        with pytest.raises(FrameParseError, match=re.escape(
                f"{path}: frame 0: No such file or directory")):
            frames[0]

    def test_frames_are_fresh_writeable_arrays(self, tmp_path):
        path = write_raw(tmp_path / "w.fqc", random_float32(9, (3, 16, 8)))
        frames = load_frames(path)
        got = list(frames) + [frames[0]]
        region = spectral._scratch.region
        for i, frame in enumerate(got):
            assert frame.flags.writeable
            assert not np.shares_memory(frame, region)
            assert not any(np.shares_memory(frame, other) for other in got[i + 1:])
        got[0][...] = 0.0
        assert same_bits(frames[0], load_rawf32_eager(path)[0])

    def test_two_threads_read_one_sequence(self, tmp_path):
        path = write_raw(tmp_path / "th.fqc",
                         np.random.default_rng(10).random((8, 64, 96)))
        frames = load_frames(path)
        eager = load_rawf32_eager(path)
        # Switching threads every microsecond puts one thread's read between
        # another's read and its conversion, if they stage in one buffer.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        start = threading.Barrier(2, timeout=60)
        wrong = [[], []]

        def reader(k):
            # The two threads read in opposite orders; on its first pass one
            # also runs ``decide``, which writes its own scratch region.
            order = list(range(8)) if k == 0 else list(range(7, -1, -1))
            try:
                start.wait()
                for r in range(200):
                    for t in order:
                        frame = frames[t]
                        if k == 1 and t > 0 and r == 0:
                            decide(frames[t - 1], frame,
                                   CacheConfig(patch_size=8))
                        if not same_bits(frame, eager[t]):
                            wrong[k].append(t)
            except Exception as exc:
                start.abort()
                wrong[k].append(exc)

        threads = [threading.Thread(target=reader, args=(k,)) for k in (0, 1)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [[], []]

    def test_bad_pgm_raises_when_it_is_read(self, tmp_path):
        rng = np.random.default_rng(11)
        for name in ("a", "b", "c"):
            write_pgm(tmp_path / f"{name}.pgm", rng.random((4, 6)))
        (tmp_path / "b.pgm").write_bytes(b"P5\n6 4\n255\n" + bytes(5))
        frames = load_frames(tmp_path)
        assert (len(frames), frames.shape) == (3, (4, 6))
        assert frames[2].shape == (4, 6)
        with pytest.raises(FrameParseError, match="b.pgm: truncated pixel data"):
            frames[1]


class TestLoadFrames:
    def test_auto_detects_rawf32_and_pgm_dir(self, tmp_path):
        frames = [np.random.default_rng(3).random((4, 6)) for _ in range(2)]
        raw = tmp_path / "seq.fqc"
        save_rawf32(raw, frames)
        assert len(load_frames(raw)) == 2

        pgm_dir = tmp_path / "imgs"
        pgm_dir.mkdir()
        for t, f in enumerate(frames):
            write_pgm(pgm_dir / f"f_{t:03d}.pgm", f)
        loaded = load_frames(pgm_dir)
        assert len(loaded) == 2
        assert loaded[0].shape == (4, 6)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(FrameParseError):
            load_frames(tmp_path, "pgm")


class TestExportMasks:
    def _decisions(self):
        scene = generate_scene(
            SceneSpec(kind="edge-inject", height=32, width=32, length=5,
                      seed=4, edge_count=2, patch_size=8)
        )
        report = run_sequence(scene.frames, CacheConfig(patch_size=8))
        return report.decisions

    def test_reused_pixel_count_matches_k_final(self, tmp_path):
        decisions = self._decisions()
        paths = export_masks([decision_record(d) for d in decisions], tmp_path)
        assert [p.name for p in paths] == [
            f"step_{d.step:05d}.pgm" for d in decisions
        ]
        for d, p in zip(decisions, paths):
            img = (read_netpbm(p) * 255).round().astype(int)
            assert int((img == 255).sum()) == d.k_final
            if not d.flushed:
                assert int((img == 128).sum()) == len(d.refresh_set)

    def test_flushed_step_renders_all_zero(self, tmp_path):
        decisions = self._decisions()
        rec = decision_record(decisions[0])
        rec["flushed"] = True
        paths = export_masks([rec], tmp_path)
        img = read_netpbm(paths[0])
        assert np.all(img == 0.0)

    def test_accepts_jsonl_dicts(self, tmp_path):
        decisions = [decision_record(d) for d in self._decisions()]
        paths = export_masks(decisions, tmp_path)
        assert len(paths) == len(decisions)
