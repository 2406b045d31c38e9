import numpy as np
import pytest

from freqcache import FrameParseError
from freqcache.frameio import (
    export_masks,
    load_frames,
    load_rawf32,
    read_netpbm,
    save_rawf32,
    write_pgm,
)
from freqcache.fusion import CacheConfig, run_sequence
from freqcache.records import decision_record
from freqcache.scenes import SceneSpec, generate_scene


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
