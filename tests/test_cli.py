import argparse
import contextlib
import gc
import io
import json
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from freqcache import CacheConfig, cli
from freqcache.cli import (
    DEFAULTS,
    READS,
    build_cache_config,
    build_parser,
    main,
    read_config_file,
    resolve_settings,
)
from freqcache.frameio import (
    RAWF32_HEADER,
    load_frames,
    load_rawf32,
    read_netpbm,
    save_rawf32,
    write_pgm,
)
from freqcache.fusion import run_sequence
from freqcache.records import read_decisions_jsonl

from oracles import CountingFrames


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestConfigResolution:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau-mig = 0.3\npatch_size = 8  # inline comment\n")
        parser = build_parser()
        args = parser.parse_args(
            ["analyze", "--input", "x", "--out-dir", "y",
             "--config", str(cfg), "--tau-mig", "0.5"]
        )
        settings = resolve_settings(args)
        assert settings["tau_mig"] == 0.5       # flag wins
        assert settings["patch_size"] == 8      # file wins over default
        assert settings["lambda"] == 0.25       # default

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau_wat = 1\n")
        with pytest.raises(ValueError, match="unknown setting"):
            read_config_file(cfg, "analyze")

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau_mig 0.3\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(cfg, "analyze")

    @pytest.mark.parametrize("line,message", [
        ("patch-size = 16.5", "patch_size must be int, got '16.5'"),
        ("tau-mig = high", "tau_mig must be float, got 'high'"),
    ])
    def test_unparsable_value_names_file_and_line(self, tmp_path, line,
                                                  message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# settings\nlambda = 0.5\n{line}\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{cfg}:3: {message}")):
            read_config_file(cfg, "analyze")

    def test_default_settings_build_the_default_config(self):
        args = build_parser().parse_args(
            ["analyze", "--input", "x", "--out-dir", "y"]
        )
        assert build_cache_config(resolve_settings(args)) == CacheConfig()


class TestUsageErrors:
    """A rejected setting or input exits with status 2 and one stderr line."""

    @pytest.mark.parametrize("config,flags,message", [
        ("tau-mig = 1.5", (), "{cfg}:3: tau_mig must lie in [0, 1], got 1.5"),
        ("", ("--patch-size", 7),
         "patch size 7 does not divide frame dimensions 64x64"),
        ("patch-size = 7", (),
         "{cfg}:3: patch size 7 does not divide frame dimensions 64x64"),
        ("", ("--alpha-min", 0.9, "--alpha-max", 0.1),
         "need 0 <= alpha_min <= alpha_max <= 1, got (0.9, 0.1)"),
        ("", ("--lambda", "inf"), "lambda must be finite, got inf"),
        ("lambda = inf", (), "{cfg}:3: lambda must be finite, got inf"),
        ("seed = 3", (), "{cfg}:3: unknown setting 'seed' for analyze; it "
         "reads patch_size, tau_mig, lambda, alpha_min, alpha_max"),
    ])
    def test_rejected_setting_prints_one_line(self, tmp_path, capsys, config,
                                              flags, message):
        raw = tmp_path / "scene.fqc"
        run_cli("synth", "--height", 64, "--width", 64, "--length", 3,
                "--out", raw)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\nlambda = 0.5\n{config}\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("analyze", "--input", raw, "--out-dir", tmp_path / "out",
                    "--config", cfg, *flags)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"freqcache: error: {message.format(cfg=cfg)}\n"

    def test_missing_input_prints_one_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.fqc"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("analyze", "--input", missing, "--out-dir", tmp_path / "out")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: --input {missing}: No such file or directory\n")

        for flag, argv in [
            ("--config", ("synth", "--out", tmp_path / "s.fqc")),
            ("--decisions", ("masks", "--out-dir", tmp_path / "masks")),
        ]:
            with pytest.raises(SystemExit) as exit_info:
                run_cli(*argv, flag, missing)
            assert exit_info.value.code == 2
            assert capsys.readouterr().err == (
                f"freqcache: error: {flag} {missing}: "
                "No such file or directory\n")

    @pytest.mark.parametrize("flag,argv", [
        ("--config", ("analyze", "--input", "x.fqc", "--out-dir", "out")),
        ("--decisions", ("masks", "--out-dir", "masks")),
    ])
    def test_file_that_is_not_utf8_prints_one_line(self, tmp_path, capsys,
                                                   flag, argv):
        path = tmp_path / "random.bin"
        path.write_bytes(np.random.default_rng(0).bytes(64))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, flag, path)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: {flag} {path}: not UTF-8 text\n")

    def test_reuse_index_outside_the_grid_prints_one_line(self, tmp_path,
                                                          capsys):
        raw = tmp_path / "scene.fqc"
        out = tmp_path / "analysis"
        run_cli("synth", "--height", 64, "--width", 64, "--length", 3,
                "--out", raw)
        run_cli("analyze", "--input", raw, "--out-dir", out,
                "--patch-size", 8)
        jsonl = out / "decisions.jsonl"
        lines = jsonl.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["reuse_set"] = [999]
        jsonl.write_text(f"{lines[0]}\n{json.dumps(rec)}\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("masks", "--decisions", jsonl, "--out-dir",
                    tmp_path / "masks")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: {jsonl}:2: reuse_set holds 999, not a patch "
            "index in [0, 64) of the 8x8 grid\n")
        assert not (tmp_path / "masks").exists()

    def test_flushed_that_is_not_a_boolean_prints_one_line(self, tmp_path,
                                                           capsys):
        raw = tmp_path / "scene.fqc"
        out = tmp_path / "analysis"
        run_cli("synth", "--height", 64, "--width", 64, "--length", 3,
                "--out", raw)
        run_cli("analyze", "--input", raw, "--out-dir", out,
                "--patch-size", 8)
        jsonl = out / "decisions.jsonl"
        lines = jsonl.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["flushed"] = "false"
        jsonl.write_text(f"{lines[0]}\n{json.dumps(rec)}\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("masks", "--decisions", jsonl, "--out-dir",
                    tmp_path / "masks")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f'freqcache: error: {jsonl}:2: flushed must be true or false, '
            'got "false"\n')
        assert not (tmp_path / "masks").exists()

    def test_repeated_step_prints_one_line(self, tmp_path, capsys):
        raw = tmp_path / "scene.fqc"
        out = tmp_path / "analysis"
        run_cli("synth", "--height", 64, "--width", 64, "--length", 3,
                "--out", raw)
        run_cli("analyze", "--input", raw, "--out-dir", out,
                "--patch-size", 8)
        jsonl = out / "decisions.jsonl"
        first = jsonl.read_text().splitlines()[0]
        jsonl.write_text(f"{first}\n{first}\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("masks", "--decisions", jsonl, "--out-dir",
                    tmp_path / "masks")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: {jsonl}:2: step 1 repeats line 1\n")
        assert not (tmp_path / "masks").exists()

    @pytest.mark.parametrize("config,flags,message", [
        ("", ("--tau-visual", "nan"),
         "tau_visual must be a cosine in [-1, 1], got nan"),
        ("tau-naive-freq = 1.5", (),
         "{cfg}:2: tau_naive_freq must be a cosine in [-1, 1], got 1.5"),
        ("tau-visual = 2", ("--tau-visual", "-0.5", "--tau-naive-freq", "-2"),
         "tau_naive_freq must be a cosine in [-1, 1], got -2.0"),
    ])
    def test_compare_threshold_that_is_not_a_cosine_prints_one_line(
            self, tmp_path, capsys, config, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{config}\n")
        out = tmp_path / "compare"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("compare", "--height", 32, "--width", 32, "--length", 3,
                    "--patch-size", 8, "--out-dir", out, "--config", cfg,
                    *flags)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: {message.format(cfg=cfg)}\n")
        assert not out.exists()

    def test_non_finite_frame_prints_one_line(self, tmp_path, capsys):
        raw = tmp_path / "scene.fqc"
        run_cli("synth", "--height", 32, "--width", 32, "--length", 5,
                "--out", raw)
        with open(raw, "r+b") as fh:
            fh.seek(RAWF32_HEADER + 4 * (3 * 32 * 32 + 100))
            fh.write(struct.pack("<f", float("nan")))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("analyze", "--input", raw, "--out-dir", tmp_path / "out")
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: {raw}: frame 3 contains non-finite values\n")
        assert not (tmp_path / "out").exists()

    def test_frame_shape_change_prints_one_line(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        rng = np.random.default_rng(1)
        for name, shape in [("a", (16, 16)), ("b", (16, 16)), ("c", (16, 8))]:
            write_pgm(frames / f"{name}.pgm", rng.random(shape))
        with pytest.raises(SystemExit) as exit_info:
            run_cli("analyze", "--input", frames, "--out-dir",
                    tmp_path / "out", "--patch-size", 8)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "freqcache: error: step 2: frame shapes differ: (16, 16) vs "
            "(16, 8)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("masks", "--decisions", "d.jsonl", "--out-dir", "m",
         "--tau-mig", "0.5"),
        ("analyze", "--input", "x", "--out-dir", "y", "--seed", "1"),
        ("synth", "--out", "s.fqc", "--lambda", "1"),
        ("masks", "--decisions", "d.jsonl", "--out-dir", "m",
         "--config", "run.cfg"),
    ])
    def test_flag_for_a_setting_the_command_does_not_read_exits_2(
            self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSettingsTable:
    """Each subcommand's setting flags, ``--config`` and manifest settings
    follow ``READS``."""

    def test_setting_flags_follow_the_table(self):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(READS)
        for name, sub in commands.items():
            flags = {a.dest: a for a in sub._actions}
            settings = {dest for dest in flags if dest in DEFAULTS}
            assert settings == set(READS[name]), name
            for key in READS[name]:
                assert flags[key].option_strings == ["--" + key.replace("_", "-")]
                assert flags[key].type is type(DEFAULTS[key])
                assert flags[key].default is None
            assert ("config" in flags) == bool(READS[name]), name

    def test_manifest_settings_follow_the_table(self, tmp_path):
        raw = tmp_path / "scene.fqc"
        out = tmp_path / "analysis"
        bench_out = tmp_path / "bench.json"
        runs = {
            "synth": (("--height", 32, "--width", 32, "--length", 3,
                       "--out", raw), raw.with_suffix(".fqc.manifest.json")),
            "analyze": (("--input", raw, "--out-dir", out,
                         "--patch-size", 8), out / "manifest.json"),
            "masks": (("--decisions", out / "decisions.jsonl",
                       "--out-dir", tmp_path / "masks"),
                      tmp_path / "masks" / "manifest.json"),
            "compare": (("--input", raw, "--patch-size", 8,
                         "--out-dir", tmp_path / "cmp"),
                        tmp_path / "cmp" / "manifest.json"),
            "bench": (("--height", 32, "--width", 32, "--patch-size", 8,
                       "--iterations", 1, "--out", bench_out),
                      bench_out.with_suffix(".json.manifest.json")),
        }
        assert set(runs) == set(READS)
        for name, (argv, manifest_path) in runs.items():
            assert run_cli(name, *argv) == 0
            manifest = json.loads(manifest_path.read_text())
            assert manifest["command"] == name
            assert list(manifest["settings"]) == list(READS[name])


def shifted_frames(n, shape=(64, 64)):
    base = np.random.default_rng(12).random(shape)
    return [np.roll(base, (3 * t, 5 * t), axis=(0, 1)) for t in range(n)]


class TestFrameReads:
    """``analyze`` and ``compare --input`` read each frame once and hold only
    the frames of the current step."""

    @pytest.mark.parametrize("argv", [
        ("analyze",), ("compare", "--patch-size", 8),
    ])
    def test_each_frame_is_read_once(self, tmp_path, monkeypatch, argv):
        raw = tmp_path / "frames.fqc"
        save_rawf32(raw, shifted_frames(6))
        opened = []

        def counting(path, fmt="auto"):
            opened.append(CountingFrames(load_frames(path, fmt)))
            return opened[-1]

        monkeypatch.setattr(cli, "load_frames", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(*argv, "--input", raw, "--out-dir",
                           tmp_path / "out") == 0
        assert [frames.reads for frames in opened] == [[1] * 6]

    def test_analyze_peak_grows_by_its_decisions_not_its_frames(self, tmp_path):
        # Decisions stay in memory until they are written, so 56 more steps
        # may add what their decisions hold; the frames they passed must
        # not add more than two frames between them.
        paths = {}
        for n in (8, 64):
            paths[n] = tmp_path / f"frames{n}.fqc"
            save_rawf32(paths[n], shifted_frames(n))
        cfg = CacheConfig()

        def traced(fn, path):
            # Warmed up, so one-time allocations fall outside the trace, and
            # with the collector paused, so the peak does not depend on when
            # it runs.
            fn(paths[8])
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                held = fn(path)
                return tracemalloc.get_traced_memory(), held
            finally:
                tracemalloc.stop()
                gc.enable()

        def analyze(path):
            with contextlib.redirect_stdout(io.StringIO()):
                run_cli("analyze", "--input", path, "--out-dir",
                        tmp_path / f"out-{path.stem}")

        peak, kept = {}, {}
        for n in (8, 64):
            peak[n] = in_thread(traced, analyze, paths[n])[0][1]
            kept[n] = in_thread(
                traced, lambda path: run_sequence(load_frames(path), cfg),
                paths[n])[0][0]
        frame_bytes = 64 * 64 * 8
        assert 0 < kept[64] - kept[8] < 56 * frame_bytes / 16
        assert peak[64] - peak[8] < kept[64] - kept[8] + 2 * frame_bytes


def in_thread(fn, *args):
    """``fn(*args)`` on a new thread, which starts with no carried-over
    spectrum and a scratch region of its own."""
    out = {}

    def target():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            out["error"] = exc

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestEndToEnd:
    def test_synth_analyze_masks_compare(self, tmp_path):
        raw = tmp_path / "scene.fqc"
        assert run_cli("synth", "--kind", "translate", "--height", 64,
                       "--width", 64, "--length", 6, "--seed", 3,
                       "--out", raw) == 0
        assert raw.exists()
        assert raw.with_suffix(".fqc.manifest.json").exists()
        assert len(load_rawf32(raw)) == 6

        out = tmp_path / "analysis"
        assert run_cli("analyze", "--input", raw, "--out-dir", out,
                       "--patch-size", 8) == 0
        decisions = read_decisions_jsonl(out / "decisions.jsonl")
        assert len(decisions) == 5
        assert "timings_us" not in decisions[0]
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "step,reuse_ratio,sim_freq,entropy,alpha,latency_model_ms"
        assert len(metrics) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["settings"]["patch_size"] == 8

        masks = tmp_path / "masks"
        assert run_cli("masks", "--decisions", out / "decisions.jsonl",
                       "--out-dir", masks) == 0
        files = sorted(masks.glob("step_*.pgm"))
        assert len(files) == 5
        img = np.round(read_netpbm(files[0]) * 255).astype(int)
        assert int((img == 255).sum()) == decisions[0]["k_final"]

        cmp_dir = tmp_path / "cmp"
        assert run_cli("compare", "--kind", "edge-inject", "--height", 64,
                       "--width", 64, "--length", 6, "--seed", 5,
                       "--patch-size", 8, "--edge-count", 3,
                       "--out-dir", cmp_dir) == 0
        report = json.loads((cmp_dir / "compare.json").read_text())
        assert report["policies"]["freqcache"]["edge_false_reuse"] == 0

    def test_reproducible_outputs_across_runs(self, tmp_path):
        raw = tmp_path / "scene.fqc"
        run_cli("synth", "--kind", "complexity-ramp", "--height", 48,
                "--width", 48, "--length", 5, "--seed", 11, "--out", raw)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            run_cli("analyze", "--input", raw, "--out-dir", out,
                    "--patch-size", 8)
        assert (out_a / "decisions.jsonl").read_bytes() == \
               (out_b / "decisions.jsonl").read_bytes()
        assert (out_a / "metrics.csv").read_bytes() == \
               (out_b / "metrics.csv").read_bytes()

    def test_timings_flag_adds_field(self, tmp_path):
        raw = tmp_path / "scene.fqc"
        run_cli("synth", "--kind", "static", "--height", 32, "--width", 32,
                "--length", 3, "--seed", 0, "--out", raw)
        out = tmp_path / "timed"
        run_cli("analyze", "--input", raw, "--out-dir", out,
                "--patch-size", 8, "--timings")
        decisions = read_decisions_jsonl(out / "decisions.jsonl")
        assert "timings_us" in decisions[0]
        assert set(decisions[0]["timings_us"]) == {
            "intake", "transform", "migration", "edge", "budget", "select",
            "check"}

    def test_edge_scene_writes_labels_sidecar(self, tmp_path):
        raw = tmp_path / "edges.fqc"
        run_cli("synth", "--kind", "edge-inject", "--height", 64, "--width",
                64, "--length", 6, "--seed", 1, "--patch-size", 8,
                "--edge-count", 3, "--out", raw)
        labels = json.loads(
            raw.with_suffix(".fqc.labels.json").read_text()
        )
        assert len(labels) == 6
        assert len(labels[-1]) == 3

    def test_bench_smoke(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--height", 64, "--width", 64,
                       "--patch-size", 16, "--iterations", 5,
                       "--out", out) == 0
        result = json.loads(out.read_text())
        assert result["iterations"] == 5
        assert result["warmup"] == 5
        assert result["median_ms"] > 0.0
