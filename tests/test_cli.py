import argparse
import contextlib
import dataclasses
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
    CACHE_FIELDS,
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
        ("alpha-min = 0.9\nalpha-max = 0.1", (),
         "{cfg}:3: need 0 <= alpha_min <= alpha_max <= 1, got (0.9, 0.1)"),
        ("alpha-max = 0.1", ("--alpha-min", 0.9),
         "{cfg}:3: need 0 <= alpha_min <= alpha_max <= 1, got (0.9, 0.1)"),
        # two broken rules: the pair is the one reported
        ("tau-mig = 1.5\nalpha-min = 0.9\nalpha-max = 0.1", (),
         "{cfg}:4: need 0 <= alpha_min <= alpha_max <= 1, got (0.9, 0.1)"),
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

    @pytest.mark.parametrize("config,flags,message", [
        ("", ("--seed", -1), "compare --input reads no seed"),
        ("seed = 5", (), "{cfg}:2: compare --input reads no seed"),
    ])
    def test_compare_input_with_a_seed_prints_one_line(self, tmp_path, capsys,
                                                       config, flags, message):
        raw = tmp_path / "scene.fqc"
        run_cli("synth", "--height", 32, "--width", 32, "--length", 3,
                "--out", raw)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{config}\n")
        out = tmp_path / "compare"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run_cli("compare", "--input", raw, "--patch-size", 8,
                    "--out-dir", out, "--config", cfg, *flags)
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

    # Each command that reads ``seed``, with the arguments it needs besides.
    SEEDED = {
        "synth": ("--out", "{out}/s.fqc"),
        "compare": ("--length", 3, "--out-dir", "{out}"),
        "bench": ("--iterations", 1, "--out", "{out}/b.json"),
    }

    @pytest.mark.parametrize("command", SEEDED)
    @pytest.mark.parametrize("config,flags,message", [
        ("", ("--seed", -1), "seed must be >= 0, got -1"),
        ("seed = -2", (), "{cfg}:2: seed must be >= 0, got -2"),
    ])
    def test_negative_seed_prints_one_line(self, tmp_path, capsys, command,
                                           config, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{config}\n")
        out = tmp_path / "out"
        argv = [str(a).format(out=out) for a in self.SEEDED[command]]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, *argv, "--config", cfg, *flags)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: {message.format(cfg=cfg)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,config,message", [
        (("bench", "--height", 96, "--width", 96, "--iterations", 1,
          "--out", "{out}/b.json"), "patch_size = 7",
         "{cfg}:2: patch size 7 does not divide frame dimensions 96x96"),
        (("compare", "--kind", "translate", "--length", 3, "--out-dir",
          "{out}"), "patch_size = 7",
         "{cfg}:2: patch size 7 does not divide frame dimensions 96x96"),
        (("synth", "--kind", "edge-inject", "--out", "{out}/s.fqc"),
         "patch_size = 7",
         "{cfg}:2: patch size 7 does not divide frame dimensions 96x96"),
        (("synth", "--out", "{out}/s.fqc"), "patch_size = 1",
         "{cfg}:2: patch_size must be >= 2, got 1"),
    ])
    def test_patch_size_for_generated_frames_prints_one_line(
            self, tmp_path, capsys, argv, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{config}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*(str(a).format(out=out) for a in argv), "--config", cfg)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"freqcache: error: {message.format(cfg=cfg)}\n")
        assert not out.exists()

    def test_synth_tiles_only_an_edge_inject_scene(self, tmp_path):
        # a translate scene is not placed on the patch grid
        raw = tmp_path / "s.fqc"
        assert run_cli("synth", "--height", 100, "--width", 100,
                       "--length", 2, "--out", raw) == 0
        assert load_frames(raw, "rawf32").shape == (100, 100)

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

    def test_cache_settings_map_every_cache_config_field(self):
        # a field added to CacheConfig cannot miss the CLI, and a setting
        # cannot name a field CacheConfig lacks
        fields = [f.name for f in dataclasses.fields(CacheConfig)]
        assert sorted(CACHE_FIELDS.values()) == sorted(fields)
        defaults = CacheConfig()
        for key, name in CACHE_FIELDS.items():
            assert DEFAULTS[key] == getattr(defaults, name), key
            assert type(DEFAULTS[key]) is type(getattr(defaults, name)), key
        for name in ("analyze", "compare", "bench"):
            assert READS[name][:5] == ("patch_size", "tau_mig", "lambda",
                                       "alpha_min", "alpha_max")

    def test_each_cache_setting_reaches_its_field(self):
        off = {"patch_size": 8, "tau_mig": 0.3, "lambda": 0.7,
               "alpha_min": 0.2, "alpha_max": 0.6}
        assert set(off) == set(CACHE_FIELDS)
        argv = ["analyze", "--input", "x", "--out-dir", "y"]
        for key, value in off.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        args = build_parser().parse_args(argv)
        cfg = build_cache_config(resolve_settings(args))
        assert cfg == CacheConfig(patch_size=8, tau_mig=0.3, edge_lambda=0.7,
                                  alpha_min=0.2, alpha_max=0.6)

    @pytest.mark.parametrize("broken,checked", [
        ({"tau_mig": 1.5}, {"tau_mig"}),
        ({"edge_lambda": float("inf")}, {"edge_lambda"}),
        ({"alpha_min": 0.9, "alpha_max": 0.1}, {"alpha_min", "alpha_max"}),
        ({"patch_size": 1}, {"patch_size"}),
    ])
    def test_each_rule_names_the_fields_it_checks(self, broken, checked):
        # build_cache_config blames the settings of the fields a message
        # names, found by substring, so no field name may hold another
        names = [f.name for f in dataclasses.fields(CacheConfig)]
        assert not [(a, b) for a in names for b in names if a != b and a in b]
        with pytest.raises(ValueError) as exc_info:
            CacheConfig(**broken)
        assert {name for name in names if name in str(exc_info.value)} == (
            checked)

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
            "compare": (("--height", 32, "--width", 32, "--length", 3,
                         "--patch-size", 8, "--out-dir", tmp_path / "cmp"),
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
        # frames read from a file have no seed
        assert run_cli("compare", "--input", raw, "--patch-size", 8,
                       "--out-dir", tmp_path / "cmp-input") == 0
        manifest = json.loads((tmp_path / "cmp-input" / "manifest.json")
                              .read_text())
        assert list(manifest["settings"]) == [
            key for key in READS["compare"] if key != "seed"]


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


# Commands run one after another in one process: ``analyze`` with and
# without ``--timings``, ``synth``, ``masks``, a flag ``analyze`` does not
# read (exit 2), then ``analyze`` again.
SESSION = [
    ("synth", "--kind", "translate", "--height", 32, "--width", 32,
     "--length", 4, "--seed", 2, "--patch-size", 8, "--out", "s.fqc"),
    ("analyze", "--input", "s.fqc", "--out-dir", "timed", "--patch-size", 8,
     "--timings"),
    ("analyze", "--input", "s.fqc", "--out-dir", "plain", "--patch-size", 8),
    ("synth", "--kind", "static", "--height", 32, "--width", 32,
     "--length", 3, "--out", "t.fqc"),
    ("masks", "--decisions", "plain/decisions.jsonl", "--out-dir", "m"),
    ("analyze", "--input", "s.fqc", "--out-dir", "x", "--seed", 1),
    ("analyze", "--input", "t.fqc", "--out-dir", "again", "--lambda", 0.5),
]


def run_session(cwd, monkeypatch, fresh_parser):
    """Each command of ``SESSION`` through :func:`main` in ``cwd``, with a
    parser built anew for each if ``fresh_parser``; the exit status, stdout
    and stderr of each."""
    monkeypatch.chdir(cwd)
    build_parser.cache_clear()
    streams = []
    for argv in SESSION:
        if fresh_parser:
            build_parser.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_cli(*argv)
            except SystemExit as exc:
                code = exc.code
        streams.append((code, out.getvalue(), err.getvalue()))
    return streams


def output_files(top):
    """Every file under ``top`` but the manifests, which hold wall-clock
    times, by relative path; ``decisions.jsonl`` with ``timings_us`` as
    its records' keys only."""
    files = {}
    for path in sorted(top.rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            files[str(path.relative_to(top))] = path.read_bytes()
    files["timed/decisions.jsonl"] = [
        {**rec, "timings_us": sorted(rec["timings_us"])}
        for rec in read_decisions_jsonl(top / "timed" / "decisions.jsonl")]
    return files


class TestOneParserPerProcess:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch):
        run_session(tmp_path, monkeypatch, fresh_parser=False)
        assert build_parser.cache_info().misses == 1
        assert build_parser() is build_parser()

    def test_reused_parser_gives_what_fresh_ones_give(self, tmp_path,
                                                      monkeypatch):
        runs = {}
        for fresh in (False, True):
            cwd = tmp_path / str(fresh)
            cwd.mkdir()
            runs[fresh] = (run_session(cwd, monkeypatch, fresh),
                           output_files(cwd))
        assert runs[False] == runs[True]
        streams, files = runs[False]
        assert [code for code, _, _ in streams] == [0, 0, 0, 0, 0, 2, 0]
        assert "unrecognized arguments: --seed 1" in streams[5][2]
        # --timings reaches only the run that gives it
        assert b"timings_us" not in files["plain/decisions.jsonl"]
        assert b"timings_us" not in files["again/decisions.jsonl"]
        assert "x/decisions.jsonl" not in files
        assert len(files["timed/decisions.jsonl"]) == 3


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
