import json
import re

import numpy as np
import pytest

from freqcache import CacheConfig
from freqcache.cli import (
    build_cache_config,
    build_parser,
    main,
    read_config_file,
    resolve_settings,
)
from freqcache.frameio import load_rawf32, read_netpbm
from freqcache.records import read_decisions_jsonl


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
            read_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tau_mig 0.3\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(cfg)

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
            read_config_file(cfg)

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
        assert set(decisions[0]["timings_us"]) >= {
            "transform", "migration", "edge", "budget", "select", "check"}

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
                       "--warmup", 3, "--out", out) == 0
        result = json.loads(out.read_text())
        assert result["iterations"] == 5
        assert result["median_ms"] > 0.0
