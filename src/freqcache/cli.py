"""Command-line surface: synth, analyze, masks, compare, bench.

Settings resolve in three layers: built-in defaults, then a key=value
config file (``--config``), then explicit flags. Every run writes a
manifest JSON next to its outputs recording the resolved settings, inputs,
outputs, and wall-clock time. A rejected setting or input exits with status
2 and one ``freqcache: error:`` line on stderr, which starts with
``path:line:`` when the value came from the config file.
"""

import argparse
import json
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bench import bench
from .budget import BudgetConfig
from .compare import compare_domains
from .frame import PatchGrid
from .frameio import export_masks, load_frames, save_rawf32
from .fusion import CacheConfig, run_sequence
from .records import read_decisions_jsonl, write_decisions_jsonl, write_metrics_csv
from .scenes import SCENE_KINDS, SceneSpec, generate_scene

# Each default is read from where the library states it.
_CACHE = CacheConfig()
_COMPARE = compare_domains.__kwdefaults__
DEFAULTS = {
    "patch_size": _CACHE.patch_size,
    "tau_mig": _CACHE.tau_mig,
    "lambda": _CACHE.edge_lambda,
    "alpha_min": _CACHE.budget.alpha_min,
    "alpha_max": _CACHE.budget.alpha_max,
    "seed": 0,
    "tau_visual": _COMPARE["tau_visual"],
    "tau_naive_freq": _COMPARE["tau_naive_freq"],
}


class Settings(dict):
    """Setting values by key; ``origin`` maps each key whose value came from
    a config file to its ``path:line``."""

    def __init__(self, values=()):
        super().__init__(values)
        self.origin = {}

    @contextmanager
    def blame(self, *keys):
        """Prefix a ValueError raised in the block with the ``path:line`` of
        the first of ``keys`` whose value came from a config file."""
        try:
            yield
        except ValueError as exc:
            where = next((self.origin[k] for k in keys if k in self.origin), None)
            if where is None:
                raise
            raise ValueError(f"{where}: {exc}") from None


def read_config_file(path):
    """Parse a key=value config file into :class:`Settings`; '#' starts a
    comment.

    Each value is parsed as the type of its default (int or float).
    """
    settings = Settings()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        kind = type(DEFAULTS[key])
        try:
            settings[key] = kind(value)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} must be {kind.__name__}, got {value!r}"
            ) from None
        settings.origin[key] = f"{path}:{lineno}"
    return settings


def resolve_settings(args):
    """Defaults, overridden by the config file, overridden by flags."""
    settings = Settings(DEFAULTS)
    if getattr(args, "config", None):
        from_file = read_config_file(args.config)
        settings.update(from_file)
        settings.origin.update(from_file.origin)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
            settings.origin.pop(key, None)
    return settings


def build_cache_config(settings):
    """The :class:`CacheConfig` of resolved :class:`Settings`; a value it
    rejects is reported with the config-file line that set it."""
    with settings.blame("alpha_min", "alpha_max"):
        budget = BudgetConfig(alpha_min=settings["alpha_min"],
                              alpha_max=settings["alpha_max"])
    fields = {"tau_mig": "tau_mig", "edge_lambda": "lambda",
              "patch_size": "patch_size"}
    # CacheConfig checks each field alone, so trying one field at a time
    # finds the setting to blame.
    for name, key in fields.items():
        with settings.blame(key):
            CacheConfig(**{name: settings[key]})
    return CacheConfig(budget=budget,
                       **{name: settings[key] for name, key in fields.items()})


def _load_input(args, settings):
    """The frames of ``--input``, checked to tile by the patch size."""
    try:
        frames = load_frames(args.input, args.format)
    except OSError as exc:
        raise ValueError(f"--input {args.input}: {exc.strerror}") from None
    with settings.blame("patch_size"):
        PatchGrid(frames[0], settings["patch_size"])
    return frames


def write_manifest(path, command, settings, inputs, outputs, t0):
    manifest = {
        "tool": "freqcache",
        "version": __version__,
        "command": command,
        "settings": settings,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "started_utc": datetime.fromtimestamp(t0, timezone.utc).isoformat(),
        "wall_time_s": round(time.time() - t0, 6),
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _add_common(parser):
    parser.add_argument("--patch-size", dest="patch_size", type=int)
    parser.add_argument("--tau-mig", dest="tau_mig", type=float)
    parser.add_argument("--lambda", dest="lambda", type=float,
                        help="edge sensitivity")
    parser.add_argument("--alpha-min", dest="alpha_min", type=float)
    parser.add_argument("--alpha-max", dest="alpha_max", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--config", help="key=value settings file")


def _add_scene(parser):
    parser.add_argument("--kind", choices=SCENE_KINDS, default="translate")
    parser.add_argument("--height", type=int, default=96)
    parser.add_argument("--width", type=int, default=96)
    parser.add_argument("--length", type=int, default=16)
    parser.add_argument("--shift-i", type=int, default=2)
    parser.add_argument("--shift-j", type=int, default=3)
    parser.add_argument("--edge-count", type=int, default=4)
    parser.add_argument("--gradient-lo", type=float, default=0.15)
    parser.add_argument("--gradient-hi", type=float, default=0.85)
    parser.add_argument("--noise-amplitude", type=float, default=1.0)


def _scene_from_args(args, settings):
    spec = SceneSpec(
        kind=args.kind,
        height=args.height,
        width=args.width,
        length=args.length,
        seed=settings["seed"],
        shift=(args.shift_i, args.shift_j),
        edge_count=args.edge_count,
        patch_size=settings["patch_size"],
        gradient_range=(args.gradient_lo, args.gradient_hi),
        noise_amplitude=args.noise_amplitude,
    )
    return generate_scene(spec)


def cmd_synth(args):
    t0 = time.time()
    settings = resolve_settings(args)
    scene = _scene_from_args(args, settings)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_rawf32(out, scene.frames)
    outputs = [out]
    if any(scene.edge_labels):
        labels_path = out.with_suffix(out.suffix + ".labels.json")
        labels_path.write_text(
            json.dumps([sorted(s) for s in scene.edge_labels]) + "\n"
        )
        outputs.append(labels_path)
    manifest = write_manifest(
        out.with_suffix(out.suffix + ".manifest.json"),
        "synth", settings, [], outputs, t0,
    )
    print(f"wrote {len(scene.frames)} frames to {out} (manifest {manifest})")
    return 0


def cmd_analyze(args):
    t0 = time.time()
    settings = resolve_settings(args)
    cfg = build_cache_config(settings)
    frames = _load_input(args, settings)
    report = run_sequence(frames, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl = out_dir / "decisions.jsonl"
    csv_path = out_dir / "metrics.csv"
    write_decisions_jsonl(jsonl, report.decisions, include_timings=args.timings)
    write_metrics_csv(csv_path, report)
    write_manifest(out_dir / "manifest.json", "analyze", settings,
                   [args.input], [jsonl, csv_path], t0)
    print(
        f"analyzed {report.n_frames} frames: mean reuse "
        f"{report.mean_reuse_ratio:.3f}, modeled speedup "
        f"{report.speedup:.2f}x, {report.flush_count} flush(es)"
    )
    return 0


def cmd_masks(args):
    t0 = time.time()
    settings = resolve_settings(args)
    decisions = read_decisions_jsonl(args.decisions)
    out_dir = Path(args.out_dir)
    paths = export_masks(decisions, out_dir)
    write_manifest(out_dir / "manifest.json", "masks", settings,
                   [args.decisions], paths, t0)
    print(f"wrote {len(paths)} mask(s) to {out_dir}")
    return 0


def cmd_compare(args):
    t0 = time.time()
    settings = resolve_settings(args)
    cfg = build_cache_config(settings)
    if args.input:
        frames = _load_input(args, settings)
        labels = None
        source = args.input
    else:
        scene = _scene_from_args(args, settings)
        frames = scene.frames
        labels = scene.edge_labels if any(scene.edge_labels) else None
        source = f"scene:{args.kind}"
    report = compare_domains(
        frames, cfg,
        edge_labels=labels,
        tau_visual=settings["tau_visual"],
        tau_naive_freq=settings["tau_naive_freq"],
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "compare.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    write_manifest(out_dir / "manifest.json", "compare", settings,
                   [source], [report_path], t0)
    print(json.dumps(report["policies"], indent=2))
    return 0


def cmd_bench(args):
    t0 = time.time()
    settings = resolve_settings(args)
    cfg = build_cache_config(settings)
    result = bench(cfg, args.height, args.width, iterations=args.iterations,
                   warmup=args.warmup, seed=settings["seed"])
    print(json.dumps(result, indent=2))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2) + "\n")
        write_manifest(out.with_suffix(out.suffix + ".manifest.json"),
                       "bench", settings, [], [out], t0)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freqcache",
        description="Frequency-guided token-reuse decisions for frame sequences",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic scene as rawf32")
    _add_common(synth)
    _add_scene(synth)
    synth.add_argument("--out", required=True, help="output rawf32 path")
    synth.set_defaults(func=cmd_synth)

    analyze = sub.add_parser("analyze", help="run the pipeline over frames")
    _add_common(analyze)
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--format", choices=("auto", "pgm", "rawf32"),
                         default="auto")
    analyze.add_argument("--out-dir", required=True)
    analyze.add_argument("--timings", action="store_true",
                         help="include per-stage timings in the JSONL "
                              "(non-reproducible across runs)")
    analyze.set_defaults(func=cmd_analyze)

    masks = sub.add_parser("masks", help="render decisions as PGM masks")
    _add_common(masks)
    masks.add_argument("--decisions", required=True, help="decisions.jsonl path")
    masks.add_argument("--out-dir", required=True)
    masks.set_defaults(func=cmd_masks)

    comp = sub.add_parser("compare", help="three-policy comparison report")
    _add_common(comp)
    _add_scene(comp)
    comp.add_argument("--input", help="frames file; omit to use the scene flags")
    comp.add_argument("--format", choices=("auto", "pgm", "rawf32"),
                      default="auto")
    comp.add_argument("--tau-visual", dest="tau_visual", type=float)
    comp.add_argument("--tau-naive-freq", dest="tau_naive_freq", type=float)
    comp.add_argument("--out-dir", required=True)
    comp.set_defaults(func=cmd_compare)

    bench_p = sub.add_parser("bench", help="time the per-step decision")
    _add_common(bench_p)
    bench_p.add_argument("--height", type=int, default=224)
    bench_p.add_argument("--width", type=int, default=224)
    bench_p.add_argument("--iterations", type=int, default=100)
    bench_p.add_argument("--warmup", type=int, default=5)
    bench_p.add_argument("--out")
    bench_p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
