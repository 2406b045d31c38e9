"""Command-line surface: synth, analyze, masks, compare, bench.

Each subcommand takes only the settings it reads (``READS``): a flag for
each, config keys for them alone, and ``--config`` only if it reads any.
Settings resolve in three layers: built-in defaults, then a key=value
config file (``--config``), then explicit flags. Every run writes a
manifest JSON next to its outputs recording the resolved settings, inputs,
outputs, and wall-clock time. A rejected setting or input exits with status
2 and one ``freqcache: error:`` line on stderr, which starts with
``path:line:`` when the value came from a file.
"""

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bench import bench
from .compare import check_cosine, compare_domains
from .frame import grid_shape
from .frameio import export_masks, load_frames, save_rawf32
from .fusion import CacheConfig, run_sequence
from .records import read_decisions_jsonl, write_decisions_jsonl, write_metrics_csv
from .scenes import SCENE_KINDS, SceneSpec, generate_scene

# Each cache setting and the CacheConfig field it sets.
CACHE_FIELDS = {"patch_size": "patch_size", "tau_mig": "tau_mig",
                "lambda": "edge_lambda", "alpha_min": "alpha_min",
                "alpha_max": "alpha_max"}

# Each default is read from where the library states it.
_COMPARE = compare_domains.__kwdefaults__
DEFAULTS = {
    **{key: getattr(CacheConfig(), name) for key, name in CACHE_FIELDS.items()},
    "seed": 0,
    "tau_visual": _COMPARE["tau_visual"],
    "tau_naive_freq": _COMPARE["tau_naive_freq"],
}

# The settings each subcommand reads: its flags, config keys and manifest.
READS = {
    "synth": ("patch_size", "seed"),
    "analyze": (*CACHE_FIELDS,),
    "masks": (),
    "compare": (*CACHE_FIELDS, "seed", "tau_visual", "tau_naive_freq"),
    "bench": (*CACHE_FIELDS, "seed"),
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


def _read(flag, path, reader, *args):
    """``reader(path, *args)``; an OSError or a file that is not UTF-8 text
    becomes a ValueError naming ``flag`` and ``path``."""
    try:
        return reader(path, *args)
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{flag} {path}: not UTF-8 text") from None


def read_config_file(path, command):
    """Parse a key=value config file for ``command`` into :class:`Settings`;
    '#' starts a comment. Each key must be one ``command`` reads, and each
    value is parsed as the type of its default (int or float).
    """
    settings = Settings()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in READS[command]:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r} for "
                             f"{command}; it reads {', '.join(READS[command])}")
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
    """The settings ``args.command`` reads: defaults, overridden by the
    config file, overridden by flags. ``compare --input`` reads no seed."""
    keys = READS[args.command]
    settings = Settings((key, DEFAULTS[key]) for key in keys)
    if getattr(args, "config", None):
        from_file = _read("--config", args.config, read_config_file,
                          args.command)
        settings.update(from_file)
        settings.origin.update(from_file.origin)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
            settings.origin.pop(key, None)
    if "seed" in settings and getattr(args, "input", None):
        # Frames read from a file have no scene for a seed to generate.
        if args.seed is not None or "seed" in settings.origin:
            with settings.blame("seed"):
                raise ValueError(f"{args.command} --input reads no seed")
        del settings["seed"]
    for key, least in (("patch_size", 2), ("seed", 0)):
        if settings.get(key, least) < least:
            with settings.blame(key):
                raise ValueError(f"{key} must be >= {least}, got "
                                 f"{settings[key]}")
    return settings


def build_cache_config(settings):
    """The :class:`CacheConfig` of resolved :class:`Settings`. A value it
    rejects is reported in the names of the settings its message names,
    with the config-file line of the first of them that came from a file."""
    try:
        return CacheConfig(**{name: settings[key]
                              for key, name in CACHE_FIELDS.items()})
    except ValueError as exc:
        message = str(exc)
        named = [key for key, name in CACHE_FIELDS.items() if name in message]
        for key in named:
            message = message.replace(CACHE_FIELDS[key], key, 1)
        with settings.blame(*named):
            raise ValueError(message) from None


def _check_tiles(settings, shape):
    """Raise ValueError, with the config line that set ``patch_size``,
    unless the patch size tiles a frame of ``shape``."""
    with settings.blame("patch_size"):
        grid_shape(shape, settings["patch_size"])


def _load_input(args, settings):
    """The frames of ``--input``, their shape checked to tile by the patch
    size; each frame is read when the stream reaches it."""
    frames = _read("--input", args.input, load_frames, args.format)
    _check_tiles(settings, frames.shape)
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


def _add_command(sub, name, func, summary):
    """The subparser of ``name``, which runs ``func``: a flag per setting it
    reads, typed by its default, and ``--config`` if it reads any."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(func=func)
    for key in READS[name]:
        parser.add_argument("--" + key.replace("_", "-"),
                            type=type(DEFAULTS[key]),
                            help=f"default {DEFAULTS[key]}")
    if READS[name]:
        parser.add_argument("--config", help="key=value settings file")
    return parser


def _add_scene(parser):
    parser.add_argument("--kind", choices=SCENE_KINDS, default="translate")
    parser.add_argument("--height", type=int, default=96)
    parser.add_argument("--width", type=int, default=96)
    parser.add_argument("--length", type=int, default=16)
    parser.add_argument("--shift-i", type=int, default=2)
    parser.add_argument("--shift-j", type=int, default=3)
    parser.add_argument("--edge-count", type=int, default=4)


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
    )
    return generate_scene(spec)


def cmd_synth(args, settings, t0):
    if args.kind == "edge-inject":  # the one kind placed on the patch grid
        _check_tiles(settings, (args.height, args.width))
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


def cmd_analyze(args, settings, t0):
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


def cmd_masks(args, settings, t0):
    decisions = _read("--decisions", args.decisions, read_decisions_jsonl)
    out_dir = Path(args.out_dir)
    paths = export_masks(decisions, out_dir)
    write_manifest(out_dir / "manifest.json", "masks", settings,
                   [args.decisions], paths, t0)
    print(f"wrote {len(paths)} mask(s) to {out_dir}")
    return 0


def cmd_compare(args, settings, t0):
    cfg = build_cache_config(settings)
    for key in ("tau_visual", "tau_naive_freq"):
        with settings.blame(key):
            check_cosine(key, settings[key])
    if args.input:
        frames = _load_input(args, settings)
        labels = None
        source = args.input
    else:
        _check_tiles(settings, (args.height, args.width))
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


def cmd_bench(args, settings, t0):
    cfg = build_cache_config(settings)
    _check_tiles(settings, (args.height, args.width))
    result = bench(cfg, args.height, args.width, iterations=args.iterations,
                   seed=settings["seed"])
    print(json.dumps(result, indent=2))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2) + "\n")
        write_manifest(out.with_suffix(out.suffix + ".manifest.json"),
                       "bench", settings, [], [out], t0)
    return 0


@functools.cache
def build_parser():
    """The ``freqcache`` parser, built on the first call and returned again
    by every later one in the process: parsing leaves it unchanged, so
    :func:`main` pays for its several dozen arguments once."""
    parser = argparse.ArgumentParser(
        prog="freqcache",
        description="Frequency-guided token-reuse decisions for frame sequences",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = _add_command(sub, "synth", cmd_synth,
                         "generate a synthetic scene as rawf32")
    _add_scene(synth)
    synth.add_argument("--out", required=True, help="output rawf32 path")

    analyze = _add_command(sub, "analyze", cmd_analyze,
                           "run the pipeline over frames")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--format", choices=("auto", "pgm", "rawf32"),
                         default="auto")
    analyze.add_argument("--out-dir", required=True)
    analyze.add_argument("--timings", action="store_true",
                         help="include per-stage timings in the JSONL "
                              "(non-reproducible across runs)")

    masks = _add_command(sub, "masks", cmd_masks,
                         "render decisions as PGM masks")
    masks.add_argument("--decisions", required=True, help="decisions.jsonl path")
    masks.add_argument("--out-dir", required=True)

    comp = _add_command(sub, "compare", cmd_compare,
                        "three-policy comparison report")
    _add_scene(comp)
    comp.add_argument("--input", help="frames file; omit to use the scene flags")
    comp.add_argument("--format", choices=("auto", "pgm", "rawf32"),
                      default="auto")
    comp.add_argument("--out-dir", required=True)

    bench_p = _add_command(sub, "bench", cmd_bench,
                           "time the per-step decision")
    bench_p.add_argument("--height", type=int, default=224)
    bench_p.add_argument("--width", type=int, default=224)
    bench_p.add_argument("--iterations", type=int, default=100)
    bench_p.add_argument("--out")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        return args.func(args, resolve_settings(args), t0)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
