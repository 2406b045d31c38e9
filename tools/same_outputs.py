#!/usr/bin/env python3
"""Check that two revisions write the same outputs, byte for byte.

    python3 tools/same_outputs.py --parent REV --change REV

Exports each revision with ``git archive`` into a temporary directory and
runs its CLI (``python -m freqcache`` with that revision's ``src`` first on
``PYTHONPATH``) on each scene of ``SCENES``: the criterion-7 chain
``synth``, ``analyze``, ``masks``, then ``compare`` from the scene flags and
from ``--input``, and one more ``analyze`` that sets ``tau_mig``,
``lambda``, ``alpha_min`` and ``alpha_max`` off their defaults, two
through a ``--config`` file and two through flags (see ``TUNED``). The
criterion-7 scene also runs the ``analyze`` commands of ``REJECTED``,
each with a config file that it or its flags break; their exit status
and stderr are saved as a stdout is. The flat-patch and near-constant
scenes are no synthetic kind: their rawf32 inputs are written by
:func:`write_flat_patches` and :func:`write_near_constant`, and they run
``analyze``, ``masks`` and ``compare --input``. Every command runs in
the scene's output directory with relative paths, so its stdout names
the same files on both sides; each stdout is saved next to the outputs.
Then every file of the two output trees is compared byte for byte,
except manifests, which hold wall-clock times. Prints one line per
difference and exits 1 if there is any, 0 if none. Running outside a git
repository, a revision that is not a commit of it (see revisions.py), or
a command other than a rejected run that fails on either side stops the
check with status 2. Uses the standard library only.
"""

import argparse
import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

from revisions import export, fail, resolve

TOOL = "same_outputs"

SIDES = ("parent", "change")
# name: (synth and compare scene flags, patch size). The first is the
# criterion-7 scene; one without flags reads the input its WRITERS entry
# writes.
SCENES = {
    "translate-64-p8": (["--kind", "translate", "--height", "64", "--width",
                         "64", "--length", "8", "--seed", "21",
                         "--shift-i", "3", "--shift-j", "5"], 8),
    "edge-inject-96-p8": (["--kind", "edge-inject", "--height", "96",
                           "--width", "96", "--length", "12", "--seed", "5",
                           "--edge-count", "6"], 8),
    "complexity-ramp-64-p16": (["--kind", "complexity-ramp", "--height", "64",
                                "--width", "64", "--length", "12",
                                "--seed", "11"], 16),
    "static-112-p8": (["--kind", "static", "--height", "112", "--width",
                       "112", "--length", "8", "--seed", "7"], 8),
    "flat-patches-64-p8": (None, 8),
    "near-constant-64-p8": (None, 8),
}
CRITERION_7 = next(iter(SCENES))
# The criterion-7 scene's off-default analyze run: its config file's text,
# then its flags.
TUNED = ("tau-mig = 0.2\nalpha_min = 0.15\n",
         ["--lambda", "0.4", "--alpha-max", "0.45"])
# The criterion-7 scene's rejected analyze runs, by name: the text of the
# config file ``NAME.cfg`` each reads, then its flags.
REJECTED = {
    "three-rules-in-file": ("tau-mig = 1.5\nlambda = inf\nalpha-min = 0.9\n"
                            "alpha-max = 0.1\n", []),
    "pair-in-file-and-flag": ("alpha-max = 0.1\n", ["--alpha-min", "0.9"]),
    "lambda-and-patch-size": ("lambda = inf\npatch-size = 1\n", []),
    "nan-tau-mig-flag": ("tau-mig = 0.2\n", ["--tau-mig", "nan"]),
    "nan-lambda-flag": ("", ["--lambda", "nan"]),
    "out-of-range-flags": ("tau-mig = 0.2\n", ["--tau-mig", "-1",
                                                "--alpha-max", "1.5"]),
}


def write_rawf32(path, size, frames):
    """Write ``size`` x ``size`` frames, each a list of rows, as rawf32."""
    with open(path, "wb") as fh:
        fh.write(b"FQC1" + struct.pack("<III", size, size, len(frames)))
        for rows in frames:
            fh.write(struct.pack(f"<{size * size}f",
                                 *(v for row in rows for v in row)))


def roll(rows, di, dj):
    """A square frame shifted cyclically by ``(di, dj)`` pixels."""
    size = len(rows)
    return [[rows[(i - di) % size][(j - dj) % size] for j in range(size)]
            for i in range(size)]


def ulps_up(value, count=1):
    """The float32 ``count`` representable steps above the positive float32
    ``value``."""
    bits, = struct.unpack("<I", struct.pack("<f", value))
    return struct.unpack("<f", struct.pack("<I", bits + count))[0]


def write_near_constant(path, size=64, patch_size=8):
    """Write a rawf32 sequence of ``size`` x ``size`` frames at or near
    constant: for each of the levels 0.37, 3e38 and 1.2e-38 (the edge of
    float32's normal range), a constant frame, the same frame with one
    pixel one float32 ulp higher, and a shift of that; then a large level
    with a texture a few ulps deep, a shift of it, and a textured frame."""
    rng = random.Random(19)
    frames = []
    for level in (0.37, 3e38, 1.2e-38):
        flat = [[level] * size for _ in range(size)]
        nudged = [row[:] for row in flat]
        nudged[patch_size + 3][2 * patch_size + 5] = ulps_up(level)
        frames += [flat, nudged, roll(nudged, patch_size, 2 * patch_size)]
    deep = [[ulps_up(4096.0, rng.randrange(4)) for _ in range(size)]
            for _ in range(size)]
    frames += [deep, roll(deep, 3, 5),
               [[rng.random() for _ in range(size)] for _ in range(size)]]
    write_rawf32(path, size, frames)


def write_flat_patches(path, size=64, patch_size=8):
    """Write a rawf32 sequence of ``size`` x ``size`` frames whose patches
    are flat at several grey levels: a textured frame, a frame half of
    flat patches and half textured, two whole-patch shifts of it, a frame
    of flat patches only and a shift of it, a constant frame, a black
    frame, and the textured frame and a shift of it."""
    rng = random.Random(15)
    levels = (0.37, 0.125, 0.9, 0.5, 1.0, 0.0, 0.61)
    n = size // patch_size

    def frame(pixel):
        return [[pixel(i, j) for j in range(size)] for i in range(size)]

    def level(i, j):
        return levels[((i // patch_size) * n + j // patch_size) % len(levels)]

    textured = frame(lambda i, j: rng.random())
    mixed = frame(lambda i, j: level(i, j) if (i // patch_size
                                               + j // patch_size) % 2
                  else textured[i][j])
    flat = frame(level)
    p = patch_size
    frames = [textured, mixed, roll(mixed, p, 2 * p),
              roll(mixed, 2 * p, 4 * p),
              flat, roll(flat, p, p), frame(lambda i, j: 0.37),
              frame(lambda i, j: 0.0), textured, roll(textured, 3, 5)]
    write_rawf32(path, size, frames)


# The writers of the scenes that are no synthetic kind, by scene name.
WRITERS = {"flat-patches-64-p8": write_flat_patches,
           "near-constant-64-p8": write_near_constant}


def commands(scene, patch_size, tuned=False):
    """``(name, argv)`` of each CLI run on one scene, in order; a scene
    without flags reads a ``scene.fqc`` that is already written. ``tuned``
    adds the off-default analyze run, which reads a written ``tuned.cfg``."""
    p = ["--patch-size", str(patch_size)]
    analyze_masks = [
        ("analyze", ["analyze", "--input", "scene.fqc", *p,
                     "--out-dir", "analysis"]),
        ("masks", ["masks", "--decisions", "analysis/decisions.jsonl",
                   "--out-dir", "masks"]),
    ]
    compare_input = ("compare-input", ["compare", "--input", "scene.fqc", *p,
                                       "--out-dir", "compare-input"])
    if scene is None:
        return [*analyze_masks, compare_input]
    runs = [("synth", ["synth", *scene, *p, "--out", "scene.fqc"]),
            *analyze_masks,
            ("compare-scene", ["compare", *scene, *p, "--out-dir",
                               "compare-scene"]),
            compare_input]
    if tuned:
        runs.append(("analyze-tuned", ["analyze", "--input", "scene.fqc", *p,
                                       "--config", "tuned.cfg", *TUNED[1],
                                       "--out-dir", "analysis-tuned"]))
    return runs


def run_cli(argv, cwd, env):
    """The finished ``python -m freqcache`` run of ``argv`` in ``cwd``."""
    return subprocess.run([sys.executable, "-m", "freqcache", *argv],
                          cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True)


def rejected_argv(name):
    """The argv of the rejected run ``name``."""
    return ["analyze", "--input", "scene.fqc", "--config", f"{name}.cfg",
            *REJECTED[name][1], "--out-dir", name]


def run_side(tree, out):
    """Run every scene's commands with ``tree``'s package, outputs under
    ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for name, (scene, patch_size) in SCENES.items():
        cwd = out / name
        (cwd / "stdout").mkdir(parents=True)
        if scene is None:
            WRITERS[name](cwd / "scene.fqc", patch_size=patch_size)
        tuned = name == CRITERION_7
        if tuned:
            (cwd / "tuned.cfg").write_text(TUNED[0])
        for i, (label, argv) in enumerate(commands(scene, patch_size,
                                                   tuned)):
            proc = run_cli(argv, cwd, env)
            if proc.returncode != 0:
                fail(TOOL, f"{label} on {name} in {tree} exited with "
                           f"{proc.returncode}:\n"
                           f"{proc.stderr.decode(errors='replace')}")
            (cwd / "stdout" / f"{i}-{label}.txt").write_bytes(proc.stdout)
        if tuned:
            (cwd / "rejected").mkdir()
            for label, (config, _) in REJECTED.items():
                (cwd / f"{label}.cfg").write_text(config)
                proc = run_cli(rejected_argv(label), cwd, env)
                (cwd / "rejected" / f"{label}.txt").write_bytes(
                    b"exit %d\n" % proc.returncode + proc.stderr)


def outputs(root):
    """Relative paths of every file under ``root`` but manifests."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and not p.name.endswith("manifest.json")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)

    top, commits = resolve(TOOL, (args.parent, args.change))
    revs = dict(zip(SIDES, commits))
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        work = Path(tmp)
        for side in SIDES:
            export(top, revs[side], work / side / "tree")
            run_side(work / side / "tree", work / side / "out")
        roots = {side: work / side / "out" for side in SIDES}
        files = {side: outputs(roots[side]) for side in SIDES}
        differ = []
        for path in sorted(files["parent"] ^ files["change"]):
            side = "parent" if path in files["parent"] else "change"
            differ.append(f"only in {side}: {path}")
        for path in sorted(files["parent"] & files["change"]):
            if ((roots["parent"] / path).read_bytes()
                    != (roots["change"] / path).read_bytes()):
                differ.append(f"differs: {path}")
    for line in differ:
        print(f"same_outputs: {line}")
    same = len(files["parent"] & files["change"]) - sum(
        line.startswith("differs") for line in differ)
    print(f"same_outputs: {revs['parent'][:12]} vs {revs['change'][:12]}: "
          f"{same} file(s) byte-identical, {len(differ)} difference(s) over "
          f"{len(SCENES)} scenes and {len(REJECTED)} rejected runs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
