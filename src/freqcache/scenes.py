"""Deterministic synthetic scenes for exercising the decision pipeline.

Every scene is fully determined by its spec (including the seed): translate
scenes cyclically shift a broadband base frame, edge-inject scenes drop
step-edge patches onto a smooth gradient at scripted steps, complexity-ramp
scenes interpolate from a gradient to white noise, and noise/static scenes
provide the two extremes of temporal change.
"""

from dataclasses import dataclass

import numpy as np

from .frame import grid_shape

SCENE_KINDS = ("translate", "edge-inject", "complexity-ramp", "noise", "static")
# Intensity range of the smooth gradient under edge-inject and
# complexity-ramp scenes; edges step between its two ends.
GRADIENT_LO, GRADIENT_HI = 0.15, 0.85


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    height: int = 64
    width: int = 64
    length: int = 16
    seed: int = 0
    shift: tuple = (2, 3)               # translate: per-step cyclic shift
    edge_count: int = 4                 # edge-inject: number of edge patches
    patch_size: int = 8                 # edge-inject: placement granularity

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.height < 2 or self.width < 2:
            raise ValueError("scene dimensions must be >= 2")
        if self.length < 2:
            raise ValueError("scene length must be >= 2")


@dataclass(frozen=True)
class Scene:
    """Generated frames plus per-frame ground-truth edge patch indices."""

    frames: list
    edge_labels: list  # frozenset of row-major patch indices, one per frame


def _gradient(height, width):
    gx = np.linspace(0.0, 1.0, height)[:, None]
    gy = np.linspace(0.0, 1.0, width)[None, :]
    return GRADIENT_LO + (GRADIENT_HI - GRADIENT_LO) * (gx + gy) / 2.0


def _stamp_edge(frame, i, j, p, vertical):
    patch = np.full((p, p), GRADIENT_LO)
    if vertical:
        patch[:, p // 2:] = GRADIENT_HI
    else:
        patch[p // 2:, :] = GRADIENT_HI
    frame[i * p:(i + 1) * p, j * p:(j + 1) * p] = patch


def generate_scene(spec):
    """Build the frame sequence for a spec; (spec, seed) determines it fully."""
    rng = np.random.default_rng(spec.seed)
    h, w, t_len = spec.height, spec.width, spec.length
    empty = [frozenset()] * t_len

    if spec.kind == "translate":
        base = rng.random((h, w))
        si, sj = spec.shift
        frames = [np.roll(base, (t * si, t * sj), axis=(0, 1)) for t in range(t_len)]
        return Scene(frames, empty)

    if spec.kind == "static":
        base = rng.random((h, w))
        return Scene([base.copy() for _ in range(t_len)], empty)

    if spec.kind == "noise":
        frames = [rng.random((h, w)) for _ in range(t_len)]
        return Scene(frames, empty)

    if spec.kind == "complexity-ramp":
        gradient = _gradient(h, w)
        noise = rng.random((h, w))
        frames = []
        for t in range(t_len):
            weight = t / (t_len - 1)
            frames.append((1.0 - weight) * gradient + weight * noise)
        return Scene(frames, empty)

    # edge-inject
    p = spec.patch_size
    rows, cols = grid_shape((h, w), p)
    n = rows * cols
    k = spec.edge_count
    if not 0 < k <= n:
        raise ValueError(f"edge count must lie in [1, {n}], got {k}")
    positions = rng.choice(n, size=k, replace=False)
    vertical = rng.integers(0, 2, size=k).astype(bool)
    appear = [(e * t_len) // (k + 1) for e in range(k)]
    background = _gradient(h, w)
    frames = []
    labels = []
    for t in range(t_len):
        frame = background.copy()
        present = []
        for e in range(k):
            if appear[e] <= t:
                i, j = divmod(int(positions[e]), cols)
                _stamp_edge(frame, i, j, p, bool(vertical[e]))
                present.append(int(positions[e]))
        frames.append(frame)
        labels.append(frozenset(present))
    return Scene(frames, labels)
