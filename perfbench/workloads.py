"""Seeded frame-sequence workloads for the freqcache benchmark.

Every workload is built here from a seed, never by ``freqcache.scenes``, and
carries its ground truth: the cyclic shift between consecutive frames where
one exists, hard cuts, black fade frames, and the patches that hold a step
edge. Frame values are rounded to float32, so a rawf32 file written from
them loads back to exactly the same float64 arrays.
"""

from dataclasses import dataclass

import numpy as np

# Per-step cyclic shift, in pixels, of the translate workloads.
TRANSLATE_SHIFT = (5, -11)
# Per-step cyclic shift of the pan shots in the shots workload.
PAN_SHIFT = (6, -21)

# Shots workload script: six 12-frame shots, static edge shots alternating
# with pans, joined alternately by a hard cut and a fade through black.
SHOT_COUNT = 6
SHOT_LENGTH = 12
# Shot-local steps at which a new step-edge patch appears in an edge shot.
EDGE_APPEAR_AT = (2, 4, 6, 8, 10)


@dataclass(frozen=True)
class Truth:
    """Ground truth for the step that ends at one frame.

    ``shift`` is the cyclic pixel displacement (di, dj) of this frame with
    respect to the previous one, or None where none exists (cuts, fades).
    ``edges`` holds the row-major indices of patches of this frame that
    contain a step edge and so must never be reused.
    """

    shift: tuple = None
    cut: bool = False
    black: bool = False
    edges: frozenset = frozenset()


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    patch_size: int
    frames: list       # float64 arrays whose values are exact in float32
    truth: list        # truth[t] describes the step from frame t-1 to t
    check_shift: bool  # the displacement must equal the ground truth

    @property
    def shape(self):
        return self.frames[0].shape

    @property
    def n_patches(self):
        h, w = self.shape
        return (h // self.patch_size) * (w // self.patch_size)


def _f32(frame):
    return np.asarray(frame, dtype=np.float32).astype(np.float64)


def _canonical(d, n):
    d %= n
    return d - n if 2 * d >= n else d


def translate(name, seed, size, patch_size, length):
    """A broadband frame shifted cyclically by TRANSLATE_SHIFT every step."""
    rng = np.random.default_rng(seed)
    base = _f32(rng.random((size, size)))
    si, sj = TRANSLATE_SHIFT
    frames = [np.roll(base, (t * si, t * sj), axis=(0, 1)) for t in range(length)]
    shift = (_canonical(si, size), _canonical(sj, size))
    truth = [None] + [Truth(shift=shift) for _ in range(1, length)]
    return Workload(name, seed, patch_size, frames, truth, check_shift=True)


def _smooth_field(rng, size):
    """Low-entropy content: a tilted gradient plus one slow sinusoid."""
    y, x = np.mgrid[0:size, 0:size] / size
    a, b = rng.uniform(-1.0, 1.0, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    field = a * x + b * y + 0.3 * np.sin(2.0 * np.pi * (x + y) + phase)
    field -= field.min()
    return 0.2 + 0.6 * field / field.max()


def _lowpass_noise(rng, size, cutoff=0.08):
    """Cyclic noise with a Gaussian spectrum, scaled into [0, 1]."""
    fy = np.fft.fftfreq(size)[:, None]
    fx = np.fft.fftfreq(size)[None, :]
    gain = np.exp(-(fy * fy + fx * fx) / (2.0 * cutoff * cutoff))
    field = np.fft.ifft2(np.fft.fft2(rng.standard_normal((size, size))) * gain).real
    field -= field.min()
    return field / field.max()


def _stamp_edge(frame, index, p, vertical):
    i, j = divmod(index, frame.shape[1] // p)
    patch = np.full((p, p), 0.05)
    if vertical:
        patch[:, p // 2:] = 0.95
    else:
        patch[p // 2:, :] = 0.95
    frame[i * p:(i + 1) * p, j * p:(j + 1) * p] = patch


def _edge_shot(rng, size, p):
    """Frames and per-frame edge labels of one static edge shot."""
    background = _smooth_field(rng, size)
    positions = rng.choice((size // p) ** 2, size=len(EDGE_APPEAR_AT),
                           replace=False)
    vertical = rng.integers(0, 2, size=len(EDGE_APPEAR_AT)).astype(bool)
    frames, labels = [], []
    for k in range(SHOT_LENGTH):
        frame = background.copy()
        present = []
        for e, at in enumerate(EDGE_APPEAR_AT):
            if at <= k:
                _stamp_edge(frame, int(positions[e]), p, bool(vertical[e]))
                present.append(int(positions[e]))
        frames.append(_f32(frame))
        labels.append(frozenset(present))
    return frames, labels


def _pan_shot(rng, size):
    base = _f32(_lowpass_noise(rng, size))
    return [np.roll(base, (k * PAN_SHIFT[0], k * PAN_SHIFT[1]), axis=(0, 1))
            for k in range(SHOT_LENGTH)]


def shots(name, seed, size, patch_size):
    """Edge shots and pans joined alternately by hard cuts and fades.

    Even shots hold a static smooth field onto which step-edge patches
    appear at EDGE_APPEAR_AT; odd shots pan low-pass noise cyclically by
    PAN_SHIFT. Each shot draws its own content, so a hard cut joins
    unrelated frames. The join before an odd shot is a hard cut; the join
    before an even shot fades through one all-black frame.
    """
    rng = np.random.default_rng(seed)
    pan = (_canonical(PAN_SHIFT[0], size), _canonical(PAN_SHIFT[1], size))
    frames, truth = [], []
    for s in range(SHOT_COUNT):
        if s % 2 == 0:
            shot, labels = _edge_shot(rng, size, patch_size)
            inner = [Truth(shift=(0, 0), edges=e) for e in labels]
        else:
            shot = _pan_shot(rng, size)
            inner = [Truth(shift=pan)] * SHOT_LENGTH
        if s == 0:
            first = None
        elif s % 2 == 1:
            first = Truth(cut=True, edges=inner[0].edges)
        else:
            frames.append(np.zeros((size, size)))
            truth.append(Truth(black=True))
            first = Truth(black=True, edges=inner[0].edges)
        frames.extend(shot)
        truth.extend([first] + inner[1:])
    return Workload(name, seed, patch_size, frames, truth, check_shift=False)


WORKLOADS = {
    "translate-448-p16": lambda seed: translate(
        "translate-448-p16", seed, 448, 16, length=12),
    "translate-224-p8": lambda seed: translate(
        "translate-224-p8", seed, 224, 8, length=16),
    "shots-224-p16": lambda seed: shots("shots-224-p16", seed, 224, 16),
}


def build(name, seed):
    """The workload called ``name``, generated from ``seed``."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}") from None
    return factory(int(seed))
