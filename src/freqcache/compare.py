"""Three-policy comparison over a frame sequence.

Policies:

* ``freqcache``: the full decision pipeline (gate, alignment, refresh,
  budgeted ascending-energy selection).
* ``visual``: position-wise patch-embedding cosine against a fixed
  threshold, the naive visual-domain strategy.
* ``naive_freq``: position-wise cosine of per-patch amplitude spectra
  against a fixed threshold.

Each policy reports its mean reuse ratio, how often it reused a
ground-truth edge patch (when labels are available), and modeled latency.
``freqcache`` reads only :func:`fusion.stream`'s decisions; both baselines
compare each patch with the patch at the same grid position of the previous
frame, read from one block view of each frame.
"""

import collections

import numpy as np
import scipy.fft

from .frame import PatchGrid
from .fusion import modeled_cost, modeled_latency_ms, stream


def check_cosine(name, value):
    """Raise ValueError unless ``value`` is a cosine threshold in [-1, 1]."""
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a cosine in [-1, 1], got {value}")


def _position_cosines(prev_vecs, curr_vecs):
    """Row-wise cosine of two (n, d) stacks; zero-norm rows score 0."""
    num = np.einsum("nd,nd->n", prev_vecs, curr_vecs)
    norm_p = np.linalg.norm(prev_vecs, axis=1)
    norm_c = np.linalg.norm(curr_vecs, axis=1)
    denom = norm_p * norm_c
    out = np.zeros(prev_vecs.shape[0])
    ok = denom > 0.0
    out[ok] = num[ok] / denom[ok]
    return out


def _baseline_tokens(blocks):
    """Raw pixels (visual) and amplitude spectra (naive_freq) of a (rows,
    cols, P, P) block view, one row per patch."""
    pixels = blocks.reshape(-1, blocks.shape[-1] ** 2)
    spectra = scipy.fft.fft2(blocks, axes=(-2, -1))
    return pixels, np.abs(spectra).reshape(pixels.shape)


def compare_domains(frames, cfg, *, edge_labels=None, tau_visual=0.85,
                    tau_naive_freq=0.85):
    """Run all three policies over consecutive frame pairs.

    ``freqcache`` takes its reuse sets from :func:`fusion.stream`.
    ``edge_labels`` is an optional per-frame sequence of ground-truth edge
    patch indices; without it the false-reuse counts are reported as None.
    The visual baseline embeds patches as raw intensity vectors, which is
    exactly the position-wise matching it stands for; a patch with no
    energy in either frame (all zero) scores cosine 0. A threshold outside
    [-1, 1] (NaN too) raises ValueError first; fewer than two frames, or a
    frame that :func:`fusion.decide` rejects, raise :func:`fusion.stream`'s
    ValueError. ``frames`` may be any iterable; it is walked once.
    """
    thresholds = {"tau_visual": tau_visual, "tau_naive_freq": tau_naive_freq}
    for name, tau in thresholds.items():
        check_cosine(name, tau)
    have_labels = edge_labels is not None

    names = ("freqcache", "visual", "naive_freq")
    reused = {name: [] for name in names}
    false_reuse = dict.fromkeys(names, 0)

    def tokens(frame):
        # ``stream`` yields a step after ``decide`` accepted its two frames;
        # converting again gives the array it checked (the same one for a
        # float64 array).
        grid = PatchGrid._of_valid(np.asarray(frame, dtype=np.float64),
                                   cfg.patch_size)
        return _baseline_tokens(grid.blocks())

    # The last two frames the stream read, so that no frame is read twice.
    held = collections.deque(maxlen=2)

    def walk():
        for frame in frames:
            held.append(frame)
            yield frame

    # A frame's tokens are ``curr`` for one step and ``prev`` for the next.
    prev = None
    for decision in stream(walk(), cfg):
        t = decision.step
        if prev is None:
            prev = tokens(held[0])
        curr = tokens(held[1])
        visual_cos, naive_cos = map(_position_cosines, prev, curr)
        prev = curr
        sets = {
            "freqcache": set(decision.reuse_set),
            "visual": set(np.flatnonzero(visual_cos > tau_visual)),
            "naive_freq": set(np.flatnonzero(naive_cos > tau_naive_freq)),
        }
        labels = frozenset(edge_labels[t]) if have_labels else frozenset()
        for name, reuse in sets.items():
            reused[name].append(len(reuse))
            false_reuse[name] += len(reuse & labels)

    n = decision.rows * decision.cols
    policies = {}
    for name in names:
        ratio, mean_latency, speedup = modeled_cost(reused[name], n)
        policies[name] = {
            "reuse_ratio": ratio,
            "edge_false_reuse": false_reuse[name] if have_labels else None,
            "mean_latency_ms": mean_latency,
            "speedup": speedup,
        }
    return {
        "n_steps": len(reused["freqcache"]),
        "n_tokens": n,
        "baseline_latency_ms": modeled_latency_ms(n),
        "thresholds": thresholds,
        "policies": policies,
    }
