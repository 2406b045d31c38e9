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
"""

import numpy as np
import scipy.fft

from .frame import PatchGrid
from .fusion import DEFAULT_COST_MODEL, stream
from .migration import _position_cosines


def _raw_pixels(patches):
    return patches.reshape(len(patches), -1)


def _patch_amplitudes(grid, frame):
    spectra = scipy.fft.fft2(grid.blocks(frame), axes=(-2, -1))
    return np.abs(spectra).reshape(grid.n_patches, -1)


def compare_domains(frames, cfg, *, edge_labels=None, tau_visual=0.85,
                    tau_naive_freq=0.85):
    """Run all three policies over consecutive frame pairs.

    ``freqcache`` takes its reuse sets from :func:`fusion.stream`.
    ``edge_labels`` is an optional per-frame sequence of ground-truth edge
    patch indices; without it the false-reuse counts are reported as None.
    The visual baseline embeds patches as raw intensity vectors, which is
    exactly the position-wise matching it stands for.
    """
    grid = PatchGrid(frames[0], cfg.patch_size)
    n = grid.n_patches
    have_labels = edge_labels is not None

    names = ("freqcache", "visual", "naive_freq")
    reused = {name: [] for name in names}
    false_reuse = dict.fromkeys(names, 0)

    # Each frame is embedded and transformed once; its results serve as
    # ``curr`` for one step and ``prev`` for the next.
    prev_tokens = grid.tokens(_raw_pixels)
    prev_amps = _patch_amplitudes(grid, frames[0])
    for decision, _ in stream(frames, cfg):
        t = decision.step
        curr_tokens = grid.tokens(_raw_pixels, frame=frames[t])
        curr_amps = _patch_amplitudes(grid, frames[t])
        visual_cos = _position_cosines(prev_tokens, curr_tokens)
        naive_cos = _position_cosines(prev_amps, curr_amps)
        prev_tokens, prev_amps = curr_tokens, curr_amps
        sets = {
            "freqcache": set(decision.reuse_set),
            "visual": set(np.flatnonzero(visual_cos > tau_visual)),
            "naive_freq": set(np.flatnonzero(naive_cos > tau_naive_freq)),
        }
        labels = frozenset(edge_labels[t]) if have_labels else frozenset()
        for name, reuse in sets.items():
            reused[name].append(len(reuse))
            false_reuse[name] += len(reuse & labels)

    policies = {}
    for name in names:
        ratio, mean_latency, speedup = DEFAULT_COST_MODEL.summary(reused[name], n)
        policies[name] = {
            "reuse_ratio": ratio,
            "edge_false_reuse": false_reuse[name] if have_labels else None,
            "mean_latency_ms": mean_latency,
            "speedup": speedup,
        }
    return {
        "n_steps": len(frames) - 1,
        "n_tokens": n,
        "baseline_latency_ms": DEFAULT_COST_MODEL.latency_ms(n),
        "thresholds": {"tau_visual": tau_visual,
                       "tau_naive_freq": tau_naive_freq},
        "policies": policies,
    }
