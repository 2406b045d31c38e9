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

from .frame import PatchGrid, validate_frame
from .fusion import DEFAULT_COST_MODEL, decide
from .migration import _position_cosines


def _raw_pixels(patches):
    return patches.reshape(len(patches), -1)


def _patch_amplitudes(grid, frame):
    spectra = scipy.fft.fft2(grid.blocks(frame), axes=(-2, -1))
    return np.abs(spectra).reshape(grid.n_patches, -1)


def compare_domains(frames, cfg, *, token_fn=None, edge_labels=None,
                    tau_visual=0.85, tau_naive_freq=0.85):
    """Run all three policies over consecutive frame pairs.

    ``edge_labels`` is an optional per-frame sequence of ground-truth edge
    patch indices; without it the false-reuse counts are reported as None.
    The visual baseline embeds patches as raw intensity vectors by default,
    which is exactly the position-wise matching it stands for.
    """
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    frames = [validate_frame(f) for f in frames]
    token_fn = token_fn or _raw_pixels
    grid = PatchGrid(frames[0], cfg.patch_size)
    n = grid.n_patches
    have_labels = edge_labels is not None

    names = ("freqcache", "visual", "naive_freq")
    reused_total = dict.fromkeys(names, 0)
    false_reuse = dict.fromkeys(names, 0)
    latency_total = dict.fromkeys(names, 0.0)

    # Each frame is embedded and transformed once; its results serve as
    # ``curr`` for one step and ``prev`` for the next.
    prev_tokens = grid.tokens(token_fn)
    prev_amps = _patch_amplitudes(grid, frames[0])
    for t in range(1, len(frames)):
        curr = frames[t]
        decision = decide(frames[t - 1], curr, cfg, step=t)
        curr_tokens = grid.tokens(token_fn, frame=curr)
        curr_amps = _patch_amplitudes(grid, curr)
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
            reused_total[name] += len(reuse)
            false_reuse[name] += len(reuse & labels)
            latency_total[name] += DEFAULT_COST_MODEL.latency_ms(n - len(reuse))

    n_steps = len(frames) - 1
    baseline = DEFAULT_COST_MODEL.latency_ms(n)
    policies = {}
    for name in names:
        mean_latency = latency_total[name] / n_steps
        policies[name] = {
            "reuse_ratio": reused_total[name] / (n_steps * n),
            "edge_false_reuse": false_reuse[name] if have_labels else None,
            "mean_latency_ms": mean_latency,
            "speedup": baseline / mean_latency,
        }
    return {
        "n_steps": n_steps,
        "n_tokens": n,
        "baseline_latency_ms": baseline,
        "thresholds": {"tau_visual": tau_visual,
                       "tau_naive_freq": tau_naive_freq},
        "policies": policies,
    }
