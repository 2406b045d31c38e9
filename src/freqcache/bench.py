"""Wall-clock benchmark of a full per-step decision."""

import time

import numpy as np

from .fusion import decide

# Untimed calls before the timed ones.
WARMUP = 5


def bench(cfg, height, width, iterations=100, seed=0):
    """Time ``decide`` on a seeded broadband frame pair.

    :data:`WARMUP` calls run first and are excluded. Returns the median,
    p95, and mean in milliseconds.
    """
    if iterations < 1:
        raise ValueError("need at least 1 timed iteration")
    rng = np.random.default_rng(seed)
    prev = rng.random((height, width))
    curr = np.roll(prev, (1, 2), axis=(0, 1))
    samples = []
    for k in range(WARMUP + iterations):
        t0 = time.perf_counter()
        decide(prev, curr, cfg)
        elapsed = time.perf_counter() - t0
        if k >= WARMUP:
            samples.append(elapsed)
    ms = np.asarray(samples) * 1e3
    return {
        "height": int(height),
        "width": int(width),
        "patch_size": cfg.patch_size,
        "iterations": int(iterations),
        "warmup": WARMUP,
        "median_ms": float(np.median(ms)),
        "p95_ms": float(np.percentile(ms, 95)),
        "mean_ms": float(np.mean(ms)),
    }
