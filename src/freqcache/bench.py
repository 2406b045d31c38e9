"""Wall-clock benchmark of a full per-step decision."""

import time

import numpy as np

from .fusion import decide


def bench(cfg, height, width, iterations=100, warmup=5, seed=0):
    """Time ``decide`` on a seeded broadband frame pair.

    At least 3 warmup iterations are always run and excluded. Returns the
    median, p95, and mean in milliseconds.
    """
    if iterations < 1:
        raise ValueError("need at least 1 timed iteration")
    warmup = max(3, int(warmup))
    rng = np.random.default_rng(seed)
    prev = rng.random((height, width))
    curr = np.roll(prev, (1, 2), axis=(0, 1))
    samples = []
    for k in range(warmup + iterations):
        t0 = time.perf_counter()
        decide(prev, curr, cfg)
        elapsed = time.perf_counter() - t0
        if k >= warmup:
            samples.append(elapsed)
    ms = np.asarray(samples) * 1e3
    return {
        "height": int(height),
        "width": int(width),
        "patch_size": cfg.patch_size,
        "iterations": int(iterations),
        "warmup": warmup,
        "median_ms": float(np.median(ms)),
        "p95_ms": float(np.percentile(ms, 95)),
        "mean_ms": float(np.mean(ms)),
    }
