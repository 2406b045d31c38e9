"""Fresh-process measurements: set-up time, peak memory, import probe.

    python3 perfbench/child.py setup SRC RAWF32 PATCH_SIZE [OUT_DIR]
    python3 perfbench/child.py reference

``setup`` prints the seconds from the first import of freqcache to a
populated cold-start cache: import, ``load_frames`` and ``populate_cache``.
With OUT_DIR it then streams every frame once through ``decide`` and
``step``, runs one ``analyze`` job into OUT_DIR, and prints the peak
resident memory of the process in MB on a second line; doing a fixed amount
of work in a fresh process keeps the peak independent of run length.

``reference`` prints the seconds a fresh interpreter takes to import
NumPy, scipy.fft and scipy.special, freqcache's dependencies. It does not
touch freqcache, and scales set-up times (speed.py).
"""

import sys
import time

t0 = time.perf_counter()
if sys.argv[1] == "reference":
    import numpy  # noqa: F401
    import scipy.fft  # noqa: F401
    import scipy.special  # noqa: F401

    print(time.perf_counter() - t0)
    sys.exit(0)

sys.path.insert(0, sys.argv[2])
from freqcache.frameio import load_frames  # noqa: E402
from freqcache.fusion import (  # noqa: E402
    CacheConfig, decide, default_token_fn, populate_cache, step)

raw, patch_size = sys.argv[3], int(sys.argv[4])
frames = load_frames(raw, "rawf32")
cache = populate_cache(frames[0], patch_size, default_token_fn)
print(time.perf_counter() - t0, flush=True)

if len(sys.argv) > 5:
    import contextlib
    import io
    import resource

    from freqcache.cli import main as cli_main

    cfg = CacheConfig(patch_size=patch_size)
    for t in range(1, len(frames)):
        d = decide(frames[t - 1], frames[t], cfg, step=t)
        cache, _ = step(cache, d, frames[t], default_token_fn)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["analyze", "--input", raw, "--format", "rawf32",
                       "--out-dir", sys.argv[5], "--patch-size", str(patch_size)])
    if rc != 0:
        sys.exit(f"analyze exited with {rc}")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
