#!/usr/bin/env python3
"""Command-line entry point of the freqcache benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins the process to one CPU before anything imports NumPy, then runs
``harness.main``; see harness.py and README.md.
"""

import os
import sys

if __name__ == "__main__":
    # One CPU for this process, every thread it starts and every child
    # process, set before NumPy starts its BLAS threads: frames and the speed
    # probes that scale them (speed.py) then always share a core, and
    # freqcache runs as a single client on one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import harness

    sys.exit(harness.main())
